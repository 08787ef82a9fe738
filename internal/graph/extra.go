package graph

import (
	"math"
	"sort"
)

// Eccentricities returns, for each node, the greatest shortest-path
// distance to any node reachable from it in the undirected simple
// projection. Isolated nodes have eccentricity 0.
func (g *Digraph) Eccentricities() []int {
	adj := g.undirectedSimple()
	ecc := make([]int, len(adj))
	for u := range adj {
		for _, d := range bfsDistances(adj, u) {
			if d > ecc[u] {
				ecc[u] = d
			}
		}
	}
	return ecc
}

// Radius is the minimum eccentricity over the largest weakly connected
// component (the standard definition restricted to stay finite on
// fragmented conversation graphs). Zero for graphs with fewer than two
// nodes.
func (g *Digraph) Radius() int {
	comps := g.ConnectedComponents()
	if len(comps) == 0 || len(comps[0]) < 2 {
		return 0
	}
	inBig := make(map[int]bool, len(comps[0]))
	for _, u := range comps[0] {
		inBig[u] = true
	}
	ecc := g.Eccentricities()
	radius := -1
	for u := range ecc {
		if !inBig[u] {
			continue
		}
		if radius < 0 || ecc[u] < radius {
			radius = ecc[u]
		}
	}
	if radius < 0 {
		return 0
	}
	return radius
}

// Center returns the nodes of the largest component whose eccentricity
// equals the radius, in ascending id order.
func (g *Digraph) Center() []int {
	comps := g.ConnectedComponents()
	if len(comps) == 0 || len(comps[0]) < 2 {
		return nil
	}
	inBig := make(map[int]bool, len(comps[0]))
	for _, u := range comps[0] {
		inBig[u] = true
	}
	radius := g.Radius()
	ecc := g.Eccentricities()
	var center []int
	for u := range ecc {
		if inBig[u] && ecc[u] == radius {
			center = append(center, u)
		}
	}
	sort.Ints(center)
	return center
}

// StronglyConnectedComponents returns the SCCs of the directed simple
// projection via Tarjan's algorithm (iterative), largest first.
func (g *Digraph) StronglyConnectedComponents() [][]int {
	adj := g.directedSimple()
	n := len(adj)
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		counter int
		stack   []int
		comps   [][]int
	)

	type frame struct {
		v, childIdx int
	}
	for start := 0; start < n; start++ {
		if index[start] != unvisited {
			continue
		}
		callStack := []frame{{v: start}}
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			v := f.v
			if f.childIdx == 0 {
				index[v] = counter
				low[v] = counter
				counter++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.childIdx < len(adj[v]) {
				w := adj[v][f.childIdx]
				f.childIdx++
				if index[w] == unvisited {
					callStack = append(callStack, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished: pop an SCC if v is a root.
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sort.Ints(comp)
				comps = append(comps, comp)
			}
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := callStack[len(callStack)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	sort.SliceStable(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}

// Degeneracy is the maximum core number (the graph's degeneracy).
func (g *Digraph) Degeneracy() int {
	best := 0
	for _, c := range g.CoreNumbersInto(nil, NewScratch()) {
		if c > best {
			best = c
		}
	}
	return best
}

// DegreeHistogram returns counts[d] = number of nodes with undirected
// simple degree d.
func (g *Digraph) DegreeHistogram() []int {
	adj := g.undirectedSimple()
	maxDeg := 0
	for u := range adj {
		if len(adj[u]) > maxDeg {
			maxDeg = len(adj[u])
		}
	}
	counts := make([]int, maxDeg+1)
	for u := range adj {
		counts[len(adj[u])]++
	}
	return counts
}

// DegreeAssortativity is the Pearson correlation of degrees across the
// undirected simple edges (Newman's assortativity coefficient). Zero for
// graphs without at least two edges or with constant degree.
func (g *Digraph) DegreeAssortativity() float64 {
	adj := g.undirectedSimple()
	var xs, ys []float64
	for u := range adj {
		for _, v := range adj[u] {
			if v > u {
				xs = append(xs, float64(len(adj[u])))
				ys = append(ys, float64(len(adj[v])))
				// Count both orientations for symmetry.
				xs = append(xs, float64(len(adj[v])))
				ys = append(ys, float64(len(adj[u])))
			}
		}
	}
	if len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var cov, vx, vy float64
	for i := range xs {
		cov += (xs[i] - mx) * (ys[i] - my)
		vx += (xs[i] - mx) * (xs[i] - mx)
		vy += (ys[i] - my) * (ys[i] - my)
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}
