package graph

import "sort"

// This file holds the reference implementations the Scratch kernels are
// checked against (checkScratchMatches): plain, allocating,
// straight-from-the-definition bodies over the map-free simple
// projections. They are test-only — the build carries one body per
// kernel, the Scratch form — and each must stay bit-identical to its
// Scratch twin: same arithmetic in the same order.

// refDegreeCentrality returns, for every node, its undirected simple degree
// normalized by n-1 (the NetworkX convention). For graphs with fewer than
// two nodes all values are zero.
func refDegreeCentrality(g *Digraph) []float64 {
	adj := g.undirectedSimple()
	n := len(adj)
	cent := make([]float64, n)
	if n < 2 {
		return cent
	}
	norm := 1 / float64(n-1)
	for u := range adj {
		cent[u] = float64(len(adj[u])) * norm
	}
	return cent
}

// refClosenessCentrality returns the improved (Wasserman–Faust) closeness for
// every node on the undirected simple projection:
//
//	C(u) = ((r-1)/(n-1)) * ((r-1)/Σ d(u,v))
//
// where r is the number of nodes reachable from u. Isolated nodes score 0.
func refClosenessCentrality(g *Digraph) []float64 {
	adj := g.undirectedSimple()
	n := len(adj)
	cent := make([]float64, n)
	if n < 2 {
		return cent
	}
	for u := range adj {
		sum, reach := 0, 0
		for _, d := range bfsDistances(adj, u) {
			if d > 0 {
				sum += d
				reach++
			}
		}
		if sum > 0 {
			frac := float64(reach) / float64(n-1)
			cent[u] = frac * float64(reach) / float64(sum)
		}
	}
	return cent
}

// refBetweennessCentrality computes exact shortest-path betweenness on the
// undirected simple projection using Brandes' algorithm, normalized by
// 2/((n-1)(n-2)) so values are comparable across graph sizes.
func refBetweennessCentrality(g *Digraph) []float64 {
	adj := g.undirectedSimple()
	n := len(adj)
	cent := make([]float64, n)
	if n < 3 {
		return cent
	}
	sigma := make([]float64, n)
	dist := make([]int, n)
	delta := make([]float64, n)
	preds := make([][]int, n)
	stack := make([]int, 0, n)
	queue := make([]int, 0, n)

	for s := 0; s < n; s++ {
		stack = stack[:0]
		queue = queue[:0]
		for i := 0; i < n; i++ {
			sigma[i] = 0
			dist[i] = -1
			delta[i] = 0
			preds[i] = preds[i][:0]
		}
		sigma[s] = 1
		dist[s] = 0
		queue = append(queue, s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			stack = append(stack, v)
			for _, w := range adj[v] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					preds[w] = append(preds[w], v)
				}
			}
		}
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			for _, v := range preds[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if w != s {
				cent[w] += delta[w]
			}
		}
	}
	// Undirected: every pair was counted twice; normalize to [0,1].
	norm := 1 / (float64(n-1) * float64(n-2))
	for i := range cent {
		cent[i] *= norm
	}
	return cent
}

// refLoadCentrality computes Goh-style load centrality on the undirected
// simple projection: a unit commodity is routed from every source to every
// other node along shortest paths, splitting equally among the predecessors
// at each branch, and each node accumulates the load passing through it.
// Values are normalized by 2/((n-1)(n-2)) to match NetworkX.
func refLoadCentrality(g *Digraph) []float64 {
	adj := g.undirectedSimple()
	n := len(adj)
	cent := make([]float64, n)
	if n < 3 {
		return cent
	}
	for s := 0; s < n; s++ {
		dist := bfsDistances(adj, s)
		// Order nodes by decreasing distance from s.
		order := make([]int, 0, n)
		for v, d := range dist {
			if d > 0 {
				order = append(order, v)
			}
		}
		for i := 1; i < len(order); i++ {
			for j := i; j > 0 && dist[order[j]] > dist[order[j-1]]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		load := make([]float64, n)
		for v := range load {
			if dist[v] > 0 {
				load[v] = 1 // each node must receive one unit from s
			}
		}
		for _, w := range order {
			var preds []int
			for _, v := range adj[w] {
				if dist[v] >= 0 && dist[v] == dist[w]-1 {
					preds = append(preds, v)
				}
			}
			if len(preds) == 0 {
				continue
			}
			share := load[w] / float64(len(preds))
			for _, v := range preds {
				if v != s {
					cent[v] += share
				}
				load[v] += share
			}
		}
	}
	norm := 1 / (float64(n-1) * float64(n-2))
	for i := range cent {
		cent[i] *= norm
	}
	return cent
}

// refPageRank computes PageRank with damping factor d over the directed simple
// projection using power iteration (up to iters rounds, stopping early when
// the L1 change drops below tol). Dangling mass is redistributed uniformly.
func refPageRank(g *Digraph, d float64, iters int, tol float64) []float64 {
	adj := g.directedSimple()
	n := len(adj)
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	inv := 1 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	for it := 0; it < iters; it++ {
		dangling := 0.0
		for u := range adj {
			if len(adj[u]) == 0 {
				dangling += rank[u]
			}
		}
		base := (1-d)*inv + d*dangling*inv
		for i := range next {
			next[i] = base
		}
		for u, vs := range adj {
			if len(vs) == 0 {
				continue
			}
			share := d * rank[u] / float64(len(vs))
			for _, v := range vs {
				next[v] += share
			}
		}
		diff := 0.0
		for i := range rank {
			delta := next[i] - rank[i]
			if delta < 0 {
				delta = -delta
			}
			diff += delta
		}
		rank, next = next, rank
		if diff < tol {
			break
		}
	}
	return rank
}

// refNodeConnectivity is the minimum number of nodes whose removal disconnects
// the undirected simple projection (or isolates a node), computed exactly
// via vertex-split max-flow between a fixed source and every non-neighbor,
// plus neighbor-of-source pairs — the standard exact algorithm. It returns
// 0 for disconnected graphs and n-1 for complete graphs.
func refNodeConnectivity(g *Digraph) int {
	adj := g.undirectedSimple()
	n := len(adj)
	if n < 2 {
		return 0
	}
	if !g.IsConnected() {
		return 0
	}
	// Complete graph: connectivity is n-1 and no vertex cut exists.
	complete := true
	for u := range adj {
		if len(adj[u]) != n-1 {
			complete = false
			break
		}
	}
	if complete {
		return n - 1
	}
	// Pick a minimum-degree node as the fixed endpoint.
	s := 0
	for u := range adj {
		if len(adj[u]) < len(adj[s]) {
			s = u
		}
	}
	best := n // upper bound
	isNbr := make([]bool, n)
	for _, v := range adj[s] {
		isNbr[v] = true
	}
	for t := 0; t < n; t++ {
		if t == s || isNbr[t] {
			continue
		}
		if k := refLocalNodeConnectivity(adj, s, t); k < best {
			best = k
		}
	}
	// Also consider cuts separating neighbors of s from each other.
	for _, v := range adj[s] {
		vNbr := make(map[int]bool, len(adj[v]))
		for _, w := range adj[v] {
			vNbr[w] = true
		}
		for t := 0; t < n; t++ {
			if t == v || t == s || vNbr[t] {
				continue
			}
			if k := refLocalNodeConnectivity(adj, v, t); k < best {
				best = k
			}
		}
	}
	if best == n {
		best = n - 1
	}
	return best
}

// refLocalNodeConnectivity runs the vertex-split max-flow
// (localNodeConnectivityS) on a fresh workspace.
func refLocalNodeConnectivity(adj [][]int, s, t int) int {
	var ws flowWS
	return localNodeConnectivityS(adj, s, t, &ws)
}

// refClusteringCoefficients returns the local clustering coefficient of every
// node on the undirected simple projection: the fraction of pairs of a
// node's neighbors that are themselves adjacent. Nodes with degree < 2
// score zero.
func refClusteringCoefficients(g *Digraph) []float64 {
	adj := g.undirectedSimple()
	n := len(adj)
	coeff := make([]float64, n)
	isNbr := make([]bool, n)
	for u := range adj {
		k := len(adj[u])
		if k < 2 {
			continue
		}
		for _, v := range adj[u] {
			isNbr[v] = true
		}
		links := 0
		for _, v := range adj[u] {
			for _, w := range adj[v] {
				if w > v && isNbr[w] {
					links++
				}
			}
		}
		for _, v := range adj[u] {
			isNbr[v] = false
		}
		coeff[u] = 2 * float64(links) / (float64(k) * float64(k-1))
	}
	return coeff
}

// refAvgClusteringCoefficient is the mean local clustering coefficient (f21).
func refAvgClusteringCoefficient(g *Digraph) float64 {
	return Mean(refClusteringCoefficients(g))
}

// refAvgNeighborDegrees returns, for each node, the mean undirected simple
// degree of its neighbors (f22). Isolated nodes score zero.
func refAvgNeighborDegrees(g *Digraph) []float64 {
	adj := g.undirectedSimple()
	vals := make([]float64, len(adj))
	for u := range adj {
		if len(adj[u]) == 0 {
			continue
		}
		sum := 0
		for _, v := range adj[u] {
			sum += len(adj[v])
		}
		vals[u] = float64(sum) / float64(len(adj[u]))
	}
	return vals
}

// refAverageDegreeConnectivity returns the NetworkX-style map from degree k to
// the average neighbor degree over all nodes of degree k, computed on the
// undirected simple projection (f23).
func refAverageDegreeConnectivity(g *Digraph) map[int]float64 {
	adj := g.undirectedSimple()
	sums := make(map[int]float64)
	counts := make(map[int]int)
	for u := range adj {
		k := len(adj[u])
		if k == 0 {
			continue
		}
		sum := 0
		for _, v := range adj[u] {
			sum += len(adj[v])
		}
		sums[k] += float64(sum) / float64(k)
		counts[k]++
	}
	out := make(map[int]float64, len(sums))
	for k, s := range sums {
		out[k] = s / float64(counts[k])
	}
	return out
}

// refAvgDegreeConnectivity collapses refAverageDegreeConnectivity to a scalar by
// averaging the per-degree values, giving "average degree for connected
// nodes" (f23) as a single feature.
func refAvgDegreeConnectivity(g *Digraph) float64 {
	m := refAverageDegreeConnectivity(g)
	if len(m) == 0 {
		return 0
	}
	// Sum in ascending-degree order: float addition is not associative,
	// so map iteration order would make the low bits nondeterministic.
	degrees := make([]int, 0, len(m))
	for k := range m {
		degrees = append(degrees, k)
	}
	sort.Ints(degrees)
	sum := 0.0
	for _, k := range degrees {
		sum += m[k]
	}
	return sum / float64(len(m))
}

// refDiameter is the longest shortest-path distance between any pair of nodes
// in the undirected simple projection. For disconnected graphs it is the
// maximum eccentricity over reachable pairs (the diameter of the largest
// component by eccentricity), so it stays finite and comparable between
// WCGs, which are frequently weakly connected but occasionally fragmented.
func refDiameter(g *Digraph) int {
	adj := g.undirectedSimple()
	best := 0
	for src := range adj {
		for _, d := range bfsDistances(adj, src) {
			if d > best {
				best = d
			}
		}
	}
	return best
}

// refNodesWithinK returns, for each node, the number of other nodes whose
// undirected shortest-path distance is at most k. This backs feature f24
// (Avg-K-Nearest-Neighbors): "average number of nodes at k-nodes distance
// from each node".
func refNodesWithinK(g *Digraph, k int) []int {
	adj := g.undirectedSimple()
	counts := make([]int, len(adj))
	for src := range adj {
		for v, d := range bfsDistances(adj, src) {
			if v != src && d > 0 && d <= k {
				counts[src]++
			}
		}
	}
	return counts
}

// refAvgNodesWithinK is the mean of refNodesWithinK over all nodes; zero for the
// empty graph.
func refAvgNodesWithinK(g *Digraph, k int) float64 {
	counts := refNodesWithinK(g, k)
	if len(counts) == 0 {
		return 0
	}
	sum := 0
	for _, c := range counts {
		sum += c
	}
	return float64(sum) / float64(len(counts))
}

// refCoreNumbers returns the k-core number of every node in the undirected
// simple projection: the largest k such that the node belongs to a
// subgraph where every node has degree >= k (Batagelj-Zaveršnik peeling).
func refCoreNumbers(g *Digraph) []int {
	adj := g.undirectedSimple()
	n := len(adj)
	deg := make([]int, n)
	maxDeg := 0
	for u := range adj {
		deg[u] = len(adj[u])
		if deg[u] > maxDeg {
			maxDeg = deg[u]
		}
	}
	// Bucket sort nodes by degree.
	bins := make([]int, maxDeg+2)
	for _, d := range deg {
		bins[d]++
	}
	startIdx := 0
	for d := 0; d <= maxDeg; d++ {
		count := bins[d]
		bins[d] = startIdx
		startIdx += count
	}
	pos := make([]int, n)
	vert := make([]int, n)
	for u := 0; u < n; u++ {
		pos[u] = bins[deg[u]]
		vert[pos[u]] = u
		bins[deg[u]]++
	}
	for d := maxDeg; d > 0; d-- {
		bins[d] = bins[d-1]
	}
	bins[0] = 0

	core := make([]int, n)
	copy(core, deg)
	for i := 0; i < n; i++ {
		v := vert[i]
		for _, u := range adj[v] {
			if core[u] > core[v] {
				// Move u one bucket down.
				du := core[u]
				pu := pos[u]
				pw := bins[du]
				w := vert[pw]
				if u != w {
					pos[u], pos[w] = pw, pu
					vert[pu], vert[pw] = w, u
				}
				bins[du]++
				core[u]--
			}
		}
	}
	return core
}
