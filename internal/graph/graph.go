// Package graph implements the directed-multigraph representation and the
// graph analytics that underpin DynaMiner's web conversation graph (WCG)
// features f7–f25: order, size, degree, density, volume, diameter,
// reciprocity, the centrality family (degree, closeness, betweenness, load,
// node connectivity), clustering coefficient, neighborhood statistics, and
// PageRank.
//
// The semantics of every measure follow the NetworkX definitions that the
// paper's feature names are drawn from: distance-based measures operate on
// the undirected simple projection of the multigraph, degree-based measures
// on the multigraph itself, and PageRank on the directed simple projection.
package graph

import (
	"fmt"
	"sort"
)

// Digraph is a directed multigraph over nodes 0..N-1. Parallel edges and
// self-loops are permitted; most analytics project them away as documented
// on each method. The zero value is an empty graph.
type Digraph struct {
	out [][]int // out[u] lists v for every edge u->v (with multiplicity)
	in  [][]int // in[v] lists u for every edge u->v (with multiplicity)
	m   int     // total number of edges including parallels

	// version counts mutations; Scratch uses it to invalidate cached
	// projections of this graph.
	version uint64
}

// Version returns the mutation counter, incremented by every AddNode and
// AddEdge. Two calls observing the same version see the same topology.
func (g *Digraph) Version() uint64 { return g.version }

// New returns a Digraph with n isolated nodes.
func New(n int) *Digraph {
	return &Digraph{
		out: make([][]int, n),
		in:  make([][]int, n),
	}
}

// N returns the number of nodes (the graph order).
func (g *Digraph) N() int { return len(g.out) }

// M returns the number of edges including parallel edges (the graph size).
func (g *Digraph) M() int { return g.m }

// AddNode appends a new isolated node and returns its id.
func (g *Digraph) AddNode() int {
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.version++
	return len(g.out) - 1
}

// AddEdge inserts a directed edge u->v. Parallel edges accumulate.
func (g *Digraph) AddEdge(u, v int) error {
	if u < 0 || u >= len(g.out) || v < 0 || v >= len(g.out) {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.out))
	}
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
	g.m++
	g.version++
	return nil
}

// OutDegree returns the multigraph out-degree of u.
func (g *Digraph) OutDegree(u int) int { return len(g.out[u]) }

// InDegree returns the multigraph in-degree of u.
func (g *Digraph) InDegree(u int) int { return len(g.in[u]) }

// Degree returns the total multigraph degree (in + out) of u.
func (g *Digraph) Degree(u int) int { return len(g.in[u]) + len(g.out[u]) }

// OutNeighbors returns the multiset of successors of u. The returned slice
// aliases internal storage and must not be modified.
func (g *Digraph) OutNeighbors(u int) []int { return g.out[u] }

// InNeighbors returns the multiset of predecessors of u. The returned slice
// aliases internal storage and must not be modified.
func (g *Digraph) InNeighbors(u int) []int { return g.in[u] }

// undirectedSimple returns, for each node, the sorted set of distinct
// neighbors in the undirected simple projection (parallel edges collapsed,
// self-loops removed).
func (g *Digraph) undirectedSimple() [][]int {
	n := len(g.out)
	adj := make([][]int, n)
	seen := make(map[[2]int]struct{}, g.m)
	add := func(u, v int) {
		if u == v {
			return
		}
		key := [2]int{u, v}
		if u > v {
			key = [2]int{v, u}
		}
		if _, ok := seen[key]; ok {
			return
		}
		seen[key] = struct{}{}
		adj[key[0]] = append(adj[key[0]], key[1])
		adj[key[1]] = append(adj[key[1]], key[0])
	}
	for u, vs := range g.out {
		for _, v := range vs {
			add(u, v)
		}
	}
	for u := range adj {
		sort.Ints(adj[u])
	}
	return adj
}

// directedSimple returns, for each node, the sorted set of distinct
// successors (parallel edges collapsed; self-loops removed).
func (g *Digraph) directedSimple() [][]int {
	n := len(g.out)
	adj := make([][]int, n)
	for u, vs := range g.out {
		set := make(map[int]struct{}, len(vs))
		for _, v := range vs {
			if v != u {
				set[v] = struct{}{}
			}
		}
		for v := range set {
			adj[u] = append(adj[u], v)
		}
		sort.Ints(adj[u])
	}
	return adj
}

// Density measures how close the number of simple directed edges is to the
// maximum possible: m_simple / (n*(n-1)). Zero for graphs with fewer than
// two nodes.
func (g *Digraph) Density() float64 {
	n := len(g.out)
	if n < 2 {
		return 0
	}
	simple := 0
	for _, vs := range g.directedSimple() {
		simple += len(vs)
	}
	return float64(simple) / float64(n*(n-1))
}

// Volume is the sum of multigraph degrees over all nodes (2·M).
func (g *Digraph) Volume() int { return 2 * g.m }

// AvgInDegree is the mean multigraph in-degree (M/N).
func (g *Digraph) AvgInDegree() float64 {
	if len(g.out) == 0 {
		return 0
	}
	return float64(g.m) / float64(len(g.out))
}

// AvgOutDegree is the mean multigraph out-degree (M/N). It equals
// AvgInDegree because every edge contributes to exactly one of each.
func (g *Digraph) AvgOutDegree() float64 { return g.AvgInDegree() }

// MaxDegree returns the largest multigraph degree in the graph, or zero for
// the empty graph.
func (g *Digraph) MaxDegree() int {
	best := 0
	for u := range g.out {
		if d := g.Degree(u); d > best {
			best = d
		}
	}
	return best
}

// Reciprocity is the fraction of simple directed edges (u,v) for which the
// reverse edge (v,u) also exists. Zero for edgeless graphs.
func (g *Digraph) Reciprocity() float64 {
	adj := g.directedSimple()
	has := make(map[[2]int]struct{})
	total := 0
	for u, vs := range adj {
		for _, v := range vs {
			has[[2]int{u, v}] = struct{}{}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	recip := 0
	for e := range has {
		if _, ok := has[[2]int{e[1], e[0]}]; ok {
			recip++
		}
	}
	return float64(recip) / float64(total)
}

// Mean is the arithmetic mean of xs, or zero when xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
