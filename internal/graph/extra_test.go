package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEccentricitiesAndRadius(t *testing.T) {
	// Path 0-1-2-3-4: eccentricities 4,3,2,3,4; radius 2; center {2}.
	g := pathGraph(5)
	ecc := g.Eccentricities()
	want := []int{4, 3, 2, 3, 4}
	for i, w := range want {
		if ecc[i] != w {
			t.Fatalf("ecc[%d] = %d, want %d", i, ecc[i], w)
		}
	}
	if g.Radius() != 2 {
		t.Fatalf("radius = %d, want 2", g.Radius())
	}
	center := g.Center()
	if len(center) != 1 || center[0] != 2 {
		t.Fatalf("center = %v, want [2]", center)
	}
	// Star: hub eccentricity 1, leaves 2; radius 1; center = hub.
	s := starGraph(4)
	if s.Radius() != 1 {
		t.Fatalf("star radius = %d", s.Radius())
	}
	if c := s.Center(); len(c) != 1 || c[0] != 0 {
		t.Fatalf("star center = %v", c)
	}
}

func TestRadiusEdgeCases(t *testing.T) {
	if New(0).Radius() != 0 || New(1).Radius() != 0 {
		t.Fatal("tiny graph radius must be 0")
	}
	if New(1).Center() != nil {
		t.Fatal("tiny graph center must be nil")
	}
	// Disconnected: radius comes from the largest component.
	g := New(5)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(3, 4)
	if g.Radius() != 1 {
		t.Fatalf("disconnected radius = %d, want 1 (path of 3)", g.Radius())
	}
}

func TestStronglyConnectedComponents(t *testing.T) {
	// Cycle 0->1->2->0 plus tail 2->3->4.
	g := New(5)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(2, 0)
	_ = g.AddEdge(2, 3)
	_ = g.AddEdge(3, 4)
	comps := g.StronglyConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("sccs = %d, want 3: %v", len(comps), comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 || comps[0][2] != 2 {
		t.Fatalf("largest scc = %v, want [0 1 2]", comps[0])
	}
	// A DAG has only singleton SCCs.
	dag := pathGraph(4)
	if got := len(dag.StronglyConnectedComponents()); got != 4 {
		t.Fatalf("dag sccs = %d, want 4", got)
	}
	// Two interlocking cycles merge into one SCC.
	g2 := cycleGraph(4)
	_ = g2.AddEdge(2, 1)
	if got := g2.StronglyConnectedComponents(); len(got) != 1 || len(got[0]) != 4 {
		t.Fatalf("merged scc = %v", got)
	}
}

func TestSCCCoversAllNodes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(15)
		g := randomGraph(n, r.Intn(4*n), r)
		seen := make(map[int]int)
		for _, comp := range g.StronglyConnectedComponents() {
			for _, u := range comp {
				seen[u]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCoreNumbers(t *testing.T) {
	// Complete graph K4: every node has core number 3.
	for _, c := range completeGraph(4).CoreNumbersInto(nil, NewScratch()) {
		if c != 3 {
			t.Fatalf("K4 core = %d, want 3", c)
		}
	}
	// Path: all core 1.
	for _, c := range pathGraph(5).CoreNumbersInto(nil, NewScratch()) {
		if c != 1 {
			t.Fatalf("path core = %d, want 1", c)
		}
	}
	// Triangle plus pendant: triangle cores 2, pendant 1.
	g := completeGraph(3)
	p := g.AddNode()
	_ = g.AddEdge(0, p)
	cores := g.CoreNumbersInto(nil, NewScratch())
	if cores[0] != 2 || cores[1] != 2 || cores[2] != 2 || cores[3] != 1 {
		t.Fatalf("cores = %v", cores)
	}
	if g.Degeneracy() != 2 {
		t.Fatalf("degeneracy = %d", g.Degeneracy())
	}
}

func TestCoreNumbersBoundedByDegree(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		g := randomGraph(n, r.Intn(5*n), r)
		adj := g.undirectedSimple()
		for u, c := range g.CoreNumbersInto(nil, NewScratch()) {
			if c > len(adj[u]) || c < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeHistogram(t *testing.T) {
	h := starGraph(4).DegreeHistogram()
	// 4 leaves of degree 1, 1 hub of degree 4.
	if h[1] != 4 || h[4] != 1 {
		t.Fatalf("histogram = %v", h)
	}
	total := 0
	for _, c := range h {
		total += c
	}
	if total != 5 {
		t.Fatalf("histogram sums to %d", total)
	}
}

func TestDegreeAssortativity(t *testing.T) {
	// Star graphs are maximally disassortative: coefficient -1.
	if a := starGraph(5).DegreeAssortativity(); math.Abs(a+1) > 1e-9 {
		t.Fatalf("star assortativity = %v, want -1", a)
	}
	// Regular graphs have undefined correlation; we return 0.
	if a := cycleGraph(6).DegreeAssortativity(); a != 0 {
		t.Fatalf("cycle assortativity = %v, want 0", a)
	}
	// Range check on random graphs.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(3+r.Intn(15), r.Intn(40), r)
		a := g.DegreeAssortativity()
		return a >= -1-1e-9 && a <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
