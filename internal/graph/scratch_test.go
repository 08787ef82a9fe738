package graph

import (
	"math"
	"math/rand"
	"testing"
)

// randomGraph builds a seeded random multigraph with parallel edges and
// self-loops, the shapes the scratch projections must collapse exactly like
// the map-based originals.
func randomMultigraph(rng *rand.Rand, n, edges int) *Digraph {
	g := New(n)
	for i := 0; i < edges; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if rng.Intn(10) == 0 {
			v = u // occasional self-loop
		}
		if err := g.AddEdge(u, v); err != nil {
			panic(err)
		}
	}
	return g
}

// sameFloats asserts bitwise equality — the scratch variants promise the
// identical arithmetic in the identical order, not just approximation.
func sameFloats(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v (bits %x) != %v (bits %x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func sameScalar(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: %v != %v", name, got, want)
	}
}

// checkScratchMatches runs every Scratch kernel against its reference
// implementation (oracle_test.go) on g, reusing s across calls.
func checkScratchMatches(t *testing.T, g *Digraph, s *Scratch) {
	t.Helper()
	if got, want := g.DiameterS(s), refDiameter(g); got != want {
		t.Fatalf("DiameterS = %d, want %d", got, want)
	}
	sameFloats(t, "DegreeCentrality", g.DegreeCentralityInto(nil, s), refDegreeCentrality(g))
	sameFloats(t, "ClosenessCentrality", g.ClosenessCentralityInto(nil, s), refClosenessCentrality(g))
	sameFloats(t, "BetweennessCentrality", g.BetweennessCentralityInto(nil, s), refBetweennessCentrality(g))
	sameFloats(t, "LoadCentrality", g.LoadCentralityInto(nil, s), refLoadCentrality(g))
	if got, want := g.NodeConnectivityS(s), refNodeConnectivity(g); got != want {
		t.Fatalf("NodeConnectivityS = %d, want %d", got, want)
	}
	sameScalar(t, "AvgClusteringCoefficient", g.AvgClusteringCoefficientS(s), refAvgClusteringCoefficient(g))
	sameFloats(t, "AvgNeighborDegrees", g.AvgNeighborDegreesInto(nil, s), refAvgNeighborDegrees(g))
	sameScalar(t, "AvgDegreeConnectivity", g.AvgDegreeConnectivityS(s), refAvgDegreeConnectivity(g))
	sameScalar(t, "AvgNodesWithinK", g.AvgNodesWithinKS(2, s), refAvgNodesWithinK(g, 2))
	sameFloats(t, "PageRank", g.PageRankInto(nil, s, 0.85, 100, 1e-10), refPageRank(g, 0.85, 100, 1e-10))
	gotCore := g.CoreNumbersInto(nil, s)
	wantCore := refCoreNumbers(g)
	for i := range wantCore {
		if gotCore[i] != wantCore[i] {
			t.Fatalf("CoreNumbers[%d] = %d, want %d", i, gotCore[i], wantCore[i])
		}
	}
}

func TestScratchMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := NewScratch()
	s.ParallelCutoff = -1 // sequential path
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(40)
		g := randomMultigraph(rng, n, rng.Intn(4*n))
		checkScratchMatches(t, g, s)
	}
}

func TestScratchMatchesPlainParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	s := NewScratch()
	s.ParallelCutoff = 1 // force the fan-out even on tiny graphs
	s.Workers = 4
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(80)
		g := randomMultigraph(rng, n, rng.Intn(5*n))
		checkScratchMatches(t, g, s)
	}
}

// TestScratchParallelDeterministic pins the contract that the fan-out's
// chunked accumulation gives bit-identical results regardless of worker
// count — the parallel path must not perturb feature values.
func TestScratchParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomMultigraph(rng, 150, 600)
	seq := NewScratch()
	seq.ParallelCutoff = -1
	wantB := g.BetweennessCentralityInto(nil, seq)
	wantL := g.LoadCentralityInto(nil, seq)
	wantC := g.ClosenessCentralityInto(nil, seq)
	for _, workers := range []int{1, 2, 3, 8} {
		par := NewScratch()
		par.ParallelCutoff = 1
		par.Workers = workers
		sameFloats(t, "betweenness", g.BetweennessCentralityInto(nil, par), wantB)
		sameFloats(t, "load", g.LoadCentralityInto(nil, par), wantL)
		sameFloats(t, "closeness", g.ClosenessCentralityInto(nil, par), wantC)
	}
}

// TestScratchInvalidation mutates the graph between calls and checks the
// cached projection is rebuilt, including across distinct graphs sharing
// one scratch.
func TestScratchInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := NewScratch()
	s.ParallelCutoff = -1
	g := randomMultigraph(rng, 10, 20)
	checkScratchMatches(t, g, s)
	for i := 0; i < 15; i++ {
		if rng.Intn(4) == 0 {
			g.AddNode()
		} else {
			n := g.N()
			if err := g.AddEdge(rng.Intn(n), rng.Intn(n)); err != nil {
				t.Fatal(err)
			}
		}
		checkScratchMatches(t, g, s)
	}
	// Switch to a different graph mid-stream.
	h := randomMultigraph(rng, 25, 70)
	checkScratchMatches(t, h, s)
	checkScratchMatches(t, g, s)
}

func TestScratchTinyGraphs(t *testing.T) {
	s := NewScratch()
	for _, n := range []int{0, 1, 2} {
		g := New(n)
		if n == 2 {
			if err := g.AddEdge(0, 1); err != nil {
				t.Fatal(err)
			}
		}
		checkScratchMatches(t, g, s)
	}
}

// TestScratchSteadyStateAllocs pins the zero-allocation contract for the
// sequential analytics passes once the workspace has warmed up on a graph
// of the same size.
func TestScratchSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomMultigraph(rng, 60, 200)
	h := randomMultigraph(rng, 60, 210)
	s := NewScratch()
	s.ParallelCutoff = -1
	dst := make([]float64, 0, g.N())
	core := make([]int, 0, g.N())
	all := func(g *Digraph) {
		g.DiameterS(s)
		dst = g.BetweennessCentralityInto(dst, s)
		dst = g.LoadCentralityInto(dst, s)
		dst = g.ClosenessCentralityInto(dst, s)
		dst = g.DegreeCentralityInto(dst, s)
		dst = g.AvgNeighborDegreesInto(dst, s)
		dst = g.PageRankInto(dst, s, 0.85, 100, 1e-10)
		core = g.CoreNumbersInto(core, s)
		g.AvgClusteringCoefficientS(s)
		g.AvgDegreeConnectivityS(s)
		g.AvgNodesWithinKS(2, s)
	}
	all(g) // warm up every buffer
	all(h)
	allocs := testing.AllocsPerRun(20, func() {
		// Alternating graphs forces a full projection rebuild per call,
		// the incremental steady state, with no fresh allocations.
		all(g)
		all(h)
	})
	if allocs > 0.5 {
		t.Fatalf("steady-state analytics allocated %.1f objects/run, want 0", allocs)
	}
}
