package graph

import (
	"math/rand"
	"testing"
)

// benchGraph builds a WCG-shaped graph: a hub (the victim) connected to
// every host, plus a redirect chain and some host-to-host edges — sized
// like the largest graphs in the corpus (hundreds of nodes).
func benchGraph(n int) *Digraph {
	rng := rand.New(rand.NewSource(1))
	g := New(n)
	for v := 1; v < n; v++ {
		_ = g.AddEdge(0, v) // request
		_ = g.AddEdge(v, 0) // response
	}
	for v := 1; v+1 < n/4; v++ {
		_ = g.AddEdge(v, v+1) // chain
	}
	for i := 0; i < n; i++ {
		_ = g.AddEdge(1+rng.Intn(n-1), 1+rng.Intn(n-1))
	}
	return g
}

// benchScratch runs fn against a warmed scratch so the numbers show the
// zero-allocation steady state of the reusable workspace.
func benchScratch(b *testing.B, fn func(g *Digraph, s *Scratch)) {
	g := benchGraph(200)
	s := NewScratch()
	s.ParallelCutoff = -1
	fn(g, s) // warm the buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(g, s)
	}
}

func BenchmarkBetweennessScratch200(b *testing.B) {
	dst := make([]float64, 0, 200)
	benchScratch(b, func(g *Digraph, s *Scratch) { dst = g.BetweennessCentralityInto(dst, s) })
}

func BenchmarkLoadCentralityScratch200(b *testing.B) {
	dst := make([]float64, 0, 200)
	benchScratch(b, func(g *Digraph, s *Scratch) { dst = g.LoadCentralityInto(dst, s) })
}

func BenchmarkClosenessScratch200(b *testing.B) {
	dst := make([]float64, 0, 200)
	benchScratch(b, func(g *Digraph, s *Scratch) { dst = g.ClosenessCentralityInto(dst, s) })
}

func BenchmarkPageRankScratch200(b *testing.B) {
	dst := make([]float64, 0, 200)
	benchScratch(b, func(g *Digraph, s *Scratch) { dst = g.PageRankInto(dst, s, 0.85, 100, 1e-10) })
}

func BenchmarkDiameterScratch200(b *testing.B) {
	benchScratch(b, func(g *Digraph, s *Scratch) { g.DiameterS(s) })
}

func BenchmarkCoreNumbersScratch200(b *testing.B) {
	core := make([]int, 0, 200)
	benchScratch(b, func(g *Digraph, s *Scratch) { core = g.CoreNumbersInto(core, s) })
}

// BenchmarkBetweennessScratchParallel200 exercises the deterministic
// ordered fan-out (bit-identical to the sequential pass by construction).
func BenchmarkBetweennessScratchParallel200(b *testing.B) {
	g := benchGraph(200)
	s := NewScratch()
	s.ParallelCutoff = 1
	dst := g.BetweennessCentralityInto(nil, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = g.BetweennessCentralityInto(dst, s)
	}
	_ = dst
}
