package features

import (
	"math"
	"sort"
	"testing"

	"dynaminer/internal/graph"
	"dynaminer/internal/httpstream"
	"dynaminer/internal/synth"
	"dynaminer/internal/wcg"
)

// plainExtract is the pre-cache extractor body, kept as the oracle:
// Summarize plus every graph measure computed from scratch on a fresh
// graph.Scratch (the graph package pins each Scratch kernel against its
// own reference implementation). The cache must reproduce its output bit
// for bit.
func plainExtract(w *wcg.WCG) []float64 {
	s := w.Summarize()
	g := w.Graph()
	sc := graph.NewScratch()
	v := make([]float64, NumFeatures)

	v[0] = boolFeature(w.OriginKnown)
	v[1] = boolFeature(s.XFlashVersionSet)
	v[2] = float64(s.Size)
	v[3] = float64(s.UniqueHosts)
	v[4] = s.AvgURIsPerHost
	v[5] = s.AvgURILength

	v[6] = float64(g.N())
	v[7] = float64(g.M())
	v[8] = float64(g.MaxDegree())
	v[9] = g.Density()
	v[10] = float64(g.Volume())
	v[11] = float64(g.DiameterS(sc))
	v[12] = g.AvgInDegree()
	v[13] = g.AvgOutDegree()
	v[14] = g.Reciprocity()
	v[15] = graph.Mean(g.DegreeCentralityInto(nil, sc))
	v[16] = graph.Mean(g.ClosenessCentralityInto(nil, sc))
	v[17] = graph.Mean(g.BetweennessCentralityInto(nil, sc))
	v[18] = graph.Mean(g.LoadCentralityInto(nil, sc))
	v[19] = float64(g.NodeConnectivityS(sc))
	v[20] = g.AvgClusteringCoefficientS(sc)
	v[21] = graph.Mean(g.AvgNeighborDegreesInto(nil, sc))
	v[22] = g.AvgDegreeConnectivityS(sc)
	v[23] = g.AvgNodesWithinKS(knnRadius, sc)
	v[24] = graph.Mean(g.PageRankInto(nil, sc, 0.85, 100, 1e-10))

	v[25] = float64(s.GETs)
	v[26] = float64(s.POSTs)
	v[27] = float64(s.OtherMethods)
	v[28] = float64(s.HTTP10X)
	v[29] = float64(s.HTTP20X)
	v[30] = float64(s.HTTP30X)
	v[31] = float64(s.HTTP40X)
	v[32] = float64(s.HTTP50X)
	v[33] = float64(s.RefererSet)
	v[34] = float64(s.RefererEmpty)

	reqs := s.GETs + s.POSTs + s.OtherMethods
	if reqs > 0 {
		v[35] = s.Duration.Seconds() / float64(reqs)
	}
	v[36] = s.AvgInterTransact.Seconds()
	return v
}

func byTime(txs []httpstream.Transaction) []httpstream.Transaction {
	ordered := make([]httpstream.Transaction, len(txs))
	copy(ordered, txs)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].ReqTime.Before(ordered[j].ReqTime) })
	return ordered
}

func requireSameVector(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", ctx, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: feature %d (%s) = %v, want %v (bitwise)", ctx, i, Name(i), got[i], want[i])
		}
	}
}

// TestCacheMatchesPlainExtractIncrementally streams synthetic episodes
// through an incremental builder, syncing a single Cache after every
// append, and checks the cached vector is bit-identical to the plain
// extractor run from scratch on the same prefix.
func TestCacheMatchesPlainExtractIncrementally(t *testing.T) {
	episodes := synth.GenerateCorpus(synth.Config{Seed: 29, Infections: 6, Benign: 5})
	scratch := graph.NewScratch()
	for ei, ep := range episodes {
		txs := byTime(ep.Txs)
		ib := wcg.NewIncrementalBuilder()
		cache := NewCache(ib.Live(), scratch)
		var buf []float64
		for i, tx := range txs {
			if !ib.Append(tx) {
				t.Fatalf("episode %d: in-order append %d rejected", ei, i)
			}
			buf = cache.FeaturesInto(buf)
			want := plainExtract(wcg.FromTransactions(txs[:i+1]))
			requireSameVector(t, ep.Family, buf, want)
		}
	}
}

// TestExtractMatchesPlainExtract pins that the refactored one-shot
// Extract reproduces the original extractor bit for bit on whole WCGs.
func TestExtractMatchesPlainExtract(t *testing.T) {
	episodes := synth.GenerateCorpus(synth.Config{Seed: 41, Infections: 5, Benign: 5})
	for _, ep := range episodes {
		w := wcg.FromTransactions(ep.Txs)
		requireSameVector(t, ep.Family, Extract(w), plainExtract(w))
	}
}

// TestCacheSkipsTopologyWhenStructUnchanged checks the dirty tracking:
// appends that add only parallel edges must not trigger a topology
// recompute, and must still produce correct vectors.
func TestCacheSkipsTopologyWhenStructUnchanged(t *testing.T) {
	episodes := synth.GenerateCorpus(synth.Config{Seed: 13, Infections: 2, Benign: 2})
	for ei, ep := range episodes {
		txs := byTime(ep.Txs)
		ib := wcg.NewIncrementalBuilder()
		cache := NewCache(ib.Live(), nil)
		recomputes := 0
		var lastVer uint64
		for i, tx := range txs {
			ib.Append(tx)
			cache.Features()
			if v := ib.Live().StructVersion(); i == 0 || v != lastVer {
				recomputes++
				lastVer = v
			}
		}
		// A transaction against an already-seen host pair adds parallel
		// edges without moving StructVersion; every episode longer than
		// its host set must therefore skip at least one recompute.
		if len(txs) > 0 && recomputes > len(txs) {
			t.Fatalf("episode %d: %d recomputes for %d transactions", ei, recomputes, len(txs))
		}
		// Regardless of skips, the final vector matches from-scratch.
		requireSameVector(t, "final", cache.Features(), plainExtract(wcg.FromTransactions(txs)))
	}
}

// TestCacheEmptyWCG pins the all-zero vector on an empty graph, through
// both the cache and the one-shot Extract.
func TestCacheEmptyWCG(t *testing.T) {
	w := wcg.FromTransactions(nil)
	for i, v := range NewCache(w, nil).Features() {
		if v != 0 {
			t.Fatalf("feature %d (%s) = %v on empty WCG", i, Name(i), v)
		}
	}
}
