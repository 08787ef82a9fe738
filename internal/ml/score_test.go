package ml

import (
	"math"
	"math/rand"
	"testing"
)

func scoreTestForest(t *testing.T, samples int) (*FlatForest, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	X := make([][]float64, samples)
	y := make([]int, samples)
	for i := range X {
		x := make([]float64, 6)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		if x[0]+x[1] > 0 {
			y[i] = LabelInfection
			x[2] += 1.5
		}
		X[i] = x
	}
	f, err := TrainForest(&Dataset{X: X, Y: y}, ForestConfig{NumTrees: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return f, X
}

// TestScoresParallelMatchesSequential pins ScoreBatchParallel
// bit-identical to sequential per-sample Score across worker counts, above
// and below the sequential cutoff.
func TestScoresParallelMatchesSequential(t *testing.T) {
	for _, samples := range []int{10, scoresParallelCutoff + 300} {
		f, X := scoreTestForest(t, samples)
		for _, workers := range []int{0, 1, 2, 3, 8} {
			got := f.ScoreBatchParallel(X, workers)
			if len(got) != len(X) {
				t.Fatalf("workers=%d: %d scores, want %d", workers, len(got), len(X))
			}
			for i, x := range X {
				if want := f.Score(x); math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("workers=%d sample %d: %v != %v", workers, i, got[i], want)
				}
			}
		}
	}
}

// TestScoreIntoReusesBuffer checks ScoreBatch grows its destination only
// when needed, reuses a sufficient one without allocating, and writes the
// same scores as per-sample Score.
func TestScoreIntoReusesBuffer(t *testing.T) {
	f, X := scoreTestForest(t, 50)
	buf := make([]float64, 0, len(X))
	out := f.ScoreBatch(buf, X)
	if &out[0] != &buf[:1][0] {
		t.Fatal("ScoreBatch reallocated despite sufficient capacity")
	}
	for i, x := range X {
		if want := f.Score(x); math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("sample %d: %v != %v", i, out[i], want)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		buf = f.ScoreBatch(buf, X)
	})
	if allocs != 0 {
		t.Fatalf("ScoreBatch with warm buffer allocated %.1f times per run", allocs)
	}
	// Short destinations grow.
	short := make([]float64, 2)
	if got := f.ScoreBatch(short, X); len(got) != len(X) {
		t.Fatalf("ScoreBatch returned %d scores, want %d", len(got), len(X))
	}
}
