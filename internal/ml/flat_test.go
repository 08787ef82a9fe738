package ml

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// flatDiffConfigs are the seeded forest shapes the differential suite pins
// the trained FlatForest against the pointer trees of the same training
// run (refTrain) on: shallow and deep trees, single tree and full
// ensemble, restricted and unrestricted feature sampling.
var flatDiffConfigs = []ForestConfig{
	{NumTrees: 1, Seed: 1},
	{NumTrees: 5, Seed: 7, MaxDepth: 3},
	{NumTrees: 20, Seed: 2},
	{NumTrees: 20, Seed: 3, MaxFeatures: 2, MinSamplesLeaf: 4},
	{NumTrees: 9, Seed: 11, MaxDepth: 1},
}

func probeVectors(n, dim int, rng *rand.Rand) [][]float64 {
	X := make([][]float64, n)
	for i := range X {
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.NormFloat64() * 2
		}
		X[i] = x
	}
	return X
}

// TestFlatForestDifferential pins the trained flat forest against the
// reference walk over the pointer trees it was flattened from,
// bit-for-bit: scores (math.Float64bits), vote tallies, predictions and
// batch scoring, across every seeded config.
func TestFlatForestDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const dim = 8
	ds := gaussDataset(300, dim, 4, 1.2, rng)
	X := probeVectors(500, dim, rng)
	for _, cfg := range flatDiffConfigs {
		ref, err := refTrain(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ff, err := TrainForest(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ff.NumTrees() != len(ref.trees) || ff.NumFeatures() != ref.nf {
			t.Fatalf("cfg %+v: shape mismatch: %d/%d trees, %d/%d features",
				cfg, ff.NumTrees(), len(ref.trees), ff.NumFeatures(), ref.nf)
		}
		want := make([]float64, len(X))
		for i, x := range X {
			want[i] = ref.Score(x)
			got := ff.Score(x)
			if math.Float64bits(got) != math.Float64bits(want[i]) {
				t.Fatalf("cfg %+v probe %d: flat score %v != reference score %v", cfg, i, got, want[i])
			}
			ps, pv, pt := ref.ScoreWithVotes(x)
			fs, fv, ft := ff.ScoreWithVotes(x)
			if math.Float64bits(fs) != math.Float64bits(ps) || fv != pv || ft != pt {
				t.Fatalf("cfg %+v probe %d: votes (%v,%d,%d) != (%v,%d,%d)", cfg, i, fs, fv, ft, ps, pv, pt)
			}
			wantPred := LabelBenign
			if want[i] > 0.5 {
				wantPred = LabelInfection
			}
			if ff.Predict(x) != wantPred {
				t.Fatalf("cfg %+v probe %d: prediction disagrees with score %v", cfg, i, want[i])
			}
		}
		batch := ff.ScoreBatch(nil, X)
		for i := range batch {
			if math.Float64bits(batch[i]) != math.Float64bits(want[i]) {
				t.Fatalf("cfg %+v: ScoreBatch[%d] = %v, want %v", cfg, i, batch[i], want[i])
			}
		}
	}
}

// TestScoreWithVotesMatchesTreePredict pins the vote rule the voting
// ablation relies on: ScoreWithVotes counts a tree when its leaf's
// infection probability exceeds 0.5, which for trained leaves (p1 = c1/n,
// p0 = c0/n) is exactly the per-tree majority class predictTree reports.
func TestScoreWithVotesMatchesTreePredict(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const dim = 8
	ds := gaussDataset(300, dim, 4, 1.2, rng)
	X := probeVectors(2000, dim, rng)
	for _, cfg := range flatDiffConfigs {
		ref, err := refTrain(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ff, err := TrainForest(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range X {
			want := 0
			for _, tree := range ref.trees {
				if predictTree(tree, x) == LabelInfection {
					want++
				}
			}
			if _, votes, trees := ff.ScoreWithVotes(x); votes != want || trees != len(ref.trees) {
				t.Fatalf("cfg %+v probe %d: %d/%d votes, per-tree Predict counts %d/%d",
					cfg, i, votes, trees, want, len(ref.trees))
			}
		}
	}
}

// TestFlatForestSerializedRoundTrip pins the artifact-format contract:
// FlatForest.Save is byte-identical to the reference recursive writer over
// the same training run's pointer trees, and both the loader and the
// reference decoder read it back to bit-identical scores.
func TestFlatForestSerializedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const dim = 7
	ds := gaussDataset(200, dim, 3, 1.5, rng)
	X := probeVectors(200, dim, rng)
	for _, cfg := range flatDiffConfigs {
		ref, err := refTrain(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ff, err := TrainForest(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var rbuf, fbuf bytes.Buffer
		if err := ref.refSave(&rbuf, cfg); err != nil {
			t.Fatal(err)
		}
		if err := ff.Save(&fbuf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rbuf.Bytes(), fbuf.Bytes()) {
			t.Fatalf("cfg %+v: flat Save output differs from the reference writer", cfg)
		}
		loadedFlat, err := LoadFlatForest(bytes.NewReader(fbuf.Bytes()))
		if err != nil {
			t.Fatalf("cfg %+v: LoadFlatForest: %v", cfg, err)
		}
		loadedRef, err := refLoadForest(bytes.NewReader(fbuf.Bytes()))
		if err != nil {
			t.Fatalf("cfg %+v: refLoadForest: %v", cfg, err)
		}
		for i, x := range X {
			want := ref.Score(x)
			if got := loadedFlat.Score(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cfg %+v probe %d: loaded flat score %v != %v", cfg, i, got, want)
			}
			if got := loadedRef.Score(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cfg %+v probe %d: reference-decoded score %v != %v", cfg, i, got, want)
			}
		}
	}
}

// TestScoreBatchParallel pins the parallel batch kernel against the
// sequential one across worker counts (tier2 runs this under -race).
func TestScoreBatchParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const dim = 6
	ds := gaussDataset(240, dim, 3, 1.3, rng)
	ff, err := TrainForest(ds, ForestConfig{NumTrees: 11, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	X := probeVectors(scoresParallelCutoff*4+37, dim, rng)
	want := ff.ScoreBatch(nil, X)
	for _, workers := range []int{0, 1, 2, 3, 8} {
		got := ff.ScoreBatchParallel(X, workers)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: sample %d: %v != %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestScoreBatchReusesDst pins the zero-alloc contract of the pooled
// batch path: a dst with capacity is reused, not reallocated.
func TestScoreBatchReusesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const dim = 5
	ds := gaussDataset(100, dim, 2, 1.5, rng)
	ff, err := TrainForest(ds, ForestConfig{NumTrees: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	X := probeVectors(64, dim, rng)
	dst := make([]float64, 0, len(X))
	out := ff.ScoreBatch(dst, X)
	if &out[0] != &dst[:1][0] {
		t.Fatal("ScoreBatch reallocated a dst with sufficient capacity")
	}
	if n := testing.AllocsPerRun(100, func() { out = ff.ScoreBatch(out, X) }); n != 0 {
		t.Fatalf("ScoreBatch with capacity allocates %v per run", n)
	}
}

// TestForestDimensionGuard pins the named panic on mis-dimensioned
// vectors: before the guard, a short vector died as a bare
// index-out-of-range inside tree traversal.
func TestForestDimensionGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ds := gaussDataset(100, 6, 3, 1.5, rng)
	ff, err := TrainForest(ds, ForestConfig{NumTrees: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	short := make([]float64, 4)
	for name, fn := range map[string]func(){
		"FlatForest.Score":              func() { ff.Score(short) },
		"FlatForest.ScoreWithVotes":     func() { ff.ScoreWithVotes(short) },
		"FlatForest.Predict":            func() { ff.Predict(short) },
		"FlatForest.ScoreBatch":         func() { ff.ScoreBatch(nil, [][]float64{short}) },
		"FlatForest.ScoreBatchParallel": func() { ff.ScoreBatchParallel([][]float64{short}, 0) },
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: no panic on short vector", name)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "ml: ") || !strings.Contains(msg, "feature") {
					t.Fatalf("%s: panic %v is not the named dimension message", name, r)
				}
			}()
			fn()
		}()
	}
	// Unknown dimensionality (legacy artifacts) stays unguarded rather
	// than rejecting every vector.
	legacy := *ff
	legacy.nf = 0
	if got := legacy.Score(probeVectors(1, 6, rng)[0]); math.IsNaN(got) || got < 0 || got > 1 {
		t.Fatalf("legacy forest score %v is not a probability", got)
	}
}
