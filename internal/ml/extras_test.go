package ml

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFeatureImportances(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	// Feature 0 informative, 1-3 noise.
	ds := &Dataset{}
	for i := 0; i < 400; i++ {
		label := i % 2
		row := []float64{float64(label)*2 + rng.NormFloat64()*0.4, rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		ds.X = append(ds.X, row)
		ds.Y = append(ds.Y, label)
	}
	imp, err := FeatureImportances(ds, ForestConfig{NumTrees: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(imp) != 4 {
		t.Fatalf("importances = %d", len(imp))
	}
	sum := 0.0
	for _, v := range imp {
		if v < 0 {
			t.Fatalf("negative importance %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importances sum to %v", sum)
	}
	if imp[0] < 0.5 {
		t.Fatalf("informative feature importance = %v, want dominant", imp[0])
	}
	// Deterministic.
	imp2, err := FeatureImportances(ds, ForestConfig{NumTrees: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range imp {
		if imp[i] != imp2[i] {
			t.Fatal("importances not deterministic")
		}
	}
	if _, err := FeatureImportances(&Dataset{}, DefaultForestConfig()); err == nil {
		t.Fatal("empty dataset must error")
	}
	// NumTrees is resolved like TrainForest's: a non-positive count is an
	// error naming the value, never a silent default.
	_, err = FeatureImportances(ds, ForestConfig{NumTrees: 0, Seed: 1})
	if err == nil || err.Error() != "ml: NumTrees must be positive, got 0" {
		t.Fatalf("NumTrees 0: err = %v", err)
	}
}

func TestPRCurvePerfect(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	y := []int{1, 1, 0, 0}
	curve := PRCurve(scores, y)
	if ap := AveragePrecision(curve); math.Abs(ap-1) > 1e-9 {
		t.Fatalf("perfect AP = %v", ap)
	}
	// Every point of a perfect ranking before exhausting positives has
	// precision 1.
	if curve[0].Precision != 1 || curve[1].Precision != 1 {
		t.Fatalf("curve = %+v", curve)
	}
	last := curve[len(curve)-1]
	if last.Recall != 1 {
		t.Fatalf("final recall = %v", last.Recall)
	}
}

func TestPRCurveWorst(t *testing.T) {
	// Reversed ranking: positives scored lowest.
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	y := []int{0, 0, 1, 1}
	ap := AveragePrecision(PRCurve(scores, y))
	if ap > 0.55 {
		t.Fatalf("reversed AP = %v, want low", ap)
	}
}

func TestAveragePrecisionRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(150)
		scores := make([]float64, n)
		y := make([]int, n)
		pos := 0
		for i := range scores {
			scores[i] = rng.Float64()
			y[i] = rng.Intn(2)
			pos += y[i]
		}
		if pos == 0 {
			return true // no positives: AP undefined, skip
		}
		ap := AveragePrecision(PRCurve(scores, y))
		return ap >= -1e-9 && ap <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainForestOOB(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	ds := gaussDataset(400, 6, 3, 2.0, rng)
	f, oobErr, err := TrainForestOOB(ds, ForestConfig{NumTrees: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumTrees() != 20 {
		t.Fatalf("trees = %d", f.NumTrees())
	}
	if oobErr < 0 || oobErr > 0.2 {
		t.Fatalf("OOB error = %v, want small on separable data", oobErr)
	}
	// The OOB estimate should roughly track held-out error.
	test := gaussDataset(400, 6, 3, 2.0, rng)
	res := Evaluate(f, test.X, test.Y)
	holdout := 1 - res.Confusion.Accuracy()
	if math.Abs(oobErr-holdout) > 0.1 {
		t.Fatalf("OOB %v far from holdout %v", oobErr, holdout)
	}
	if _, _, err := TrainForestOOB(&Dataset{}, DefaultForestConfig()); err == nil {
		t.Fatal("empty dataset must error")
	}
	if _, _, err := TrainForestOOB(ds, ForestConfig{NumTrees: -1}); err == nil || err.Error() != "ml: NumTrees must be positive, got -1" {
		t.Fatalf("negative NumTrees: err = %v", err)
	}
}

func TestGrowViaBestSplitEquivalence(t *testing.T) {
	// The refactored grow (via growTracked) must classify training data
	// identically to a freshly trained tree with the same inputs.
	rng := rand.New(rand.NewSource(101))
	ds := gaussDataset(200, 4, 2, 1.5, rng)
	t1 := TrainTree(ds, TreeConfig{}, nil)
	t2 := TrainTree(ds, TreeConfig{}, nil)
	for i := range ds.X {
		if predictTree(t1, ds.X[i]) != predictTree(t2, ds.X[i]) {
			t.Fatal("deterministic training diverged")
		}
	}
}

func TestDescribe(t *testing.T) {
	ds := &Dataset{
		X: [][]float64{{0, 5}, {0.1, 5}, {0.9, 5}, {1.0, 5}},
		Y: []int{0, 0, 1, 1},
	}
	tree := TrainTree(ds, TreeConfig{}, nil)
	out := tree.Describe([]string{"speed", "noise"})
	if !strings.Contains(out, "if speed <= 0.5") {
		t.Fatalf("describe = %q", out)
	}
	if !strings.Contains(out, "P(infection)=1.00") {
		t.Fatalf("describe missing leaf probs: %q", out)
	}
	// Raw indices without names.
	if raw := tree.Describe(nil); !strings.Contains(raw, "if f1 <=") {
		t.Fatalf("raw describe = %q", raw)
	}
}

func TestThresholdForFPR(t *testing.T) {
	scores := []float64{0.95, 0.9, 0.7, 0.6, 0.4, 0.3, 0.2, 0.1}
	y := []int{1, 1, 1, 0, 1, 0, 0, 0}
	// maxFPR 0: only thresholds above the best-scoring negative (0.6).
	th, tpr := ThresholdForFPR(scores, y, 0)
	if th <= 0.6 || tpr != 0.75 {
		t.Fatalf("th=%v tpr=%v, want th>0.6 tpr=0.75", th, tpr)
	}
	// maxFPR 0.25: one negative allowed -> can reach TPR 1.0 at 0.4.
	th, tpr = ThresholdForFPR(scores, y, 0.25)
	if tpr != 1.0 || th > 0.6 {
		t.Fatalf("th=%v tpr=%v, want tpr=1 at th<=0.6", th, tpr)
	}
	// Impossible target with all-positive scores below every negative.
	th, tpr = ThresholdForFPR([]float64{0.9, 0.1}, []int{0, 1}, 0)
	if tpr != 0 || th <= 1.0 {
		t.Fatalf("impossible target: th=%v tpr=%v", th, tpr)
	}
}
