package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// ForestConfig parameterizes the ensemble per Section V-A: N_t trees, each
// trained on a bootstrap sample with N_f candidate features per split.
type ForestConfig struct {
	// NumTrees is N_t. The paper's best classifier uses 20.
	NumTrees int
	// MaxFeatures is N_f; 0 selects the paper's log2(NumFeatures)+1.
	MaxFeatures int
	// MinSamplesLeaf passes through to the trees.
	MinSamplesLeaf int
	// MaxDepth passes through to the trees (0 = unbounded).
	MaxDepth int
	// Seed makes training deterministic.
	Seed int64
}

// DefaultForestConfig is the paper's best configuration: N_t = 20 and
// N_f = log2(F) + 1.
func DefaultForestConfig() ForestConfig {
	return ForestConfig{NumTrees: 20, Seed: 1}
}

// LogMaxFeatures is the paper's N_f rule: log2(numFeatures) + 1.
func LogMaxFeatures(numFeatures int) int {
	if numFeatures <= 1 {
		return 1
	}
	return int(math.Log2(float64(numFeatures))) + 1
}

// trainTrees is the one bootstrap-and-grow loop behind TrainForest,
// TrainForestOOB and FeatureImportances. It validates ds, resolves cfg
// against it once, and grows cfg.NumTrees CART trees, each on a bootstrap
// sample of ds with N_f candidate features per split. imp, when non-nil,
// accumulates every tree's impurity decreases; grown, when non-nil, sees
// each tree with its bootstrap indices as soon as it exists. The RNG
// stream (a bootstrap draw, then that tree's feature subsampling, tree by
// tree) is the same for every caller, so equal configs grow equal trees.
func trainTrees(ds *Dataset, cfg ForestConfig, imp []float64, grown func(t *Tree, boot []int)) ([]*Tree, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if cfg.NumTrees <= 0 {
		return nil, fmt.Errorf("ml: NumTrees must be positive, got %d", cfg.NumTrees)
	}
	maxF := cfg.MaxFeatures
	if maxF <= 0 {
		maxF = LogMaxFeatures(ds.NumFeatures())
	}
	treeCfg := TreeConfig{
		MaxFeatures:    maxF,
		MinSamplesLeaf: cfg.MinSamplesLeaf,
		MaxDepth:       cfg.MaxDepth,
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	trees := make([]*Tree, cfg.NumTrees)
	for i := range trees {
		boot := bootstrap(ds.Len(), rng)
		trees[i] = trainTree(ds.Subset(boot), treeCfg, rng, imp)
		if grown != nil {
			grown(trees[i], boot)
		}
	}
	return trees, nil
}

// TrainForest trains the Ensemble Random Forest on ds and returns it in
// the flat form every scorer and artifact uses. Its Score combines trees
// by averaging their probabilistic predictions — the variance-reducing
// choice the paper makes over majority voting. The pointer trees exist
// only while training; they are flattened once and dropped.
func TrainForest(ds *Dataset, cfg ForestConfig) (*FlatForest, error) {
	trees, err := trainTrees(ds, cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	return flattenTrees(trees, cfg, ds.NumFeatures()), nil
}

// TrainForestOOB trains the ensemble and additionally estimates its
// generalization accuracy from out-of-bag samples: each sample is scored
// only by the trees whose bootstrap excluded it. The returned error rate
// is 1 - OOB accuracy; samples never out-of-bag are skipped.
func TrainForestOOB(ds *Dataset, cfg ForestConfig) (*FlatForest, float64, error) {
	n := ds.Len()
	sums := make([]float64, n)
	votes := make([]int, n)
	inBag := make([]bool, n)
	trees, err := trainTrees(ds, cfg, nil, func(t *Tree, boot []int) {
		for j := range inBag {
			inBag[j] = false
		}
		for _, b := range boot {
			inBag[b] = true
		}
		for j := 0; j < n; j++ {
			if !inBag[j] {
				sums[j] += t.PredictProba(ds.X[j])[LabelInfection]
				votes[j]++
			}
		}
	})
	if err != nil {
		return nil, 0, err
	}
	wrong, counted := 0, 0
	for j := 0; j < n; j++ {
		if votes[j] == 0 {
			continue
		}
		counted++
		pred := LabelBenign
		if sums[j]/float64(votes[j]) > 0.5 {
			pred = LabelInfection
		}
		if pred != ds.Y[j] {
			wrong++
		}
	}
	oobErr := 0.0
	if counted > 0 {
		oobErr = float64(wrong) / float64(counted)
	}
	return flattenTrees(trees, cfg, ds.NumFeatures()), oobErr, nil
}
