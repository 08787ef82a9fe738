package ml

import (
	"math/rand"
)

// CrossValidate runs stratified k-fold cross-validation of the forest
// configuration on ds, pooling the per-fold predictions into one aggregate
// EvalResult — the protocol behind Table III and Figure 10.
func CrossValidate(ds *Dataset, cfg ForestConfig, k int, rng *rand.Rand) (EvalResult, error) {
	return crossValidate(ds, cfg, k, rng, func(f *FlatForest, x []float64) (float64, bool) {
		s := f.Score(x)
		return s, s > 0.5
	})
}

// CrossValidateVoting is CrossValidate with the per-tree majority-vote rule
// — the standard random forest rule the paper's ERF deliberately replaces
// — instead of probability averaging, for the voting ablation. Votes come
// from ScoreWithVotes; ROC area is computed from vote fractions.
func CrossValidateVoting(ds *Dataset, cfg ForestConfig, k int, rng *rand.Rand) (EvalResult, error) {
	return crossValidate(ds, cfg, k, rng, func(f *FlatForest, x []float64) (float64, bool) {
		_, votes, trees := f.ScoreWithVotes(x)
		return float64(votes) / float64(trees), 2*votes > trees
	})
}

// crossValidate trains one forest per stratified fold and lets rule turn
// each held-out sample into a ROC score and an infection verdict.
func crossValidate(ds *Dataset, cfg ForestConfig, k int, rng *rand.Rand, rule func(f *FlatForest, x []float64) (score float64, infection bool)) (EvalResult, error) {
	if err := ds.Validate(); err != nil {
		return EvalResult{}, err
	}
	folds := StratifiedKFold(ds.Y, k, rng)

	var (
		allScores []float64
		allLabels []int
		c         Confusion
	)
	for fi, test := range folds {
		if len(test) == 0 {
			continue
		}
		train := ds.Subset(TrainIndices(ds.Len(), test))
		foldCfg := cfg
		foldCfg.Seed = cfg.Seed + int64(fi)
		f, err := TrainForest(train, foldCfg)
		if err != nil {
			return EvalResult{}, err
		}
		for _, i := range test {
			s, infection := rule(f, ds.X[i])
			allScores = append(allScores, s)
			allLabels = append(allLabels, ds.Y[i])
			pred := LabelBenign
			if infection {
				pred = LabelInfection
			}
			c.Add(ds.Y[i], pred)
		}
	}
	return EvalResult{
		Confusion: c,
		TPR:       c.TPR(),
		FPR:       c.FPR(),
		FScore:    c.FScore(),
		ROCArea:   AUC(ROC(allScores, allLabels)),
	}, nil
}
