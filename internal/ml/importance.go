package ml

import (
	"math/rand"
	"sort"
)

// growTracked grows the subtree over the sample indices idx, recording
// impurity decreases into imp when non-nil. sc is the per-training
// scratch every split borrows its buffers from.
func growTracked(ds *Dataset, idx []int, cfg TreeConfig, rng *rand.Rand, depth int, imp []float64, rootN int, sc *trainScratch) *treeNode {
	counts := classCounts(ds, idx)
	total := len(idx)
	pure := counts[0] == total || counts[1] == total
	if pure || total < 2*cfg.MinSamplesLeaf || (cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) {
		return makeLeaf(counts, total)
	}
	feature, threshold, gain := bestSplit(ds, idx, counts, cfg, rng, sc)
	if feature < 0 {
		return makeLeaf(counts, total)
	}
	var left, right []int
	for _, j := range idx {
		if ds.X[j][feature] <= threshold {
			left = append(left, j)
		} else {
			right = append(right, j)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return makeLeaf(counts, total)
	}
	if imp != nil {
		imp[feature] += gain * float64(total) / float64(rootN)
	}
	return &treeNode{
		feature:   feature,
		threshold: threshold,
		left:      growTracked(ds, left, cfg, rng, depth+1, imp, rootN, sc),
		right:     growTracked(ds, right, cfg, rng, depth+1, imp, rootN, sc),
	}
}

// bestSplit finds the Gini-optimal (feature, threshold) over a feature
// subsample; it returns feature -1 when no split improves purity. The
// candidate list and the value/label buffer come out of the training
// scratch; both are fully consumed before bestSplit returns, so the
// recursion into child splits can reuse them.
func bestSplit(ds *Dataset, idx []int, counts [numClasses]int, cfg TreeConfig, rng *rand.Rand, sc *trainScratch) (feature int, threshold, gain float64) {
	total := len(idx)
	parentGini := gini(counts, total)
	candidates := featureSample(sc, ds.NumFeatures(), cfg.MaxFeatures, rng)
	feature = -1

	if cap(sc.buf) < total {
		sc.buf = make([]valueLabel, total)
	}
	buf := sc.buf[:total]
	for _, f := range candidates {
		for i, j := range idx {
			buf[i] = valueLabel{v: ds.X[j][f], y: ds.Y[j]}
		}
		sort.Slice(buf, func(a, b int) bool { return buf[a].v < buf[b].v })
		var leftCounts [numClasses]int
		for i := 0; i+1 < total; i++ {
			leftCounts[buf[i].y]++
			if buf[i].v == buf[i+1].v {
				continue
			}
			nl, nr := i+1, total-i-1
			if nl < cfg.MinSamplesLeaf || nr < cfg.MinSamplesLeaf {
				continue
			}
			var rightCounts [numClasses]int
			rightCounts[0] = counts[0] - leftCounts[0]
			rightCounts[1] = counts[1] - leftCounts[1]
			g := parentGini -
				(float64(nl)*gini(leftCounts, nl)+float64(nr)*gini(rightCounts, nr))/float64(total)
			if g > gain {
				gain = g
				feature = f
				threshold = (buf[i].v + buf[i+1].v) / 2
			}
		}
	}
	return feature, threshold, gain
}

// FeatureImportances retrains the ensemble's structure over ds and returns
// the per-feature mean decrease in impurity, normalized to sum to 1.
// Deterministic for a fixed config and dataset.
func FeatureImportances(ds *Dataset, cfg ForestConfig) ([]float64, error) {
	imp := make([]float64, ds.NumFeatures())
	if _, err := trainTrees(ds, cfg, imp, nil); err != nil {
		return nil, err
	}
	sum := 0.0
	for _, v := range imp {
		sum += v
	}
	if sum > 0 {
		for i := range imp {
			imp[i] /= sum
		}
	}
	return imp, nil
}
