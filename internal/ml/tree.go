package ml

import (
	"math/rand"
)

// TreeConfig controls CART growth.
type TreeConfig struct {
	// MaxFeatures is the number of candidate features sampled at each
	// split; 0 means all features.
	MaxFeatures int
	// MinSamplesLeaf is the minimum samples each side of a split must keep.
	MinSamplesLeaf int
	// MaxDepth bounds tree depth; 0 means unbounded.
	MaxDepth int
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MinSamplesLeaf < 1 {
		c.MinSamplesLeaf = 1
	}
	return c
}

// treeNode is one node of a CART tree. Leaves carry the class probability
// distribution of the training samples that reached them.
type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	probs     [numClasses]float64 // leaf only
	leaf      bool
}

// Tree is a trained CART decision tree predicting class probabilities.
type Tree struct {
	root *treeNode
}

// TrainTree grows a CART tree on ds using Gini impurity. rng drives the
// per-split feature subsampling (pass nil for deterministic use of all
// features).
func TrainTree(ds *Dataset, cfg TreeConfig, rng *rand.Rand) *Tree {
	return trainTree(ds, cfg, rng, nil)
}

// trainTree is TrainTree that also accumulates each feature's
// mean-decrease-in-impurity contribution into imp when it is non-nil
// (weighted Gini gain, normalized by the root sample count).
func trainTree(ds *Dataset, cfg TreeConfig, rng *rand.Rand, imp []float64) *Tree {
	cfg = cfg.withDefaults()
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	return &Tree{root: growTracked(ds, idx, cfg, rng, 0, imp, len(idx), newTrainScratch(ds))}
}

func classCounts(ds *Dataset, idx []int) [numClasses]int {
	var counts [numClasses]int
	for _, i := range idx {
		counts[ds.Y[i]]++
	}
	return counts
}

func gini(counts [numClasses]int, total int) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(total)
		g -= p * p
	}
	return g
}

func makeLeaf(counts [numClasses]int, total int) *treeNode {
	n := &treeNode{leaf: true}
	if total > 0 {
		for c, cnt := range counts {
			n.probs[c] = float64(cnt) / float64(total)
		}
	}
	return n
}

// trainScratch holds per-training reusable buffers: the feature
// permutation featureSample re-deals at every split, and the sorted
// value/label pairs bestSplit scans per candidate feature. Before the
// scratch existed, both were freshly allocated at every split and
// dominated training allocations. One scratch serves a whole tree (and a
// whole forest): splits consume their candidate list fully before any
// recursion, so reuse never aliases live data.
type trainScratch struct {
	perm []int
	buf  []valueLabel
}

type valueLabel struct {
	v float64
	y int
}

func newTrainScratch(ds *Dataset) *trainScratch {
	return &trainScratch{
		perm: make([]int, ds.NumFeatures()),
		buf:  make([]valueLabel, ds.Len()),
	}
}

// featureSample deals m distinct feature indices into the scratch
// permutation (all when m <= 0 or m >= nf, or when rng is nil). The RNG
// consumption is identical to the pre-scratch allocation per call, so
// training stays seed-for-seed deterministic.
func featureSample(sc *trainScratch, nf, m int, rng *rand.Rand) []int {
	if cap(sc.perm) < nf {
		sc.perm = make([]int, nf)
	}
	all := sc.perm[:nf]
	for i := range all {
		all[i] = i
	}
	if m <= 0 || m >= nf || rng == nil {
		return all
	}
	rng.Shuffle(nf, func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:m]
}

// PredictProba returns P(class) for the sample.
func (t *Tree) PredictProba(x []float64) [numClasses]float64 {
	n := t.root
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.probs
}

// Depth returns the depth of the tree (a single leaf has depth 0).
func (t *Tree) Depth() int { return nodeDepth(t.root) }

func nodeDepth(n *treeNode) int {
	if n.leaf {
		return 0
	}
	l, r := nodeDepth(n.left), nodeDepth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// NodeCount returns the total number of nodes in the tree.
func (t *Tree) NodeCount() int { return countNodes(t.root) }

func countNodes(n *treeNode) int {
	if n.leaf {
		return 1
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}
