package ml

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// FlatForest is the Ensemble Random Forest: the one representation that
// training emits, both artifact loaders produce, and every scorer runs.
// Every tree's nodes live preorder in one shared struct-of-arrays slab, so
// a traversal touches sequential memory instead of chasing pointers, and
// the whole model is a few flat arrays — the representation a
// model-distribution control plane can ship as one blob.
//
// Layout invariants (pinned by the differential tests in flat_test.go):
//   - nodes are preorder per tree; tree t occupies [treeStart[t],
//     treeStart[t+1]) with a sentinel treeStart[numTrees] == len(feature);
//   - an internal node's left child is the next node (i+1), its right child
//     is right[i]; feature[i] >= 0;
//   - a leaf has feature[i] == -1 and carries its class probabilities in
//     p0[i]/p1[i]; threshold and right are zero.
//
// Score, ScoreWithVotes and the batch scorers accumulate per-tree leaf
// probabilities in tree order and divide once, so all of them agree
// bit-for-bit (math.Float64bits) on every input — the detector's journal
// rescoring contract relies on that. FlatForest is immutable after
// construction and safe for concurrent use.
type FlatForest struct {
	feature   []int32
	threshold []float64
	right     []int32
	p0, p1    []float64
	treeStart []int32
	cfg       ForestConfig
	nf        int
}

// scoresParallelCutoff is the batch size below which the fan-out overhead
// outweighs the tree walks and ScoreBatchParallel stays sequential.
const scoresParallelCutoff = 256

// scoreChunk is the number of samples a worker claims at a time: large
// enough to amortize the atomic increment, small enough to balance load
// across forests with uneven tree depths.
const scoreChunk = 64

// newFlatForest returns an empty forest with slab capacity for the given
// tree and node counts, ready for preorder appends.
func newFlatForest(trees, nodes int, cfg ForestConfig, nf int) *FlatForest {
	return &FlatForest{
		feature:   make([]int32, 0, nodes),
		threshold: make([]float64, 0, nodes),
		right:     make([]int32, 0, nodes),
		p0:        make([]float64, 0, nodes),
		p1:        make([]float64, 0, nodes),
		treeStart: make([]int32, 0, trees+1),
		cfg:       cfg,
		nf:        nf,
	}
}

// flattenTrees lays freshly trained pointer trees out preorder in one slab.
func flattenTrees(trees []*Tree, cfg ForestConfig, nf int) *FlatForest {
	nodes := 0
	for _, t := range trees {
		nodes += t.NodeCount()
	}
	ff := newFlatForest(len(trees), nodes, cfg, nf)
	for _, t := range trees {
		ff.treeStart = append(ff.treeStart, int32(len(ff.feature)))
		ff.flattenNode(t.root)
	}
	ff.treeStart = append(ff.treeStart, int32(len(ff.feature)))
	return ff
}

// flattenNode appends the subtree rooted at n in preorder and returns its
// slab index.
func (ff *FlatForest) flattenNode(n *treeNode) int32 {
	i := int32(len(ff.feature))
	if n.leaf {
		ff.feature = append(ff.feature, -1)
		ff.threshold = append(ff.threshold, 0)
		ff.right = append(ff.right, 0)
		ff.p0 = append(ff.p0, n.probs[0])
		ff.p1 = append(ff.p1, n.probs[1])
		return i
	}
	ff.feature = append(ff.feature, int32(n.feature))
	ff.threshold = append(ff.threshold, n.threshold)
	ff.right = append(ff.right, 0) // patched after the left subtree lands
	ff.p0 = append(ff.p0, 0)
	ff.p1 = append(ff.p1, 0)
	ff.flattenNode(n.left)
	ff.right[i] = ff.flattenNode(n.right)
	return i
}

// NumTrees returns the ensemble size.
func (ff *FlatForest) NumTrees() int { return len(ff.treeStart) - 1 }

// NumFeatures returns the feature dimensionality the forest was trained
// on (0 for models loaded from files written before versioned metadata).
func (ff *FlatForest) NumFeatures() int { return ff.nf }

// NumNodes returns the total node count across all trees.
func (ff *FlatForest) NumNodes() int { return len(ff.feature) }

// checkDim guards traversal against mis-dimensioned vectors: a short
// vector would otherwise die as a bare index-out-of-range deep inside the
// node loop. The named panic lets the detector's quarantine ladder
// attribute the fault.
func (ff *FlatForest) checkDim(x []float64) {
	if ff.nf > 0 && len(x) != ff.nf {
		panic(fmt.Sprintf("ml: FlatForest.Score: feature vector has %d features, forest was trained on %d", len(x), ff.nf))
	}
}

// leafFor walks one tree to the leaf x lands in and returns its slab index.
//
//dynalint:hotpath
func (ff *FlatForest) leafFor(t int, x []float64) int32 {
	feats, thr, right := ff.feature, ff.threshold, ff.right
	i := ff.treeStart[t]
	for {
		f := feats[i]
		if f < 0 {
			return i
		}
		if x[f] <= thr[i] {
			i++
		} else {
			i = right[i]
		}
	}
}

// Score returns the averaged probability that x is an infection: the mean
// of every tree's leaf P(infection).
//
//dynalint:hotpath
func (ff *FlatForest) Score(x []float64) float64 {
	ff.checkDim(x)
	sum := 0.0
	nt := ff.NumTrees()
	for t := 0; t < nt; t++ {
		sum += ff.p1[ff.leafFor(t, x)]
	}
	return sum / float64(nt)
}

// ScoreWithVotes returns the ensemble score with the per-tree vote tally:
// how many trees put the infection class above 0.5 for x. For trained
// leaves (p1 = c1/n) that is exactly the trees whose majority class is
// infection. The score accumulates in exactly the same order as Score, so
// it is bit-identical — the detector's alert journal relies on that.
//
//dynalint:hotpath
func (ff *FlatForest) ScoreWithVotes(x []float64) (score float64, votes, trees int) {
	ff.checkDim(x)
	sum := 0.0
	nt := ff.NumTrees()
	for t := 0; t < nt; t++ {
		p := ff.p1[ff.leafFor(t, x)]
		sum += p
		if p > 0.5 {
			votes++
		}
	}
	return sum / float64(nt), votes, nt
}

// Predict classifies x by probability averaging with a 0.5 threshold.
//
//dynalint:hotpath
func (ff *FlatForest) Predict(x []float64) int {
	if ff.Score(x) > 0.5 {
		return LabelInfection
	}
	return LabelBenign
}

// scoreBatchKernel scores X[i] into dst[i] tree-outer: each tree's slab
// region stays hot in cache while every sample traverses it, amortizing
// the per-tree dispatch across the batch. Per sample the leaf
// probabilities still accumulate in tree order with one final divide, so
// every dst[i] is bit-identical to Score(X[i]).
//
//dynalint:hotpath
func (ff *FlatForest) scoreBatchKernel(dst []float64, X [][]float64) {
	for i := range dst {
		dst[i] = 0
	}
	nt := ff.NumTrees()
	for t := 0; t < nt; t++ {
		for i, x := range X {
			dst[i] += ff.p1[ff.leafFor(t, x)]
		}
	}
	inv := float64(nt)
	for i := range dst {
		dst[i] /= inv
	}
}

// ScoreBatch evaluates the ensemble over X, writing the score of X[i]
// into dst[i]. dst is grown only when its capacity is insufficient; the
// (possibly reallocated) slice is returned, and nothing allocates when
// dst has room.
//
//dynalint:hotpath
func (ff *FlatForest) ScoreBatch(dst []float64, X [][]float64) []float64 {
	for _, x := range X {
		ff.checkDim(x)
	}
	if cap(dst) < len(X) {
		dst = make([]float64, len(X))
	}
	dst = dst[:len(X)]
	ff.scoreBatchKernel(dst, X)
	return dst
}

// ScoreBatchParallel evaluates the ensemble over X with worker goroutines
// (0 means GOMAXPROCS), fanning sample chunks out and running the batch
// kernel per chunk. Each score is written only to its own index, so the
// result is bit-identical to ScoreBatch regardless of scheduling. Small
// batches run sequentially.
func (ff *FlatForest) ScoreBatchParallel(X [][]float64, workers int) []float64 {
	for _, x := range X {
		ff.checkDim(x)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(X)/scoreChunk {
		workers = len(X) / scoreChunk
	}
	out := make([]float64, len(X))
	if len(X) < scoresParallelCutoff || workers < 2 {
		ff.scoreBatchKernel(out, X)
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(scoreChunk)) - scoreChunk
				if lo >= len(X) {
					return
				}
				hi := lo + scoreChunk
				if hi > len(X) {
					hi = len(X)
				}
				ff.scoreBatchKernel(out[lo:hi], X[lo:hi])
			}
		}()
	}
	wg.Wait()
	return out
}

// Save serializes the forest as the v1 JSON wire format: preorder node
// arrays per tree, which LoadFlatForest reads back byte-for-byte (Save →
// load → Save is a fixpoint).
func (ff *FlatForest) Save(w io.Writer) error {
	wire := forestWire{Version: forestWireVersion, Features: ff.nf, Config: ff.cfg}
	nt := ff.NumTrees()
	for t := 0; t < nt; t++ {
		var tw treeWire
		for i := ff.treeStart[t]; i < ff.treeStart[t+1]; i++ {
			if ff.feature[i] < 0 {
				tw.Nodes = append(tw.Nodes, nodeWire{Leaf: true, P0: ff.p0[i], P1: ff.p1[i]})
			} else {
				tw.Nodes = append(tw.Nodes, nodeWire{Feature: int(ff.feature[i]), Threshold: ff.threshold[i]})
			}
		}
		wire.Trees = append(wire.Trees, tw)
	}
	if err := json.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("ml: save forest: %w", err)
	}
	return nil
}

// LoadFlatForest is the JSON model loader: it deserializes a forest
// written by Save straight into the contiguous representation — the
// preorder wire nodes are the slab, only the right-child indices are
// reconstructed. Node streams are validated semantically: feature bounds
// against the trained dimensionality, finite thresholds, leaf
// probabilities in [0, 1], tree shape and bounded depth, so a corrupt or
// adversarial model file is rejected here instead of panicking at serve
// time.
func LoadFlatForest(r io.Reader) (*FlatForest, error) {
	wire, err := readForestWire(r)
	if err != nil {
		return nil, err
	}
	nodes := 0
	for _, tw := range wire.Trees {
		nodes += len(tw.Nodes)
	}
	ff := newFlatForest(len(wire.Trees), nodes, wire.Config, wire.Features)
	for ti, tw := range wire.Trees {
		ff.treeStart = append(ff.treeStart, int32(len(ff.feature)))
		if err := ff.appendTree(tw.Nodes, wire.Features); err != nil {
			return nil, fmt.Errorf("ml: tree %d: %w", ti, err)
		}
	}
	ff.treeStart = append(ff.treeStart, int32(len(ff.feature)))
	return ff, nil
}

// appendTree validates one preorder node stream and appends it to the
// slab, patching right-child indices with an explicit stack (no recursion,
// so adversarial streams cannot exhaust the goroutine stack; depth is
// bounded by maxModelDepth).
func (ff *FlatForest) appendTree(nodes []nodeWire, features int) error {
	base := int32(len(ff.feature))
	// pending holds slab indices of internal nodes: awaiting[i] false while
	// the left subtree parses, true while the right subtree parses.
	type frame struct {
		idx     int32
		inRight bool
	}
	var stack []frame
	for pos, nw := range nodes {
		if err := validateNode(nw, features, len(stack)); err != nil {
			return fmt.Errorf("node %d: %w", pos, err)
		}
		i := base + int32(pos)
		if nw.Leaf {
			ff.feature = append(ff.feature, -1)
			ff.threshold = append(ff.threshold, 0)
			ff.right = append(ff.right, 0)
			ff.p0 = append(ff.p0, nw.P0)
			ff.p1 = append(ff.p1, nw.P1)
			// A completed subtree either starts its parent's right subtree
			// or completes the parent too, recursively up the stack.
			for {
				if len(stack) == 0 {
					if pos != len(nodes)-1 {
						return fmt.Errorf("%d trailing nodes", len(nodes)-1-pos)
					}
					return nil
				}
				top := &stack[len(stack)-1]
				if !top.inRight {
					top.inRight = true
					ff.right[top.idx] = i + 1
					break
				}
				stack = stack[:len(stack)-1]
			}
			continue
		}
		ff.feature = append(ff.feature, int32(nw.Feature))
		ff.threshold = append(ff.threshold, nw.Threshold)
		ff.right = append(ff.right, 0)
		ff.p0 = append(ff.p0, 0)
		ff.p1 = append(ff.p1, 0)
		stack = append(stack, frame{idx: i})
	}
	return fmt.Errorf("truncated node stream at %d", len(nodes))
}
