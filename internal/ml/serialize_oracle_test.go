package ml

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file holds the test-only pointer-tree reference the flat forest is
// checked against: a recursive JSON decoder into treeNode trees and a
// recursive tree walk. It is deliberately the other shape of the same
// computation — recursion where LoadFlatForest uses an explicit stack,
// pointer chasing where FlatForest indexes a slab — so the differential
// suites and FuzzLoadForest compare two independent implementations.

// refForest is an ensemble of pointer trees scored by walking each tree.
type refForest struct {
	trees []*Tree
	nf    int
}

// refTrain grows the pointer trees of one training run, with the same
// config and RNG stream TrainForest flattens.
func refTrain(ds *Dataset, cfg ForestConfig) (*refForest, error) {
	trees, err := trainTrees(ds, cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	return &refForest{trees: trees, nf: ds.NumFeatures()}, nil
}

// Score is the mean of P(infection) over all trees, in tree order.
func (f *refForest) Score(x []float64) float64 {
	sum := 0.0
	for _, t := range f.trees {
		sum += t.PredictProba(x)[LabelInfection]
	}
	return sum / float64(len(f.trees))
}

// ScoreWithVotes is Score plus the count of trees whose infection
// probability exceeds 0.5.
func (f *refForest) ScoreWithVotes(x []float64) (score float64, votes, trees int) {
	sum := 0.0
	for _, t := range f.trees {
		p := t.PredictProba(x)[LabelInfection]
		sum += p
		if p > 0.5 {
			votes++
		}
	}
	return sum / float64(len(f.trees)), votes, len(f.trees)
}

// predictTree returns the tree's majority class for x: infection only
// when its probability strictly exceeds benign's.
func predictTree(t *Tree, x []float64) int {
	p := t.PredictProba(x)
	if p[LabelInfection] > p[LabelBenign] {
		return LabelInfection
	}
	return LabelBenign
}

// refLoadForest decodes the v1 JSON wire format into pointer trees by
// recursive descent, applying the same structural and per-node screens
// (readForestWire, validateNode) as LoadFlatForest.
func refLoadForest(r io.Reader) (*refForest, error) {
	wire, err := readForestWire(r)
	if err != nil {
		return nil, err
	}
	f := &refForest{nf: wire.Features}
	for ti, tw := range wire.Trees {
		pos := 0
		root, err := refUnflattenTree(tw.Nodes, &pos, wire.Features, 0)
		if err != nil {
			return nil, fmt.Errorf("ml: tree %d: %w", ti, err)
		}
		if pos != len(tw.Nodes) {
			return nil, fmt.Errorf("ml: tree %d: %d trailing nodes", ti, len(tw.Nodes)-pos)
		}
		f.trees = append(f.trees, &Tree{root: root})
	}
	return f, nil
}

func refUnflattenTree(nodes []nodeWire, pos *int, features, depth int) (*treeNode, error) {
	if *pos >= len(nodes) {
		return nil, fmt.Errorf("truncated node stream at %d", *pos)
	}
	nw := nodes[*pos]
	if err := validateNode(nw, features, depth); err != nil {
		return nil, fmt.Errorf("node %d: %w", *pos, err)
	}
	*pos++
	if nw.Leaf {
		n := &treeNode{leaf: true}
		n.probs[0], n.probs[1] = nw.P0, nw.P1
		return n, nil
	}
	left, err := refUnflattenTree(nodes, pos, features, depth+1)
	if err != nil {
		return nil, err
	}
	right, err := refUnflattenTree(nodes, pos, features, depth+1)
	if err != nil {
		return nil, err
	}
	return &treeNode{feature: nw.Feature, threshold: nw.Threshold, left: left, right: right}, nil
}

// refSave writes the pointer trees in the v1 JSON wire format by
// recursive preorder descent.
func (f *refForest) refSave(w io.Writer, cfg ForestConfig) error {
	wire := forestWire{Version: forestWireVersion, Features: f.nf, Config: cfg}
	for _, t := range f.trees {
		var tw treeWire
		refFlattenTree(t.root, &tw.Nodes)
		wire.Trees = append(wire.Trees, tw)
	}
	return json.NewEncoder(w).Encode(wire)
}

func refFlattenTree(n *treeNode, out *[]nodeWire) {
	if n.leaf {
		*out = append(*out, nodeWire{Leaf: true, P0: n.probs[0], P1: n.probs[1]})
		return
	}
	*out = append(*out, nodeWire{Feature: n.feature, Threshold: n.threshold})
	refFlattenTree(n.left, out)
	refFlattenTree(n.right, out)
}
