package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"dynaminer"
	"dynaminer/internal/features"
	"dynaminer/internal/httpstream"
	"dynaminer/internal/pcap"
	"dynaminer/internal/wcg"
)

// forensicBatch is the paper's offline stage as dynaminer classify runs
// it: one capture per episode, each read, built into a WCG and scored by
// the offline model, one capture at a time on one thread.
type forensicBatch struct {
	paths []string
	txs   []int64    // transactions per capture
	want  []alertKey // per capture: score and graph shape
	clf   *dynaminer.Classifier
	count layerCounts
}

func newForensicBatch(dir string, seed int64, sz sizes) (*forensicBatch, error) {
	rng := rand.New(rand.NewSource(seed))
	eps := corpus(seed, sz.forensicInfections, sz.forensicBenign)
	w := &forensicBatch{}
	var err error
	if w.clf, err = train(seed, sz, false); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	var nodes, edges int64
	for i := range eps {
		fillBodies(eps[i].Txs, rng)
		path := filepath.Join(dir, fmt.Sprintf("capture-%04d.pcap", i))
		size, err := writeCapture(path, eps[i:i+1])
		if err != nil {
			return nil, err
		}
		txs, npkts, nstreams, err := readReference(path)
		if err != nil {
			return nil, err
		}
		if len(txs) != len(eps[i].Txs) {
			return nil, fmt.Errorf("capture %d holds %d of %d generated transactions", i, len(txs), len(eps[i].Txs))
		}
		g := wcg.FromTransactions(txs)
		score := w.clf.Forest().Score(features.Extract(g))
		w.paths = append(w.paths, path)
		w.txs = append(w.txs, int64(len(txs)))
		w.want = append(w.want, captureKey(i, score, g))
		nodes += int64(g.Order())
		edges += int64(g.Size())
		w.count.add(layerCounts{
			packets: int64(npkts), captureBytes: size, streams: int64(nstreams),
			txs: int64(len(txs)), bodyBytes: bodyBytes(txs),
		})
	}
	w.count.graphNodes = float64(nodes) / float64(len(eps))
	w.count.graphEdges = float64(edges) / float64(len(eps))
	return w, nil
}

func captureKey(i int, score float64, g *wcg.WCG) alertKey {
	return alertKey{client: i, score: math.Float64bits(score), order: g.Order(), size: g.Size()}
}

func (w *forensicBatch) lanes() int            { return 1 }
func (w *forensicBatch) tailQuantile() float64 { return 0.9 }
func (w *forensicBatch) counts() layerCounts   { return w.count }
func (w *forensicBatch) reference() []alertKey { return w.want }

func (w *forensicBatch) run(p *phase, deadline time.Time, rec *recorder) {
	got := make([]alertKey, 0, len(w.paths))
	for p.passes == 0 || time.Now().Before(deadline) {
		got = got[:0]
		var n int64
		t0 := time.Now()
		for i, path := range w.paths {
			c0 := time.Now()
			p.attempted += w.txs[i]
			txs, score, g, err := w.classify(path, rec, &p.sniff)
			p.lat = append(p.lat, int64(time.Since(c0)))
			if err != nil {
				p.fail(w.txs[i], "capture %d: %v", i, err)
				continue
			}
			p.lost(w.txs[i] - int64(len(txs)))
			n += int64(len(txs))
			got = append(got, captureKey(i, score, g))
		}
		p.verdicts(got, w.want)
		p.pass(n, time.Since(t0))
	}
}

// classify is one capture: the untraced body is exactly what dynaminer
// classify does per file; the traced body makes the same calls, one span
// each, plus the shadow sniff.
func (w *forensicBatch) classify(path string, rec *recorder, sc *sniffCounts) ([]httpstream.Transaction, float64, *wcg.WCG, error) {
	if rec == nil {
		txs, err := dynaminer.ReadPCAPFile(path)
		if err != nil {
			return nil, 0, nil, err
		}
		g := dynaminer.BuildWCG(txs)
		return txs, w.clf.Score(g), g, nil
	}
	t := rec.now()
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, nil, err
	}
	pkts, err := pcap.ReadAllAuto(f)
	f.Close()
	rec.add(stPCAPDecode, t, false)
	if err != nil {
		return nil, 0, nil, err
	}
	t = rec.now()
	streams, asm := pcap.AssembleStreamsInto(nil, pkts)
	rec.add(stPCAPReassembly, t, false)
	t = rec.now()
	txs := httpstream.ExtractAll(streams)
	asm.Release()
	rec.add(stHTTPParse, t, false)
	t = rec.now()
	sc.scan(txs)
	rec.add(stWCGSniff, t, false)
	t = rec.now()
	g := wcg.FromTransactions(txs)
	rec.add(stWCGBuild, t, false)
	t = rec.now()
	x := features.Extract(g)
	rec.add(stFeatures, t, false)
	t = rec.now()
	score := w.clf.FlatForest().Score(x)
	rec.add(stScore, t, false)
	return txs, score, g, nil
}
