package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"dynaminer"
	"dynaminer/internal/detector"
	"dynaminer/internal/httpstream"
	"dynaminer/internal/pcap"
)

// tapReplay replays one long capture of many concurrent clients, as a
// tap feeding dynaminer stream would: decode, reassemble, parse, then one
// ProcessAll through the sharded engine. Each pass starts a fresh engine
// on the same capture, so every pass must raise exactly the reference
// alerts.
type tapReplay struct {
	path  string
	clf   *dynaminer.Classifier
	want  []alertKey
	count layerCounts
	// engine is the last pass's engine, kept referenced so the retained
	// heap reflects a loaded engine.
	engine *detector.ShardedEngine
}

func newTapReplay(dir string, seed int64, sz sizes) (*tapReplay, error) {
	rng := rand.New(rand.NewSource(seed))
	eps := corpus(seed, sz.tapInfections, sz.tapBenign)
	var expected int64
	for i := range eps {
		rebase(&eps[i], clientAddr(i), epoch.Add(time.Duration(rng.Int63n(int64(window)))))
		fillBodies(eps[i].Txs, rng)
		expected += int64(len(eps[i].Txs))
	}
	w := &tapReplay{path: filepath.Join(dir, "tap.pcap")}
	size, err := writeCapture(w.path, eps)
	if err != nil {
		return nil, err
	}
	if w.clf, err = train(seed, sz, true); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	txs, npkts, nstreams, err := readReference(w.path)
	if err != nil {
		return nil, err
	}
	if int64(len(txs)) != expected {
		return nil, fmt.Errorf("capture holds %d of %d generated transactions", len(txs), expected)
	}
	ref := detector.New(engineConfig(), w.clf.Forest())
	for _, tx := range txs {
		for _, a := range ref.Process(tx) {
			w.want = append(w.want, keyOf(a, 0))
		}
	}
	w.count = layerCounts{
		packets: int64(npkts), captureBytes: size, streams: int64(nstreams),
		txs: expected, bodyBytes: bodyBytes(txs),
	}
	return w, nil
}

func (w *tapReplay) lanes() int            { return 1 }
func (w *tapReplay) tailQuantile() float64 { return 0.5 }
func (w *tapReplay) counts() layerCounts   { return w.count }
func (w *tapReplay) reference() []alertKey { return w.want }

func (w *tapReplay) run(p *phase, deadline time.Time, rec *recorder) {
	for p.passes == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		eng, sink := newEngine(w.clf, rec)
		txs, alerts, err := w.replay(eng, rec, &p.sniff)
		el := time.Since(t0)
		p.attempted += w.count.txs
		if err != nil {
			p.fail(w.count.txs, "pass %d: %v", p.passes, err)
		} else {
			p.lost(w.count.txs - int64(len(txs)))
			keys := make([]alertKey, len(alerts))
			for i, a := range alerts {
				keys[i] = keyOf(a, 0)
			}
			p.verdicts(keys, w.want)
			p.journal(sink, len(alerts))
		}
		st := eng.Stats()
		p.engine(st)
		p.pass(int64(len(txs)), el)
		p.lat = append(p.lat, int64(el))
		w.engine = eng
	}
}

// replay is one pass: the untraced body is exactly Monitor.ProcessPCAP
// on a file; the traced body makes the same calls FromPackets makes, one
// span each, plus the shadow sniff.
func (w *tapReplay) replay(eng *detector.ShardedEngine, rec *recorder, sc *sniffCounts) ([]httpstream.Transaction, []detector.Alert, error) {
	f, err := os.Open(w.path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	if rec == nil {
		pkts, err := pcap.ReadAllAuto(f)
		if err != nil {
			return nil, nil, err
		}
		txs := httpstream.FromPackets(pkts)
		return txs, eng.ProcessAll(txs), nil
	}
	t := rec.now()
	pkts, err := pcap.ReadAllAuto(f)
	rec.add(stPCAPDecode, t, false)
	if err != nil {
		return nil, nil, err
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
	alerts := eng.ProcessAll(txs)
	rec.add(stDetector, t, false)
	return txs, alerts, nil
}

func bodyBytes(txs []httpstream.Transaction) int64 {
	var n int64
	for i := range txs {
		n += int64(len(txs[i].Body))
	}
	return n
}
