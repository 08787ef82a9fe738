package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dynaminer"
	"dynaminer/internal/detector"
	"dynaminer/internal/features"
	"dynaminer/internal/httpstream"
	"dynaminer/internal/synth"
)

// watchWorkers is the number of closed-loop callers of Process: one per
// core of the two-core machine the benchmark was designed on, each owning
// half of the clients.
const watchWorkers = 2

// passGap separates consecutive passes on the simulated clock. It exceeds
// the engine's default one-hour cluster TTL, so a pass's clusters are
// evicted by the traffic of the next one and the engine's state stays the
// size of about one pass, however long the run.
const passGap = 2 * time.Hour

// infectionWatch feeds the generator's transactions for infection
// episodes straight into Process, as the proxy does per request. Each
// worker waits for a verdict before it sends its next transaction. Every
// pass replays the episodes under fresh client addresses, later on the
// simulated clock.
type infectionWatch struct {
	n      int                                    // episodes per pass
	feeds  [watchWorkers][]httpstream.Transaction // each worker's pass-0 feed, time-ordered
	clf    *dynaminer.Classifier
	want   []alertKey
	count  layerCounts
	engine *detector.ShardedEngine
	sink   *journalSink
	// nextPass is the pass number the next run continues from, so the
	// timed and traced phases of one process never reuse a client.
	nextPass int
}

func newInfectionWatch(seed int64, sz sizes) (*infectionWatch, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &infectionWatch{n: sz.watchEpisodes}
	var err error
	if w.clf, err = train(seed, sz, true); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	draw := func(rng *rand.Rand) []synth.Episode {
		var pool []synth.Episode
		for _, fam := range pickFamilies(poolFactor*sz.watchEpisodes, rng) {
			pool = append(pool, synth.GenerateInfection(fam, epoch, rng))
		}
		return pool
	}
	refPool := draw(rand.New(rand.NewSource(refSeed)))
	ref := newReference(refPool, w.classifyCosts(refPool))
	pool := draw(rng)
	// Kept in cost order, so every seed gives each worker and each shard
	// the same share of the work (see corpus).
	eps := pick(pool, w.classifyCosts(pool), ref, sz.watchEpisodes)
	for i := range eps {
		ep := &eps[i]
		rebase(ep, clientAddr(i), epoch.Add(time.Duration(rng.Int63n(int64(window)))))
		if span := ep.Txs[len(ep.Txs)-1].ReqTime.Sub(epoch); span >= passGap/2 {
			return nil, fmt.Errorf("episode %d spans %v, more than a pass may", i, span)
		}
		// Workers own alternate clients.
		w.feeds[i%watchWorkers] = append(w.feeds[i%watchWorkers], ep.Txs...)
		w.count.txs += int64(len(ep.Txs))
		w.count.bodyBytes += bodyBytes(ep.Txs)
	}
	for i := range w.feeds {
		feed := w.feeds[i]
		sort.SliceStable(feed, func(a, b int) bool { return feed[a].ReqTime.Before(feed[b].ReqTime) })
	}
	single := detector.New(engineConfig(), w.clf.Forest())
	for _, feed := range w.feeds {
		for _, tx := range feed {
			for _, a := range single.Process(tx) {
				w.want = append(w.want, keyOf(a, 0))
			}
		}
	}
	return w, nil
}

// classifyCosts returns a cost for each pool episode that follows the
// engine's time on it, from running the episode alone through an engine.
// The weights are a least-squares fit of per-episode Process time (R^2
// 0.92 over 640 episodes): about 1.25us per transaction, 3.4us per
// transaction of the watched conversation at each classification, and
// 0.5ns per order*size of the watched graph at each classification.
func (w *infectionWatch) classifyCosts(pool []synth.Episode) []int {
	cs := &costScorer{model: w.clf.FlatForest()}
	eng := detector.New(engineConfig(), cs)
	costs := make([]int, len(pool))
	for i := range pool {
		cs.cost = 0
		for _, tx := range pool[i].Txs {
			tx.ClientIP = clientAddr(i)
			eng.Process(tx)
		}
		costs[i] = 1250*len(pool[i].Txs) + int(cs.cost)
		// Every pool episode starts at epoch on its own client; dropping
		// the finished ones keeps the engine one episode large.
		eng.EvictIdle(epoch.Add(passGap))
	}
	return costs
}

// Feature slots the cost model reads.
var (
	fConvLength = featureIndex("Conversation-Length")
	fOrder      = featureIndex("Order")
	fSize       = featureIndex("Size")
)

func featureIndex(name string) int {
	for i := 0; i < features.NumFeatures; i++ {
		if features.Name(i) == name {
			return i
		}
	}
	panic("perfbench: no feature " + name)
}

// costScorer forwards to the model and sums the cost model's
// per-classification terms.
type costScorer struct {
	model detector.Scorer
	cost  float64
}

func (c *costScorer) Score(x []float64) float64 {
	c.cost += 3400*x[fConvLength] + 0.5*x[fOrder]*x[fSize]
	return c.model.Score(x)
}

func (w *infectionWatch) lanes() int            { return watchWorkers }
func (w *infectionWatch) tailQuantile() float64 { return 0.99 }
func (w *infectionWatch) counts() layerCounts   { return w.count }
func (w *infectionWatch) reference() []alertKey { return w.want }

// lane is one worker's state across a phase.
type lane struct {
	got   []alertKey // this pass's alerts, normalized
	lat   []int64    // every Process call's latency
	sniff sniffCounts
	end   int64 // when this pass's share finished, on the recorder's clock
}

func (w *infectionWatch) run(p *phase, deadline time.Time, rec *recorder) {
	w.engine, w.sink = newEngine(w.clf, rec)
	var lanes [watchWorkers]lane
	for first := true; first || time.Now().Before(deadline); first = false {
		pass := w.nextPass
		w.nextPass++
		t0 := time.Now()
		var wg sync.WaitGroup
		for k := range lanes {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				w.feed(&lanes[k], w.feeds[k], pass, rec)
			}(k)
		}
		wg.Wait()
		el := time.Since(t0)
		var keys []alertKey
		for k := range lanes {
			// The time a worker waits for the other at the end of the
			// pass is part of the lanes' wall time; a span keeps it out
			// of the unattributed share.
			rec.add(stWait, lanes[k].end, false)
			keys = append(keys, lanes[k].got...)
		}
		p.attempted += w.count.txs
		p.verdicts(keys, w.want)
		p.pass(w.count.txs, el)
	}
	for k := range lanes {
		p.lat = append(p.lat, lanes[k].lat...)
		p.sniff.bodies += lanes[k].sniff.bodies
		p.sniff.bytes += lanes[k].sniff.bytes
		p.sniff.hits += lanes[k].sniff.hits
	}
	st := w.engine.Stats()
	p.engine(st)
	p.journal(w.sink, st.Alerts)
}

// feed runs one worker's share of a pass in closed loop: each
// transaction, moved onto the pass's clients and clock, goes to Process
// only after the previous one returned.
func (w *infectionWatch) feed(l *lane, feed []httpstream.Transaction, pass int, rec *recorder) {
	shift := time.Duration(pass) * passGap
	base := pass * w.n
	l.got = l.got[:0]
	for _, tx := range feed {
		episode := clientIndex(tx.ClientIP)
		tx.ClientIP = clientAddr(base + episode)
		tx.ReqTime = tx.ReqTime.Add(shift)
		tx.RespTime = tx.RespTime.Add(shift)
		if rec != nil && sniffable(&tx) {
			t := rec.now()
			l.sniff.add(&tx)
			rec.add(stWCGSniff, t, false)
		}
		t := rec.now()
		t0 := time.Now()
		alerts := w.engine.Process(tx)
		l.lat = append(l.lat, int64(time.Since(t0)))
		rec.add(stDetector, t, false)
		for _, a := range alerts {
			key := keyOf(a, shift)
			key.client = episode
			if a.Client != tx.ClientIP {
				key.client = -1 // another client's alert: never in the reference
			}
			l.got = append(l.got, key)
		}
	}
	l.end = rec.now()
}
