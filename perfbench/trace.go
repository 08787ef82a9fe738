package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dynaminer/internal/detector"
)

// stage names one layer boundary the benchmark times from outside the
// program.
type stage uint8

const (
	stPCAPDecode     stage = iota // pcap.ReadAllAuto: capture file to packets
	stPCAPReassembly              // pcap.AssembleStreamsInto: frames to TCP streams
	stHTTPParse                   // httpstream.ExtractAll: streams to transactions
	stWCGSniff                    // shadow wcg.SniffBodyRedirects over HTML/JS bodies
	stWCGBuild                    // wcg.FromTransactions
	stFeatures                    // features.Extract
	stScore                       // Scorer.Score / ScoreWithVotes
	stDetector                    // Process / ProcessAll
	stJournal                     // the journal's sink Write
	stWait                        // a worker waiting at the pass barrier
	numStages
)

// span is one timed call. Times are nanoseconds since the recorder's
// origin. inner marks a score call made from inside the engine, as
// opposed to the forensic path's direct call.
type span struct {
	start, end int64
	st         stage
	inner      bool
}

// recorder keeps every span of a traced phase in memory; the benchmark
// reduces them to per-layer figures when the phase ends. A nil recorder
// records nothing, so untraced phases pay one nil check per boundary.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span // guarded by mu
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.origin))
}

func (r *recorder) add(st stage, start int64, inner bool) {
	if r == nil {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{start: start, end: end, st: st, inner: inner})
	r.mu.Unlock()
}

var stageNames = [numStages]string{
	"pcap.decode", "pcap.reassembly", "httpstream.parse", "wcg.sniff (shadow)",
	"wcg.build", "features.extract", "ml.score", "detector", "obs.journal_write", "bench.wait",
}

// layerTimes is the reduction of a traced phase. total and count are per
// stage: the summed span time and the number of spans. self is each
// stage's share of the lanes' wall time: a top-level span's own length;
// for the detector, its spans minus the part its child spans (engine
// calls into the scorer and the journal sink) cover; for those children,
// that covered part, split in proportion to their totals. The self times
// plus the unattributed time therefore add up to the wall time exactly.
type layerTimes struct {
	total, count, self [numStages]int64
}

// reduce folds the spans and drops them. With one lane (a single caller of the engine)
// the children of a detector span may run concurrently on shard
// goroutines, so their cover is the union of their intervals; with
// several lanes each child runs synchronously inside its own caller's
// span, so the cover is their plain sum.
func (r *recorder) reduce(lanes int) layerTimes {
	r.mu.Lock()
	spans := r.spans
	r.spans = nil
	r.mu.Unlock()
	var lt layerTimes
	var parents, kids []span
	var kidTotal int64
	for _, s := range spans {
		d := s.end - s.start
		lt.total[s.st] += d
		lt.count[s.st]++
		switch {
		case s.st == stJournal || (s.st == stScore && s.inner):
			// A call the engine made into a seam the benchmark owns: a
			// child of the detector span around it.
			kids = append(kids, s)
			kidTotal += d
		case s.st == stDetector:
			parents = append(parents, s)
		default:
			lt.self[s.st] += d
		}
	}
	cover := kidTotal
	if lanes == 1 {
		cover = unionWithin(parents, kids)
	}
	lt.self[stDetector] = lt.total[stDetector] - cover
	for _, k := range kids {
		lt.self[k.st] += int64(float64(cover) * float64(k.end-k.start) / float64(kidTotal))
	}
	return lt
}

// attributed is the summed self time of every stage.
func (lt *layerTimes) attributed() int64 {
	var n int64
	for _, v := range lt.self {
		n += v
	}
	return n
}

// write prints the traced phase's time per stage as shares of the lanes'
// wall time, with the unattributed rest.
func (lt *layerTimes) write(w io.Writer, wall time.Duration) {
	for st, v := range lt.self {
		if lt.count[st] == 0 {
			continue
		}
		fmt.Fprintf(w, "perfbench:   %-20s %9d spans %10.1f ms self %6.2f%%\n",
			stageNames[st], lt.count[st], float64(v)/1e6, 100*float64(v)/float64(wall))
	}
	rest := int64(wall) - lt.attributed()
	fmt.Fprintf(w, "perfbench:   %-20s %9s       %10.1f ms      %6.2f%% of %.1f ms lane wall time\n",
		"unattributed", "", float64(rest)/1e6, 100*float64(rest)/float64(wall), float64(wall)/1e6)
}

// unionWithin is the length of the union of the kids' intervals, clipped
// to the parents' intervals. The parents of one lane never overlap.
func unionWithin(parents, kids []span) int64 {
	sortSpans(parents)
	sortSpans(kids)
	var cover int64
	pi := 0
	var cur span
	open := false
	flush := func() {
		if open {
			cover += cur.end - cur.start
			open = false
		}
	}
	for _, k := range kids {
		for pi < len(parents) && parents[pi].end <= k.start {
			pi++
		}
		if pi == len(parents) {
			break
		}
		p := parents[pi]
		s, e := max(k.start, p.start), min(k.end, p.end)
		if s >= e {
			continue
		}
		if open && s <= cur.end {
			cur.end = max(cur.end, e)
			continue
		}
		flush()
		cur, open = span{start: s, end: e}, true
	}
	flush()
	return cover
}

func sortSpans(s []span) {
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
}

// timedScorer is the scorer handed to a traced engine: it forwards every
// call to the trained forest and records a child span around it.
type timedScorer struct {
	model interface {
		detector.Scorer
		detector.VoteScorer
	}
	rec *recorder
}

func (s *timedScorer) Score(x []float64) float64 {
	t0 := s.rec.now()
	v := s.model.Score(x)
	s.rec.add(stScore, t0, true)
	return v
}

func (s *timedScorer) ScoreWithVotes(x []float64) (float64, int, int) {
	t0 := s.rec.now()
	v, votes, trees := s.model.ScoreWithVotes(x)
	s.rec.add(stScore, t0, true)
	return v, votes, trees
}

// journalSink is the writer under the engine's alert journal. It keeps
// the record and byte counts every run reports and, when rec is set,
// records a child span around each write. The journal serializes its
// writes, but the counts are read by other goroutines, hence atomics.
type journalSink struct {
	rec     *recorder
	records atomic.Int64
	bytes   atomic.Int64
}

func (j *journalSink) Write(p []byte) (int, error) {
	t0 := j.rec.now()
	j.records.Add(1)
	j.bytes.Add(int64(len(p)))
	j.rec.add(stJournal, t0, false)
	return len(p), nil
}
