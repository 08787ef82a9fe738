// Command perfbench measures DynaMiner end to end, from capture bytes or
// live transactions to verdicts, on three seeded workloads, and with
// -trace 1 attributes the time to the layers it passes through. From the
// root of the repository:
//
//	bash perfbench/run.sh --workload tap-replay --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: whether every
// verdict matched its reference, how many operations (transactions) were
// attempted and failed, and the metrics, each with its unit. Set-up,
// per-layer detail and sample counts go to standard error. design.json
// records why each workload exists and which metrics each layer should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"dynaminer/internal/detector"
)

// workload is one set of inputs and the loop that drives them.
type workload interface {
	// run drives whole passes over the inputs until deadline (at least
	// one), recording spans into rec when it is non-nil.
	run(p *phase, deadline time.Time, rec *recorder)
	// lanes is the number of goroutines that call into the program.
	lanes() int
	// tailQuantile is the latency quantile verdict_tail_ms reports: the
	// highest with at least ten samples beyond it in a default run, or
	// the median where a run holds too few samples for any.
	tailQuantile() float64
	// counts is the per-pass work of each layer, fixed by the inputs.
	counts() layerCounts
	// reference is the verdict set every pass must reproduce.
	reference() []alertKey
}

var workloadNames = []string{"tap-replay", "infection-watch", "forensic-batch"}

func setup(name, dir string, seed int64, sz sizes) (workload, error) {
	switch name {
	case "tap-replay":
		return newTapReplay(dir, seed, sz)
	case "infection-watch":
		return newInfectionWatch(seed, sz)
	case "forensic-batch":
		return newForensicBatch(dir, seed, sz)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// layerCounts is the work one pass gives each layer.
type layerCounts struct {
	packets, captureBytes, streams int64
	txs, bodyBytes                 int64
	graphNodes, graphEdges         float64 // per capture, forensic-batch only
}

func (c *layerCounts) add(o layerCounts) {
	c.packets += o.packets
	c.captureBytes += o.captureBytes
	c.streams += o.streams
	c.txs += o.txs
	c.bodyBytes += o.bodyBytes
}

// phase accumulates one timed or traced stretch of passes.
type phase struct {
	passes    int
	tx        int64
	wall      time.Duration
	passRate  []float64 // transactions per second, per pass
	lat       []int64   // nanoseconds per verdict operation
	attempted int64
	failed    int64
	lostTx    int64
	sniff     sniffCounts // shadow-sniffed bodies, traced phases only
	firstPass []alertKey  // verdicts of the first pass, to compare phases
	det       detector.Stats
	records   int64 // journal records and bytes
	bytes     int64
}

func (p *phase) fail(n int64, format string, args ...any) {
	p.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
}

func (p *phase) lost(n int64) {
	p.lostTx += n
	if n != 0 {
		p.fail(n, "pass %d lost %d transactions between generator and capture parse", p.passes, n)
	}
}

func (p *phase) verdicts(got, want []alertKey) {
	if p.passes == 0 {
		p.firstPass = append([]alertKey(nil), got...)
	}
	if bad := alertDiff(got, want); bad > 0 {
		p.fail(bad, "pass %d: %d verdicts differ from the reference", p.passes, bad)
	}
}

func (p *phase) journal(s *journalSink, alerts int) {
	p.records += s.records.Load()
	p.bytes += s.bytes.Load()
	if n := s.records.Load(); n != int64(alerts) {
		p.fail(1, "pass %d: journal holds %d records for %d alerts", p.passes, n, alerts)
	}
}

// engine adds a finished engine's counters; panics and drops are
// failed operations.
func (p *phase) engine(st detector.Stats) {
	addStats(&p.det, st)
	if st.Panics > 0 {
		p.fail(int64(st.Panics), "engine recovered %d panics", st.Panics)
	}
	if st.Dropped > 0 {
		p.fail(int64(st.Dropped), "engine dropped %d transactions", st.Dropped)
	}
}

func (p *phase) pass(tx int64, el time.Duration) {
	p.passes++
	p.tx += tx
	p.passRate = append(p.passRate, float64(tx)/el.Seconds())
}

func addStats(s *detector.Stats, o detector.Stats) {
	s.Transactions += o.Transactions
	s.Weeded += o.Weeded
	s.Clusters += o.Clusters
	s.CluesFired += o.CluesFired
	s.Classifications += o.Classifications
	s.Alerts += o.Alerts
	s.Dropped += o.Dropped
	s.Rebuilds += o.Rebuilds
	s.Panics += o.Panics
	s.Degraded += o.Degraded
	s.Shed += o.Shed
}

// keyOf normalizes an alert raised in a pass shifted by shift.
func keyOf(a detector.Alert, shift time.Duration) alertKey {
	k := alertKey{
		client:  clientIndex(a.Client),
		at:      a.Time.Sub(epoch) - shift,
		host:    a.TriggerHost,
		payload: a.TriggerPayload,
		score:   math.Float64bits(a.Score),
	}
	if a.WCG != nil {
		k.order, k.size = a.WCG.Order(), a.WCG.Size()
	}
	return k
}

// measured is what a phase leaves behind once its samples are reduced.
type measured struct {
	*phase
	wallAll  time.Duration // the phase's wall time summed over lanes
	mallocs  uint64
	alloc    uint64
	gcCycles uint32
	gcPause  time.Duration
	heapMB   float64
	q        float64 // the tail quantile
	p50, pq  float64 // verdict latency quantiles, milliseconds
	samples  int
	lt       layerTimes
}

// measure runs one phase from a collected heap and reduces it. The
// retained heap is read after the latency samples are dropped, with the
// workload (and so its engine) still referenced.
func measure(w workload, seconds float64, rec *recorder) measured {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := &phase{}
	t0 := time.Now()
	w.run(p, t0.Add(time.Duration(seconds*float64(time.Second))), rec)
	p.wall = time.Since(t0)
	runtime.ReadMemStats(&after)
	m := measured{
		phase:    p,
		wallAll:  p.wall * time.Duration(w.lanes()),
		mallocs:  after.Mallocs - before.Mallocs,
		alloc:    after.TotalAlloc - before.TotalAlloc,
		gcCycles: after.NumGC - before.NumGC,
		gcPause:  time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		samples:  len(p.lat),
		q:        w.tailQuantile(),
	}
	sort.Slice(p.lat, func(i, j int) bool { return p.lat[i] < p.lat[j] })
	m.p50 = quantile(p.lat, 0.5) / 1e6
	m.pq = quantile(p.lat, m.q) / 1e6
	p.lat = nil
	if rec != nil {
		m.lt = rec.reduce(w.lanes())
	}
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so pooled scratch does not blur the
	// figure.
	runtime.GC()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	m.heapMB = float64(live.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(w)
	return m
}

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	f := pos - float64(i)
	return float64(sorted[i])*(1-f) + float64(sorted[i+1])*f
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench sets the workload up sz.setupReps times, keeping the last set-up,
// and runs it: one timed phase of the given length, or with traced set
// an untraced and a traced phase of half the length each.
func bench(name, dir string, seed int64, seconds float64, traced bool, sz sizes) (result, error) {
	var w workload
	var setups []float64
	var unsteady int64 // reference verdicts a repeated set-up did not reproduce
	for i := 0; i < sz.setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		next, err := setup(name, dir, seed, sz)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if w != nil {
			if bad := alertDiff(next.reference(), w.reference()); bad > 0 {
				unsteady += bad
				fmt.Fprintf(os.Stderr, "perfbench: FAIL repeated set-ups of seed %d differ in %d reference verdicts\n", seed, bad)
			}
		}
		w = next
	}
	setupS := median(setups)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: set-up %.3fs (median of %d), %d reference verdicts per pass\n",
		name, seed, setupS, len(setups), len(w.reference()))

	if !traced {
		m := measure(w, seconds, nil)
		report(os.Stderr, name, "timed", m)
		failed := m.failed + unsteady
		return result{
			Correct: failed == 0, Attempted: m.attempted, Failed: failed,
			Metrics: endToEnd(m, setupS),
		}, nil
	}
	u := measure(w, seconds/2, nil)
	report(os.Stderr, name, "untraced", u)
	t := measure(w, seconds/2, newRecorder())
	report(os.Stderr, name, "traced", t)
	t.lt.write(os.Stderr, t.wallAll)
	failed := u.failed + t.failed + unsteady
	if bad := alertDiff(t.firstPass, u.firstPass); bad > 0 {
		failed += bad
		fmt.Fprintf(os.Stderr, "perfbench: FAIL traced run raised %d verdicts the untraced run did not\n", bad)
	}
	attempted := u.attempted + t.attempted
	return result{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: perLayer(w.counts(), u, t, float64(failed)/float64(attempted)),
	}, nil
}

func endToEnd(m measured, setupS float64) map[string]metric {
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"tx_per_s":         {median(m.passRate), "1/s"},
		"verdict_p50_ms":   {m.p50, "ms"},
		"verdict_tail_ms":  {m.pq, "ms"},
		"allocs_per_tx":    {float64(m.mallocs) / float64(m.tx), "count"},
		"retained_heap_mb": {m.heapMB, "MiB"},
	}
}

// perLayer reduces a traced phase t, with its untraced twin u, to the
// per-layer metrics. Counts are per pass; times are per unit of the
// layer's work.
func perLayer(c layerCounts, u, t measured, failedRatio float64) map[string]metric {
	lt := t.lt
	// per is a stage's time per unit of its work, 0 where the workload
	// does not run the stage.
	per := func(st stage, ns int64, n float64) float64 {
		if lt.count[st] == 0 || n == 0 {
			return 0
		}
		return float64(ns) / n
	}
	passes := float64(t.passes)
	d := t.det
	perPass := func(n int) float64 { return float64(n) / passes }
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	sc := t.sniff
	sniffHit := 0.0
	if sc.bodies > 0 {
		sniffHit = float64(sc.hits) / float64(sc.bodies)
	}
	packets := float64(c.packets) * passes
	txs := float64(t.tx)
	unattributed := float64(int64(t.wallAll)-lt.attributed()) / float64(t.wallAll)
	overhead := (t.wall.Seconds()/float64(t.tx))/(u.wall.Seconds()/float64(u.tx)) - 1
	return map[string]metric{
		"pcap.packets":                       {float64(c.packets), "count"},
		"pcap.bytes":                         {float64(c.captureBytes), "B"},
		"pcap.decode_ns_per_packet":          {per(stPCAPDecode, lt.total[stPCAPDecode], packets), "ns"},
		"pcap.reassembly_ns_per_packet":      {per(stPCAPReassembly, lt.total[stPCAPReassembly], packets), "ns"},
		"pcap.streams":                       {float64(c.streams), "count"},
		"httpstream.transactions":            {float64(c.txs), "count"},
		"httpstream.parse_ns_per_tx":         {per(stHTTPParse, lt.total[stHTTPParse], txs), "ns"},
		"httpstream.body_bytes":              {float64(c.bodyBytes), "B"},
		"httpstream.lost_tx":                 {float64(t.lostTx) / passes, "count"},
		"wcg.sniff_bodies":                   {float64(sc.bodies) / passes, "count"},
		"wcg.sniff_bytes":                    {float64(sc.bytes) / passes, "B"},
		"wcg.sniff_ns_per_kb":                {per(stWCGSniff, lt.total[stWCGSniff], float64(sc.bytes)/1024), "ns"},
		"wcg.sniff_hit_ratio":                {sniffHit, "ratio"},
		"wcg.build_ns_per_tx":                {per(stWCGBuild, lt.total[stWCGBuild], txs), "ns"},
		"features.extract_ns_per_capture":    {per(stFeatures, lt.total[stFeatures], float64(lt.count[stFeatures])), "ns"},
		"features.graph_nodes_mean":          {c.graphNodes, "count"},
		"features.graph_edges_mean":          {c.graphEdges, "count"},
		"ml.vectors_scored":                  {float64(lt.count[stScore]) / passes, "count"},
		"ml.score_ns_per_vector":             {per(stScore, lt.total[stScore], float64(lt.count[stScore])), "ns"},
		"detector.self_ns_per_tx":            {per(stDetector, lt.self[stDetector], txs), "ns"},
		"detector.clusters":                  {perPass(d.Clusters), "count"},
		"detector.clues_fired":               {perPass(d.CluesFired), "count"},
		"detector.classifications":           {perPass(d.Classifications), "count"},
		"detector.classifications_per_tx":    {ratio(d.Classifications, d.Transactions), "ratio"},
		"detector.alerts":                    {perPass(d.Alerts), "count"},
		"detector.alerts_per_classification": {ratio(d.Alerts, d.Classifications), "ratio"},
		"detector.rebuilds":                  {perPass(d.Rebuilds), "count"},
		"detector.weeded":                    {perPass(d.Weeded), "count"},
		"detector.dropped":                   {perPass(d.Dropped), "count"},
		"detector.panics":                    {perPass(d.Panics), "count"},
		"detector.degraded":                  {perPass(d.Degraded), "count"},
		"detector.shed":                      {perPass(d.Shed), "count"},
		"obs.journal_records":                {float64(t.records) / passes, "count"},
		"obs.journal_bytes":                  {float64(t.bytes) / passes, "B"},
		"obs.journal_write_ns_per_record":    {per(stJournal, lt.total[stJournal], float64(lt.count[stJournal])), "ns"},
		"runtime.gc_cycles":                  {float64(u.gcCycles) / float64(u.tx) * 1000, "1/ktx"},
		"runtime.gc_pause_ms":                {u.gcPause.Seconds() * 1000 / float64(u.tx) * 1000, "ms/ktx"},
		"runtime.alloc_bytes_per_tx":         {float64(u.alloc) / float64(u.tx), "B"},
		"trace.unattributed_share":           {unattributed, "ratio"},
		"trace.overhead_share":               {overhead, "ratio"},
		"bench.failed_ratio":                 {failedRatio, "ratio"},
		"bench.verdict_samples":              {float64(u.samples), "count"},
	}
}

func report(f *os.File, name, kind string, m measured) {
	rates := append([]float64(nil), m.passRate...)
	sort.Float64s(rates)
	fmt.Fprintf(f, "perfbench: %s %s: %d passes, %d tx in %.2fs (tx/s per pass: min %.0f, median %.0f, max %.0f); verdict p50 %.4f ms, tail (q%.2f) %.4f ms over %d samples; %d failed of %d\n",
		name, kind, m.passes, m.tx, m.wall.Seconds(), rates[0], median(rates), rates[len(rates)-1], m.p50, m.q, m.pq, m.samples, m.failed, m.attempted)
}

func main() {
	var (
		name    = flag.String("workload", "tap-replay", fmt.Sprintf("workload: one of %v", workloadNames))
		seed    = flag.Int64("seed", 1, "input seed; equal seeds give equal inputs")
		seconds = flag.Float64("seconds", 10, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 runs an untraced and a traced phase and prints the per-layer metrics")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(".", ".bench_work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := bench(*name, dir, *seed, *seconds, *trace == 1, defaultSizes)
	if rmErr := os.RemoveAll(dir); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", rmErr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
