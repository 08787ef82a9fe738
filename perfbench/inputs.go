package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"os"
	"sort"
	"time"

	"dynaminer"
	"dynaminer/internal/detector"
	"dynaminer/internal/httpstream"
	"dynaminer/internal/obs"
	"dynaminer/internal/pcap"
	"dynaminer/internal/synth"
	"dynaminer/internal/wcg"
)

// sizes fixes how much input each workload generates. The benchmark runs
// at defaultSizes; the package's tests use tinySizes.
type sizes struct {
	tapInfections, tapBenign           int // episodes in the tap capture
	watchEpisodes                      int // infection episodes per infection-watch pass
	forensicInfections, forensicBenign int // one capture each
	trainInfections, trainBenign       int // training corpus
	setupReps                          int // set-ups per run; setup_s is their median
}

var defaultSizes = sizes{
	tapInfections: 6, tapBenign: 194,
	watchEpisodes:      512,
	forensicInfections: 44, forensicBenign: 56, // the paper's 770:980
	trainInfections: 77, trainBenign: 98,
	setupReps: 3,
}

// epoch anchors every re-based timeline.
var epoch = time.Date(2016, 3, 1, 8, 0, 0, 0, time.UTC)

// window is the span over which re-based episodes start, so that the
// clients of one capture or pass hold engine state at the same time.
const window = 10 * time.Minute

// train fits the model the monitoring workloads serve (monitor == true,
// the clue-subset representation the engine scores) or the offline
// whole-capture model forensic-batch uses, on a corpus of its own.
func train(seed int64, sz sizes, monitor bool) (*dynaminer.Classifier, error) {
	eps := synth.GenerateCorpus(synth.Config{
		Seed: seed ^ 0x5eed, Infections: sz.trainInfections, Benign: sz.trainBenign,
	})
	cfg := dynaminer.TrainConfig{Seed: seed}
	if monitor {
		return dynaminer.TrainForMonitoring(eps, cfg)
	}
	return dynaminer.Train(eps, cfg)
}

// engineConfig is the engine configuration the CLI deploys: default
// thresholds, windows and shard count, the default trusted vendors.
func engineConfig() detector.Config {
	return detector.Config{TrustedVendors: detector.DefaultTrustedVendors}
}

// newEngine builds the engine a pass or phase runs against, as
// dynaminer.NewMonitor builds it, with an alert journal onto a counting
// sink. When rec is set the engine scores through a timed scorer and the
// sink times its writes.
func newEngine(clf *dynaminer.Classifier, rec *recorder) (*detector.ShardedEngine, *journalSink) {
	sink := &journalSink{rec: rec}
	cfg := engineConfig()
	cfg.Journal = obs.NewJournalWriter(sink)
	var model detector.Scorer = clf.FlatForest()
	if rec != nil {
		model = &timedScorer{model: clf.FlatForest(), rec: rec}
	}
	return detector.NewSharded(cfg, model), sink
}

// clientAddr is the address of the n-th simulated client.
func clientAddr(n int) netip.Addr {
	u := uint32(10<<24) + uint32(n)%(1<<24)
	return netip.AddrFrom4([4]byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)})
}

// clientIndex inverts clientAddr.
func clientIndex(a netip.Addr) int {
	b := a.As4()
	return int(uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
}

// rebase moves an episode onto client and shifts it to start at start,
// truncated to the capture format's microsecond resolution.
func rebase(ep *synth.Episode, client netip.Addr, start time.Time) {
	if len(ep.Txs) == 0 {
		return
	}
	shift := start.Sub(ep.Txs[0].ReqTime)
	for i := range ep.Txs {
		tx := &ep.Txs[i]
		tx.ClientIP = client
		tx.ReqTime = tx.ReqTime.Add(shift).Truncate(time.Microsecond)
		tx.RespTime = tx.RespTime.Add(shift).Truncate(time.Microsecond)
	}
}

// writeCapture renders episodes as one time-ordered classic pcap file
// and returns its size in bytes.
func writeCapture(path string, eps []synth.Episode) (int64, error) {
	var pkts []pcap.Packet
	for i := range eps {
		for _, c := range eps[i].Conversations() {
			p, err := pcap.BuildConversation(c)
			if err != nil {
				return 0, fmt.Errorf("episode %d: %w", i, err)
			}
			pkts = append(pkts, p...)
		}
	}
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Timestamp.Before(pkts[j].Timestamp) })
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	pw := pcap.NewWriter(bw)
	for _, p := range pkts {
		if err := pw.WritePacket(p); err != nil {
			return 0, fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := pw.Flush(); err != nil {
		return 0, fmt.Errorf("write %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("write %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), f.Close()
}

// readReference parses a capture by the unpooled path — the classic
// reader and the garbage-collected assembler — that the timed phase does
// not take.
func readReference(path string) ([]httpstream.Transaction, int, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	pkts, err := pcap.ReadAll(bufio.NewReader(f))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("read %s: %w", path, err)
	}
	streams := pcap.AssembleStreams(pkts)
	return httpstream.ExtractAll(streams), len(pkts), len(streams), nil
}

// sniffCounts is the body-sniffing work a transaction set carries: the
// HTML/JS bodies the engine and the graph builder scan, their bytes, and
// how many of them yield at least one redirect.
type sniffCounts struct {
	bodies, bytes, hits int64
}

func sniffable(tx *httpstream.Transaction) bool {
	if len(tx.Body) == 0 {
		return false
	}
	p := wcg.ClassifyPayload(tx.URI, tx.ContentType)
	return p == wcg.PayloadHTML || p == wcg.PayloadJS
}

// scan runs the body sniffer over every sniffable body of txs, as the
// engine and the graph builder do internally, and counts the work. The
// traced phases call it as a shadow of the sniff the engine hides.
func (c *sniffCounts) scan(txs []httpstream.Transaction) {
	for i := range txs {
		c.add(&txs[i])
	}
}

func (c *sniffCounts) add(tx *httpstream.Transaction) {
	if !sniffable(tx) {
		return
	}
	c.bodies++
	c.bytes += int64(len(tx.Body))
	if len(wcg.SniffBodyRedirects(tx.Body)) > 0 {
		c.hits++
	}
}

// alertKey is an alert reduced to what must not depend on sharding,
// batching, tracing or the pass it was raised in: the episode (client),
// the time relative to the pass, the trigger, the exact score and the
// graph shape. Cluster IDs are shard-strided, so they are left out.
type alertKey struct {
	client  int
	at      time.Duration
	host    string
	payload wcg.PayloadClass
	score   uint64
	order   int
	size    int
}

// alertDiff counts the alerts in got and want that have no equal partner
// in the other.
func alertDiff(got, want []alertKey) int64 {
	m := make(map[alertKey]int, len(want))
	for _, k := range want {
		m[k]++
	}
	var bad int64
	for _, k := range got {
		if m[k] > 0 {
			m[k]--
			continue
		}
		bad++
	}
	for _, n := range m {
		bad += int64(n)
	}
	return bad
}

// poolFactor is how many candidate episodes set-up generates per episode
// it keeps.
const poolFactor = 10

// refSeed draws the reference pool every seed's selection is matched to.
const refSeed = 0x7e57

// choices is how many of the pool episodes nearest a target cost a
// stratum may choose from.
const choices = 5

// reference summarizes a pool drawn from refSeed: its episodes' sorted
// costs and their summed size.
type reference struct {
	costs []int
	size  episodeSize
}

func newReference(eps []synth.Episode, costs []int) reference {
	r := reference{costs: append([]int(nil), costs...)}
	sort.Ints(r.costs)
	for i := range eps {
		r.size.add(sizeOf(&eps[i]), 1)
	}
	return r
}

// pick keeps n episodes of pool (costs holds one cost per episode) whose
// cost distribution, transaction count and body bytes match ref. The
// reference's sorted costs are cut into n equal strata; for each, one of
// the pool episodes nearest the stratum's middle cost is kept, chosen so
// that the kept episodes' transactions and body bytes sum to the
// reference's means times n. The seed still changes every episode, but the work of a pass
// hardly moves from seed to seed, and neither do the measured figures.
// The episodes come back in cost order.
func pick(pool []synth.Episode, costs []int, ref reference, n int) []synth.Episode {
	idx := make([]int, len(pool))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return costs[idx[a]] < costs[idx[b]] })
	m := len(ref.costs)
	var size episodeSize
	wantSize := episodeSize{tx: ref.size.tx * n / m, bytes: ref.size.bytes * n / m}
	used := make([]bool, len(pool))
	nearest := func(cands []int, target int) int {
		best := -1
		for _, c := range cands {
			if !used[c] && (best < 0 || abs(costs[c]-target) < abs(costs[best]-target)) {
				best = c
			}
		}
		return best
	}
	windows := make([][]int, n)
	chosen := make([]int, n)
	for i := range chosen {
		target := ref.costs[(i*m/n+(i+1)*m/n)/2]
		at := sort.Search(len(idx), func(k int) bool { return costs[idx[k]] >= target })
		lo := max(0, min(at-choices/2, len(idx)-choices))
		windows[i] = idx[lo:min(lo+choices, len(idx))]
		if chosen[i] = nearest(windows[i], target); chosen[i] < 0 {
			chosen[i] = nearest(idx, target) // every neighbour taken
		}
		used[chosen[i]] = true
		size.add(sizeOf(&pool[chosen[i]]), 1)
	}
	for sweep := 0; sweep < 4; sweep++ {
		for i := range chosen {
			for _, c := range windows[i] {
				if used[c] {
					continue
				}
				next := size
				next.add(sizeOf(&pool[chosen[i]]), -1)
				next.add(sizeOf(&pool[c]), 1)
				if next.off(wantSize) < size.off(wantSize) {
					used[chosen[i]], used[c] = false, true
					chosen[i], size = c, next
				}
			}
		}
	}
	out := make([]synth.Episode, n)
	for i, c := range chosen {
		out[i] = pool[c]
	}
	return out
}

// episodeSize is the amount of input an episode or a pass carries: its
// transactions, which the engine holds, and its body bytes as a capture
// renders them, which the capture layers carry and the engine retains.
type episodeSize struct{ tx, bytes int }

func sizeOf(ep *synth.Episode) episodeSize {
	s := episodeSize{tx: len(ep.Txs)}
	for i := range ep.Txs {
		s.bytes += renderedBody(&ep.Txs[i])
	}
	return s
}

func (s *episodeSize) add(o episodeSize, sign int) {
	s.tx += sign * o.tx
	s.bytes += sign * o.bytes
}

// off is the relative distance of s from want.
func (s episodeSize) off(want episodeSize) float64 {
	d := math.Abs(float64(s.tx-want.tx)) / float64(max(want.tx, 1))
	return d + math.Abs(float64(s.bytes-want.bytes))/float64(max(want.bytes, 1))
}

// renderedBody is the length of a transaction's body in a capture.
func renderedBody(tx *httpstream.Transaction) int {
	if len(tx.Body) > 0 {
		return len(tx.Body)
	}
	return min(tx.BodySize, maxCaptureBody)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// captureCost estimates the time an episode's capture costs, in units of
// one byte of body sniffing: the HTML/JS bytes the sniffer scans, every
// body byte the capture layers carry (about 1/46 of a sniffed byte each)
// and a per-transaction parse and clustering cost of about 600 sniffed
// bytes, as measured on the workloads' own traces.
func captureCost(ep *synth.Episode) int {
	cost := 0
	for i := range ep.Txs {
		tx := &ep.Txs[i]
		n := renderedBody(tx)
		cost += n/46 + 600
		if p := wcg.ClassifyPayload(tx.URI, tx.ContentType); p == wcg.PayloadHTML || p == wcg.PayloadJS {
			cost += n
		}
	}
	return cost
}

// corpus draws infections and benign episodes from seed, each kind
// picked by captureCost out of a pool poolFactor times larger, in cost
// order. Callers give episode i client address i: the engine shards by a
// hash of the address, so keeping the cost order keeps each shard's load
// the same for every seed.
func corpus(seed int64, infections, benign int) []synth.Episode {
	split := func(seed int64) (inf, ben []synth.Episode) {
		for _, ep := range synth.GenerateCorpus(synth.Config{Seed: seed, Infections: poolFactor * infections, Benign: poolFactor * benign}) {
			if ep.Infection {
				inf = append(inf, ep)
			} else {
				ben = append(ben, ep)
			}
		}
		return inf, ben
	}
	refInf, refBen := split(refSeed)
	infRef := newReference(refInf, captureCosts(refInf))
	benRef := newReference(refBen, captureCosts(refBen))
	inf, ben := split(seed)
	return append(pick(inf, captureCosts(inf), infRef, infections), pick(ben, captureCosts(ben), benRef, benign)...)
}

func captureCosts(eps []synth.Episode) []int {
	costs := make([]int, len(eps))
	for i := range eps {
		costs[i] = captureCost(&eps[i])
	}
	return costs
}

// pickFamilies draws n infection families with the Table I shares.
func pickFamilies(n int, rng *rand.Rand) []string {
	total := 0
	for _, f := range synth.Families {
		total += f.Weight
	}
	out := make([]string, n)
	for i := range out {
		r := rng.Intn(total)
		for _, f := range synth.Families {
			if r < f.Weight {
				out[i] = f.Name
				break
			}
			r -= f.Weight
		}
	}
	return out
}
