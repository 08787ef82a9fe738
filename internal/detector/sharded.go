package detector

import (
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"time"

	"dynaminer/internal/httpstream"
	"dynaminer/internal/ml"
	"dynaminer/internal/obs"
)

// ShardedEngine partitions the streaming detector across N independent
// Engine shards so concurrent capture points (e.g. the proxy's request
// handlers) classify in parallel. Every transaction is routed by a hash of
// its client IP, so all of a client's session clusters live in exactly one
// shard and each client's alert stream is identical to what a single
// Engine would produce — sharding changes throughput, not verdicts. Each
// shard is guarded by its own mutex; there is no cross-shard state, so no
// lock is ever held while another is taken.
//
// ShardedEngine is safe for concurrent use.
type ShardedEngine struct {
	shards []*engineShard
	// models is the holder every shard serves from: one atomic swap
	// reaches all shards at once, while each shard's in-flight watches
	// keep their pinned version. Immutable after construction.
	models *modelHolder
	// slabs pools ProcessAll's per-call scratch (the per-transaction result
	// table and per-shard index groups), so steady-state slab ingestion
	// stops allocating scaffolding proportional to the slab size.
	slabs sync.Pool
}

// slabScratch is ProcessAll's pooled working state.
type slabScratch struct {
	results [][]Alert
	groups  [][]int
}

type engineShard struct {
	mu  sync.Mutex
	eng *Engine // guarded by mu
}

// NewSharded returns a ShardedEngine with cfg.Shards shards (zero selects
// runtime.GOMAXPROCS(0)) sharing one trained model. With one shard it
// reproduces a plain Engine exactly, cluster IDs included.
func NewSharded(cfg Config, model Scorer) *ShardedEngine {
	n := cfg.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if cfg.Metrics == nil {
		// All shards must share one registry so the /metrics totals sum
		// their per-shard cells; a private default keeps Registry coherent
		// even when the caller exports nothing.
		cfg.Metrics = obs.NewRegistry()
	}
	s := &ShardedEngine{shards: make([]*engineShard, n)}
	for i := range s.shards {
		eng := New(cfg, model)
		// Stride cluster IDs so IDs stay unique across shards: shard i of
		// n allocates i, i+n, i+2n, ...
		eng.idBase, eng.idStep = i, n
		if i == 0 {
			s.models = eng.models
		} else {
			// All shards serve from shard 0's holder, so one swap reaches
			// every shard and per-shard reload metrics never diverge.
			eng.models = s.models
		}
		s.shards[i] = &engineShard{eng: eng}
	}
	return s
}

// ModelVersion returns the serving model's version (shared by all shards).
func (s *ShardedEngine) ModelVersion() ModelVersion { return s.models.current().version }

// SwapModel validates candidate and atomically swaps it into every shard:
// watches armed before the swap keep their pinned version, watches armed
// after it score with the new model. See Engine.SwapModel.
func (s *ShardedEngine) SwapModel(candidate Scorer) (ModelVersion, error) {
	return s.models.swap(candidate)
}

// ReloadModel loads a candidate through load and swaps it into every
// shard; failures leave the serving model untouched.
func (s *ShardedEngine) ReloadModel(load func() (Scorer, error)) (ModelVersion, error) {
	return s.models.reload(load)
}

// ReloadModelFile reads a model file (DMFB blob or JSON, sniffed) through
// the full semantic screens and hot-swaps it into every shard. On any
// failure — unreadable file, corrupt blob, failed screens, wrong feature
// dimensionality — the serving model keeps scoring and the failure is
// counted in dynaminer_model_reload_failures_total.
func (s *ShardedEngine) ReloadModelFile(path string) (ModelVersion, error) {
	return s.models.reload(func() (Scorer, error) {
		ff, err := ml.LoadModelFile(path)
		if err != nil {
			return nil, err
		}
		return ff, nil
	})
}

// RollbackModel reinstates the previous model under its original version.
func (s *ShardedEngine) RollbackModel() (ModelVersion, error) { return s.models.rollback() }

// NumShards returns the number of engine shards.
func (s *ShardedEngine) NumShards() int { return len(s.shards) }

// Registry returns the observability registry shared by every shard.
func (s *ShardedEngine) Registry() *obs.Registry {
	sh := s.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.eng.Registry()
}

// shardIndex routes a client address to its owning shard: FNV-1a over the
// 16-byte address, so IPv4 and its v6-mapped form land together and the
// assignment is stable for the engine's lifetime.
func (s *ShardedEngine) shardIndex(client netip.Addr) int {
	if len(s.shards) == 1 {
		return 0
	}
	b := client.As16()
	h := uint32(2166136261)
	for _, x := range b {
		h ^= uint32(x)
		h *= 16777619
	}
	return int(h % uint32(len(s.shards)))
}

func (s *ShardedEngine) shardFor(client netip.Addr) *engineShard {
	return s.shards[s.shardIndex(client)]
}

// Process ingests one transaction under its client's shard lock and
// returns any alerts it triggers.
func (s *ShardedEngine) Process(tx httpstream.Transaction) []Alert {
	return s.shardFor(tx.ClientIP).process(tx, nil)
}

// ProcessTraced is Process with an ambient trace; the shard's spans nest
// under the caller's (see Engine.ProcessTraced).
func (s *ShardedEngine) ProcessTraced(tx httpstream.Transaction, at *obs.ActiveTrace) []Alert {
	return s.shardFor(tx.ClientIP).process(tx, at)
}

// process runs one transaction under the shard lock.
func (sh *engineShard) process(tx httpstream.Transaction, at *obs.ActiveTrace) []Alert {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.processTracedLocked(tx, at)
}

// processLocked runs one transaction with a last-resort panic guard; the
// caller holds sh.mu. Engine.Process already recovers per-cluster faults;
// this outer guard catches anything that escapes it (including faults in
// the recovery path itself), so a panic on one shard can never unwind
// into the proxy's request handler and kill the process.
func (sh *engineShard) processLocked(tx httpstream.Transaction) []Alert {
	return sh.processTracedLocked(tx, nil)
}

// processTracedLocked is processLocked with an ambient trace.
func (sh *engineShard) processTracedLocked(tx httpstream.Transaction, at *obs.ActiveTrace) (alerts []Alert) {
	defer func() {
		if r := recover(); r != nil {
			alerts = nil
			sh.eng.mx.panics.Inc()
		}
	}()
	return sh.eng.ProcessTraced(tx, at)
}

// processSlab runs this shard's share of a slab — the transactions of txs
// selected by idxs, or all of them when idxs is nil — under ONE lock
// acquisition, writing each transaction's alerts into results at its
// original index.
func (sh *engineShard) processSlab(txs []httpstream.Transaction, idxs []int, results [][]Alert) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if idxs == nil {
		for i := range txs {
			results[i] = sh.processLocked(txs[i])
		}
		return
	}
	for _, i := range idxs {
		results[i] = sh.processLocked(txs[i])
	}
}

// ProcessAll moves a transaction slab through the engine: transactions
// are grouped by owning shard, each shard processes its group as one
// batch under a single lock acquisition (instead of a lock round-trip per
// transaction), the groups run concurrently, and the per-transaction
// alert slices are merged back in input order. Because every client's
// transactions live in exactly one shard and keep their relative order,
// the merged alert stream is identical to feeding Process one transaction
// at a time.
func (s *ShardedEngine) ProcessAll(txs []httpstream.Transaction) []Alert {
	if len(txs) == 0 {
		return nil
	}
	ws, _ := s.slabs.Get().(*slabScratch)
	if ws == nil {
		ws = &slabScratch{}
	}
	if cap(ws.results) < len(txs) {
		ws.results = make([][]Alert, len(txs))
	}
	results := ws.results[:len(txs)]
	for i := range results {
		results[i] = nil
	}
	if len(s.shards) == 1 {
		s.shards[0].processSlab(txs, nil, results)
	} else {
		if cap(ws.groups) < len(s.shards) {
			ws.groups = make([][]int, len(s.shards))
		}
		groups := ws.groups[:len(s.shards)]
		for i := range groups {
			groups[i] = groups[i][:0]
		}
		for i := range txs {
			si := s.shardIndex(txs[i].ClientIP)
			groups[si] = append(groups[si], i)
		}
		var wg sync.WaitGroup
		for si, idxs := range groups {
			if len(idxs) == 0 {
				continue
			}
			wg.Add(1)
			go func(sh *engineShard, idxs []int) {
				defer wg.Done()
				defer func() {
					// processLocked recovers per transaction; this guard
					// covers the slab plumbing itself so one shard's fault
					// cannot leave the WaitGroup hanging. processSlab's
					// deferred unlock has run by the time a panic lands
					// here, so the lock is free to take.
					if r := recover(); r != nil {
						sh.mu.Lock()
						sh.eng.mx.panics.Inc()
						sh.mu.Unlock()
					}
				}()
				sh.processSlab(txs, idxs, results)
			}(s.shards[si], idxs)
		}
		wg.Wait()
	}
	n := 0
	for _, a := range results {
		n += len(a)
	}
	var alerts []Alert
	if n > 0 {
		alerts = make([]Alert, 0, n)
		for _, a := range results {
			alerts = append(alerts, a...)
		}
	}
	for i := range results {
		results[i] = nil // release alert references before pooling
	}
	s.slabs.Put(ws)
	return alerts
}

// Health reports readiness conditions OR-ed across every shard (any
// shard over budget, quarantined or shedding marks the whole engine),
// with the shared serving model's generation.
func (s *ShardedEngine) Health() obs.HealthStatus {
	var st obs.HealthStatus
	for _, sh := range s.shards {
		sh.mu.Lock()
		h := sh.eng.Health()
		sh.mu.Unlock()
		st.Degraded = st.Degraded || h.Degraded
		st.Quarantined = st.Quarantined || h.Quarantined
		st.Shedding = st.Shedding || h.Shedding
		st.ModelVersion = h.ModelVersion
	}
	return st
}

// Stats returns the engine counters aggregated across all shards.
func (s *ShardedEngine) Stats() Stats {
	var total Stats
	for _, sh := range s.shards {
		sh.mu.Lock()
		total.add(sh.eng.Stats())
		sh.mu.Unlock()
	}
	return total
}

// Watched returns snapshots of every potential-infection WCG currently
// being grown, merged across shards and ordered by cluster ID.
func (s *ShardedEngine) Watched() []WatchedWCG {
	var out []WatchedWCG
	for _, sh := range s.shards {
		sh.mu.Lock()
		out = append(out, sh.eng.Watched()...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ClusterID < out[j].ClusterID })
	return out
}

// EvictIdle fans the sweep out to every shard and returns the total number
// of session clusters removed.
func (s *ShardedEngine) EvictIdle(cutoff time.Time) int {
	evicted := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		evicted += sh.eng.EvictIdle(cutoff)
		sh.mu.Unlock()
	}
	return evicted
}
