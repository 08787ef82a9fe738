package detector

import "dynaminer/internal/obs"

// engineMetrics binds one Engine to an observability registry. Every
// Stats field is backed by a per-engine Cell on a registry-wide counter
// family: the shards of a ShardedEngine each write their own cell with
// no cache-line contention, each shard's Stats() view reads back exactly
// its own increments, and the registry's Counter.Value sums all shards
// for the /metrics total. The watched gauge is shared across shards (it
// is concurrency-safe and has no per-shard view); so are the stage
// latency histograms (engineStages).
type engineMetrics struct {
	reg *obs.Registry

	transactions    *obs.Cell
	weeded          *obs.Cell
	clusters        *obs.Cell
	evicted         *obs.Cell
	cluesFired      *obs.Cell
	classifications *obs.Cell
	alerts          *obs.Cell
	dropped         *obs.Cell
	rebuilds        *obs.Cell
	panics          *obs.Cell
	quarantined     *obs.Cell
	degraded        *obs.Cell
	shed            *obs.Cell

	// watched tracks potential-infection WCGs currently under watch; it
	// moves at clue firings, watch closes, shedding and eviction.
	watched *obs.Gauge
}

// newEngineMetrics registers (or re-binds to) the detector metric
// families on reg and allocates this engine's private counter cells. A
// nil reg gets a private registry, so counters and the Stats view work
// identically whether or not observability is exported.
func newEngineMetrics(reg *obs.Registry) *engineMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	cell := func(name, help string) *obs.Cell {
		return reg.Counter(name, help).NewCell()
	}
	return &engineMetrics{
		reg:             reg,
		transactions:    cell("dynaminer_detector_transactions_total", "Transactions ingested by the detection engine."),
		weeded:          cell("dynaminer_detector_weeded_total", "Transactions weeded out as trusted-vendor traffic."),
		clusters:        cell("dynaminer_detector_clusters_total", "Session clusters opened."),
		evicted:         cell("dynaminer_detector_evicted_total", "Session clusters evicted (TTL, janitor, or quarantine ladder)."),
		cluesFired:      cell("dynaminer_detector_clues_fired_total", "Infection clues fired (redirect chain + payload download)."),
		classifications: cell("dynaminer_detector_classifications_total", "Classifier invocations over watched WCGs."),
		alerts:          cell("dynaminer_detector_alerts_total", "Infection alerts emitted."),
		dropped:         cell("dynaminer_detector_dropped_total", "Transactions dropped by the MaxClusterTxs cap."),
		rebuilds:        cell("dynaminer_detector_rebuilds_total", "Classifications served by the from-scratch rebuild path."),
		panics:          cell("dynaminer_detector_panics_total", "Recovered per-transaction faults (panics and non-finite scores)."),
		quarantined:     cell("dynaminer_detector_quarantined_total", "Clusters placed in quarantine after their first fault."),
		degraded:        cell("dynaminer_detector_degraded_total", "Watched-WCG updates skipped in degraded mode."),
		shed:            cell("dynaminer_detector_shed_total", "Watches closed early to hold the MaxWatched ceiling."),
		watched: reg.Gauge("dynaminer_detector_watched_total",
			"Potential-infection WCGs currently under watch."),
	}
}

// engineStages holds the detector's pipeline stages, resolved once at
// engine construction on the engine's registry. The engine times
// classify, feature extraction and scoring itself whenever it reads a
// clock, traced or not. detector.process and journal.write are timed by
// their spans alone, so they exist only on a traced engine.
type engineStages struct {
	process     *obs.Stage
	classify    *obs.Stage
	featInc     *obs.Stage
	featRebuild *obs.Stage
	score       *obs.Stage
	journal     *obs.Stage
}

func newEngineStages(reg *obs.Registry, traced bool) engineStages {
	s := engineStages{
		classify:    reg.Stage("detector.classify"),
		featInc:     reg.Stage("features.incremental"),
		featRebuild: reg.Stage("features.rebuild"),
		score:       reg.Stage("ml.score"),
	}
	if traced {
		s.process = reg.Stage("detector.process")
		s.journal = reg.Stage("journal.write")
	}
	return s
}
