// Fixture: every line marked `want` must be flagged by metricname.
package fixtures

type registry struct{}

func (registry) Counter(name, help string) int                { return 0 }
func (registry) Gauge(name, help string) int                  { return 0 }
func (registry) Histogram(name, help string, b []float64) int { return 0 }
func (registry) GaugeVec(name, help, label string) int        { return 0 }

func badNames(reg registry) {
	reg.Counter("dynaminer_Requests_total", "mixed case")         // want "not snake_case"
	reg.Counter("dynaminer-relay-seconds", "kebab case")          // want "not snake_case"
	reg.Gauge("_dynaminer_watched_total", "leading _")            // want "not snake_case"
	reg.Gauge("dynaminer__watched_total", "empty segment")        // want "not snake_case"
	reg.Histogram("9th_percentile_seconds", "leading digit", nil) // want "not snake_case"
}

func badSuffixes(reg registry) {
	reg.Counter("dynaminer_requests", "no unit")           // want "lacks a unit suffix"
	reg.Histogram("dynaminer_relay_ms", "wrong unit", nil) // want "lacks a unit suffix"
	reg.Gauge("dynaminer_watched_count", "wrong unit")     // want "lacks a unit suffix"
}

func duplicates(reg registry) {
	reg.Counter("dynaminer_alerts_total", "first registration is fine")
	reg.Counter("dynaminer_alerts_total", "copy-paste slip") // want "already registered"
}

func stageNamespace(reg registry) {
	reg.Histogram("dynaminer_stage_ml_score_seconds", "second timer", nil) // want "derived from stage names"
}

func badLabel(reg registry) {
	reg.GaugeVec("dynaminer_breaker_state_total", "ok name",
		"Host-Name") // want "not snake_case"
}

type tracer struct{}

func (tracer) Stage(name string) int { return 0 }

func badSpans(tr tracer) {
	tr.Stage("nodot")             // want "not lowercase dotted"
	tr.Stage("Detector.Classify") // want "not lowercase dotted"
	tr.Stage("features.")         // want "not lowercase dotted"
	tr.Stage("features..rebuild") // want "not lowercase dotted"
	tr.Stage("9th.percentile")    // want "not lowercase dotted"
	tr.Stage("proxy.round-trip")  // want "not lowercase dotted"
}

func duplicateSpans(tr tracer) {
	tr.Stage("detector.classify")
	tr.Stage("detector.classify") // want "already interned"
}
