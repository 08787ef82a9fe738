package detector

import (
	"bytes"
	"sort"
	"testing"
	"time"

	"dynaminer/internal/httpstream"
	"dynaminer/internal/obs"
	"dynaminer/internal/synth"
)

// TestStageHistogramsObserveEveryClassification pins one timer per
// stage over the whole population: whether the engine is untraced,
// head-sampled or promotion-only, the exported stage histograms count
// every classification, scoring and rebuild that Stats counts.
func TestStageHistogramsObserveEveryClassification(t *testing.T) {
	episodes := synth.GenerateCorpus(synth.Config{Seed: 83, Infections: 12, Benign: 8})
	var stream []httpstream.Transaction
	for _, ep := range episodes {
		stream = append(stream, ep.Txs...)
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].ReqTime.Before(stream[j].ReqTime) })
	// An out-of-order arrival on the fixture client forces one fallback
	// from the incremental path to a rebuild.
	stream = append(stream, infectionStream()...)
	stream = append(stream, mkTx("d.evil", "/beacon", "POST", 200, "text/plain", 40, "", 400*time.Millisecond))

	for _, tc := range []struct {
		name   string
		sample int
		traced bool
	}{
		{"metrics-only", 0, false},
		{"traced-sample-64", 64, true},
		{"traced-sample-0", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := Config{RedirectThreshold: 1, ScoreThreshold: 0.3, Metrics: reg}
			if tc.traced {
				cfg.Tracer = obs.NewTracer(reg, obs.TraceConfig{Sample: tc.sample})
			}
			e := New(cfg, vecScorer{})
			e.ProcessAll(stream)
			st := e.Stats()
			if st.Classifications == 0 || st.Rebuilds == 0 || st.Rebuilds == st.Classifications {
				t.Fatalf("stream must exercise both classify paths: %+v", st)
			}

			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			fams, err := obs.ParseExposition(&buf)
			if err != nil {
				t.Fatal(err)
			}
			count := func(family string) int {
				f, ok := fams[family]
				if !ok {
					t.Fatalf("%s not exported", family)
				}
				return int(f.Samples[family+"_count"])
			}
			for family, want := range map[string]int{
				"dynaminer_stage_detector_classify_seconds": st.Classifications,
				"dynaminer_stage_ml_score_seconds":          st.Classifications,
				"dynaminer_stage_features_rebuild_seconds":  st.Rebuilds,
			} {
				if got := count(family); got != want {
					t.Errorf("%s_count = %d, Stats says %d", family, got, want)
				}
			}
			// Every incremental classification plus the failed attempt.
			if got, min := count("dynaminer_stage_features_incremental_seconds"), st.Classifications-st.Rebuilds; got <= min {
				t.Errorf("features.incremental observed %d times, want more than the %d incremental classifications", got, min)
			}
		})
	}
}
