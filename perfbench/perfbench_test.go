package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// tinySizes keeps every workload to a fraction of a second.
var tinySizes = sizes{
	tapInfections: 1, tapBenign: 9,
	watchEpisodes:      6,
	forensicInfections: 2, forensicBenign: 3,
	trainInfections: 20, trainBenign: 25,
	setupReps: 1,
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string, workloads []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range doc.Workloads {
		workloads = append(workloads, w.Name)
	}
	return endToEnd, perLayer, workloads
}

func units(r result) map[string]string {
	out := map[string]string{}
	for name, m := range r.Metrics {
		out[name] = m.Unit
	}
	return out
}

func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	endToEnd, perLayer, names := declared(t)
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			r, err := bench(name, t.TempDir(), 1, 0.05, traced, tinySizes)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if got := units(r); !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v emits %v, want %v", name, traced, got, want)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", name, traced, r.Correct, r.Failed, r.Attempted)
			}
		}
	}
}

func TestCorruptedReferenceFails(t *testing.T) {
	for _, name := range workloadNames {
		w, err := setup(name, t.TempDir(), 1, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		bogus := alertKey{client: -1, host: "never.example"}
		switch w := w.(type) {
		case *tapReplay:
			w.want = append(w.want, bogus)
		case *infectionWatch:
			w.want = append(w.want, bogus)
		case *forensicBatch:
			w.want[0].score ^= 1
		}
		m := measure(w, 0.01, nil)
		if m.failed == 0 || m.failed > m.attempted {
			t.Errorf("%s: %d of %d operations failed against a corrupted reference", name, m.failed, m.attempted)
		}
	}
}

func TestSeedsChangeInputsNotMetricSet(t *testing.T) {
	for _, name := range workloadNames {
		var refs [2][]alertKey
		var counts [2]layerCounts
		var sets [2][]string
		for i, seed := range []int64{1, 2} {
			w, err := setup(name, t.TempDir(), seed, tinySizes)
			if err != nil {
				t.Fatal(err)
			}
			refs[i], counts[i] = w.reference(), w.counts()
			r, err := bench(name, t.TempDir(), seed, 0.01, false, tinySizes)
			if err != nil {
				t.Fatal(err)
			}
			for m := range r.Metrics {
				sets[i] = append(sets[i], m)
			}
			sort.Strings(sets[i])
		}
		if reflect.DeepEqual(refs[0], refs[1]) && counts[0] == counts[1] {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
		if !reflect.DeepEqual(sets[0], sets[1]) {
			t.Errorf("%s: seeds 1 and 2 emit different metrics: %v vs %v", name, sets[0], sets[1])
		}
	}
}

func TestGeneratedBodiesCarryNoRedirect(t *testing.T) {
	w, err := newTapReplay(t.TempDir(), 3, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	txs, _, _, err := readReference(w.path)
	if err != nil {
		t.Fatal(err)
	}
	var all, generated sniffCounts
	for i := range txs {
		all.add(&txs[i])
		if body := txs[i].Body; bytes.HasPrefix(body, []byte("<!DOCTYPE html>")) || bytes.HasPrefix(body, []byte("(function(){")) {
			generated.add(&txs[i])
		}
	}
	if generated.bodies == 0 || generated.hits != 0 {
		t.Errorf("generated documents: %d scanned, %d with a redirect; want some, none", generated.bodies, generated.hits)
	}
	if all.hits == 0 {
		t.Error("the synth landing pages' redirects no longer reach the sniffer")
	}
}

func TestUnionWithin(t *testing.T) {
	parents := []span{{start: 0, end: 10}, {start: 20, end: 30}}
	kids := []span{{start: 1, end: 3}, {start: 2, end: 5}, {start: 8, end: 12}, {start: 25, end: 26}, {start: 14, end: 16}}
	if got := unionWithin(parents, kids); got != 4+2+1 {
		t.Errorf("cover = %d, want 7", got)
	}
}
