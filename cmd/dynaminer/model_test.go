package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dynaminer"
)

// trainTinyModel trains a small synthetic model and saves it as JSON.
func trainTinyModel(t *testing.T) (*dynaminer.Classifier, string) {
	t.Helper()
	eps := dynaminer.Corpus(dynaminer.CorpusConfig{Seed: 9, Infections: 10, Benign: 10})
	clf, err := dynaminer.Train(eps, dynaminer.TrainConfig{NumTrees: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := clf.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return clf, path
}

func TestModelConvertRoundTrip(t *testing.T) {
	clf, jsonPath := trainTinyModel(t)
	dir := t.TempDir()
	blobPath := filepath.Join(dir, "model.dmfb")
	backPath := filepath.Join(dir, "back.json")

	if err := run([]string{"model", "convert", "-in", jsonPath, "-out", blobPath, "-format", "blob"}); err != nil {
		t.Fatalf("convert to blob: %v", err)
	}
	if err := run([]string{"model", "convert", "-in", blobPath, "-out", backPath, "-format", "json"}); err != nil {
		t.Fatalf("convert back to json: %v", err)
	}
	orig, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	back, err := os.ReadFile(backPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, back) {
		t.Fatal("json -> blob -> json is not byte-identical")
	}

	// The blob-loaded classifier must score identically and drive the
	// monitor path (scorer) with its one flat model.
	fromBlob, err := dynaminer.LoadFile(blobPath)
	if err != nil {
		t.Fatal(err)
	}
	if fromBlob.Forest() != fromBlob.FlatForest() {
		t.Fatal("Forest and FlatForest expose different models")
	}
	eps := dynaminer.Corpus(dynaminer.CorpusConfig{Seed: 77, Infections: 2, Benign: 2})
	for i := range eps {
		w := dynaminer.BuildWCG(eps[i].Txs)
		if clf.Score(w) != fromBlob.Score(w) {
			t.Fatalf("episode %d: blob-loaded model scores differently", i)
		}
	}
	m := dynaminer.NewMonitor(dynaminer.MonitorConfig{RedirectThreshold: 1}, fromBlob)
	for i := range eps {
		m.ProcessAll(eps[i].Txs)
	}
}

func TestModelInfo(t *testing.T) {
	_, jsonPath := trainTinyModel(t)
	blobPath := filepath.Join(t.TempDir(), "model.dmfb")
	if err := run([]string{"model", "convert", "-in", jsonPath, "-out", blobPath}); err != nil {
		t.Fatalf("convert: %v", err)
	}
	for _, path := range []string{jsonPath, blobPath} {
		if err := run([]string{"model", "info", path}); err != nil {
			t.Fatalf("info %s: %v", path, err)
		}
	}
}

func TestModelErrors(t *testing.T) {
	if err := run([]string{"model"}); err == nil {
		t.Fatal("bare model must error")
	}
	if err := run([]string{"model", "bogus"}); err == nil {
		t.Fatal("unknown model subcommand must error")
	}
	if err := run([]string{"model", "convert", "-in", "nope.json"}); err == nil {
		t.Fatal("convert without -out must error")
	}
	if err := run([]string{"model", "info", "does-not-exist.json"}); err == nil {
		t.Fatal("info on missing file must error")
	}
}
