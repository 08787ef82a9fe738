package ml

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// FuzzLoadForest throws arbitrary bytes at the JSON model loader,
// LoadFlatForest, and at the test-only recursive reference decoder
// (refLoadForest). The invariants: neither may panic; both must agree on
// accepting or rejecting the input; any model that loads must score
// without panicking, bit-identically under the flat slab walk and the
// reference pointer walk, within [0, 1] — i.e. load-time validation is
// strong enough that nothing semantically broken reaches the serve path —
// and Save → load → Save must reach a byte fixpoint.
func FuzzLoadForest(f *testing.F) {
	rng := rand.New(rand.NewSource(12))
	ds := gaussDataset(80, 5, 2, 1.5, rng)
	trained, err := TrainForest(ds, ForestConfig{NumTrees: 3, Seed: 6})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := trained.Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(`{"version":1,"features":2,"trees":[{"nodes":[{"leaf":true,"p1":1}]}]}`))
	f.Add([]byte(`{"version":1,"features":2,"trees":[{"nodes":[{"f":9,"t":1},{"leaf":true},{"leaf":true}]}]}`))
	f.Add([]byte(`{"version":1,"trees":[{"nodes":[{"f":0,"t":1}]}]}`))
	f.Add([]byte(`{"version":1,"features":1,"trees":[{"nodes":[{"leaf":true,"p0":2,"p1":-1}]}]}`))
	f.Add([]byte(strings.Repeat(`{"f":0,"t":0.5},`, 64)))

	f.Fuzz(func(t *testing.T, data []byte) {
		ref, rerr := refLoadForest(bytes.NewReader(data))
		flat, ferr := LoadFlatForest(bytes.NewReader(data))
		if (rerr == nil) != (ferr == nil) {
			t.Fatalf("loaders disagree: reference err %v, flat err %v", rerr, ferr)
		}
		if ferr != nil {
			return
		}
		// Any accepted model must serve: probe with the declared
		// dimensionality, or (legacy files with no feature count) the
		// widest feature index any node references.
		dim := flat.NumFeatures()
		if dim == 0 {
			for _, fi := range flat.feature {
				if int(fi)+1 > dim {
					dim = int(fi) + 1
				}
			}
			if dim == 0 {
				dim = 1
			}
		}
		x := make([]float64, dim)
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		rs := ref.Score(x)
		fs := flat.Score(x)
		if math.Float64bits(rs) != math.Float64bits(fs) {
			t.Fatalf("flat and reference walks score differently: %v vs %v", fs, rs)
		}
		if math.IsNaN(fs) || fs < 0 || fs > 1 {
			t.Fatalf("validated model scored %v, outside [0, 1]", fs)
		}
		var once, twice bytes.Buffer
		if err := flat.Save(&once); err != nil {
			t.Fatal(err)
		}
		again, err := LoadFlatForest(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("saved model does not reload: %v", err)
		}
		if err := again.Save(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("Save -> LoadFlatForest -> Save is not a byte fixpoint")
		}
	})
}
