package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSweepSpec drives the sweep submission boundary the way the daemon
// and cmd/experiments decode it: a spec Validate accepts must expand to
// at most MaxPoints resolvable points and have a stable ID.
func FuzzSweepSpec(f *testing.F) {
	for _, s := range []Spec{overflowSpec(), threeAxisSpec()} {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	docs, err := filepath.Glob("../../docs/specs/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range docs {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil || spec.Validate() != nil {
			return
		}
		if n := spec.GridSize(); n > MaxPoints {
			t.Fatalf("Validate accepted GridSize %d", n)
		}
		points, err := spec.Expand()
		if err != nil {
			// Only the cap on the grid plus its baseline points can still
			// refuse a valid spec.
			cores, _, _, _, _, _, _, l1i, l2 := spec.axes()
			if spec.GridSize()+len(spec.Workloads)*len(cores)*len(l1i)*len(l2) <= MaxPoints {
				t.Fatalf("Expand rejected a valid spec: %v", err)
			}
			return
		}
		if len(points) == 0 || len(points) > MaxPoints {
			t.Fatalf("Expand returned %d points", len(points))
		}
		for _, p := range points {
			if _, err := p.RunSpec(); err != nil {
				t.Fatalf("point %d does not resolve: %v", p.Index, err)
			}
		}
		if spec.ID(1, 2, 3) != spec.ID(1, 2, 3) {
			t.Fatal("ID is not stable")
		}
	})
}
