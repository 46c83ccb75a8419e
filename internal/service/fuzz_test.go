package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// FuzzJobSpec drives the job submission boundary the way POST /v1/jobs
// decodes it: a spec Validate accepts must convert to a run spec whose
// resolved key is stable.
func FuzzJobSpec(f *testing.F) {
	for _, s := range []JobSpec{
		{Workload: "DB", Cores: 4, Scheme: "discontinuity", Bypass: true},
		{Apps: []string{"DB", "Web"}, Cores: 2, Scheme: "nl-miss", TableEntries: 512,
			Insert: "mid", TLBFill: "primary", WrongPath: "train:2",
			L1I: &sweep.Geometry{SizeBytes: 16 << 10, Assoc: 2, LineBytes: 64}},
	} {
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
	resolve := sim.DefaultEngine().Resolve
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil || spec.Validate() != nil {
			return
		}
		rs, err := spec.runSpec()
		if err != nil {
			t.Fatalf("runSpec rejected a valid spec: %v", err)
		}
		if resolve(rs).Key() != resolve(rs).Key() {
			t.Fatal("key is not stable")
		}
	})
}
