package service

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// TestRunIdentityStable pins the on-disk names results live under: the
// result store's content addresses, a fork-warm sweep's journal file
// names and a sweep ID. Stores and journals written by earlier builds
// are found only while these stay byte-identical.
func TestRunIdentityStable(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t)
	cfg.ResultDir = dir
	s := newTestService(t, cfg)

	storeFiles := func() map[string]bool {
		t.Helper()
		names, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, n := range names {
			out[strings.TrimSuffix(filepath.Base(n), ".json")] = true
		}
		return out
	}
	for _, tc := range []struct {
		name string
		spec JobSpec
		addr string
	}{
		{"default budgets", JobSpec{Workload: "DB", Cores: 1, Scheme: "none"},
			"8acf6e76d2e33f35dbca0ca78415e62a3a707db272337f434c3daf5d65066748"},
		{"4-core Mixed discontinuity", JobSpec{Workload: "Mixed", Cores: 4, Scheme: "discontinuity",
			Bypass: true, TableEntries: 512},
			"d73b98b7b9f3085cf875c2e7e1a154fcae751db4a6314fea96e77e5efbbbd92f"},
		{"explicit budgets", JobSpec{Workload: "TPC-W", Cores: 1, Scheme: "nl-miss",
			WarmInstrs: 10_000, MeasureInstrs: 30_000, Seed: 7},
			"0da46fdae9b9987f9a0ed353e5194f1ee3675128f49675278248d9df6a99a217"},
		{"co-design axes", JobSpec{Workload: "jApp", Cores: 1, Scheme: "discontinuity",
			Insert: "mid", TLBFill: "primary", WrongPath: "pollute",
			L2: &sweep.Geometry{SizeBytes: 1 << 20, Assoc: 8, LineBytes: 64}},
			"019bef5ec13c8efd3cecc2bc0ef4f57ae46c66c9764fb7efee739b430961541f"},
	} {
		before := storeFiles()
		v, err := s.Submit(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := waitDone(t, s, v.ID); got.State != StateCompleted {
			t.Fatalf("%s: state %s (%s)", tc.name, got.State, got.Error)
		}
		var added []string
		for a := range storeFiles() {
			if !before[a] {
				added = append(added, a)
			}
		}
		if len(added) != 1 || added[0] != tc.addr {
			t.Errorf("%s: store address %v, want %s", tc.name, added, tc.addr)
		}
		if len(added) != 1 {
			continue
		}
		// The record's result carries the run spec; budgets name the
		// result but are not part of its JSON.
		data, err := os.ReadFile(filepath.Join(dir, added[0]+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var rec struct {
			Result struct {
				Spec map[string]json.RawMessage
			}
		}
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		if len(rec.Result.Spec) == 0 {
			t.Fatalf("%s: record has no result spec", tc.name)
		}
		for _, f := range []string{"WarmInstrs", "MeasureInstrs", "Seed"} {
			if _, ok := rec.Result.Spec[f]; ok {
				t.Errorf("%s: result spec JSON has budget field %s", tc.name, f)
			}
		}
	}

	spec := sweep.Spec{
		Schemes:      []string{"none", "discontinuity"},
		Workloads:    []string{"DB"},
		Cores:        []int{1},
		TableEntries: []int{0, 512},
		ForkWarm:     true,
	}
	if got, want := spec.ID(20_000, 50_000, 1), "sweep-0afc3d73631b"; got != want {
		t.Errorf("sweep ID %s, want %s", got, want)
	}
	jdir := t.TempDir()
	j, err := sweep.OpenJournal(jdir)
	if err != nil {
		t.Fatal(err)
	}
	out, err := (&sweep.Runner{Engine: sim.NewEngine(20_000, 50_000, 1), Journal: j}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Points) != 4 {
		t.Fatalf("grid has %d points, want 4", len(out.Points))
	}
	names, err := filepath.Glob(filepath.Join(jdir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, n := range names {
		got = append(got, strings.TrimSuffix(filepath.Base(n), ".json"))
	}
	sort.Strings(got)
	want := []string{
		"4896f9b1b239303f3e579464481ded8cde308569ee0f650c700d897db9312f65",
		"68b17a9176a291b8510f01f91dc089cf90e99c2f41824dddc1360aa0d5226a86",
		"e327124319deb304177c031c75bbbd9c0577497751644ce311625ff6d0b76263",
		"f73474e36983c2afe0857654322cbfc93d2752e329e386f8e491e9b24f4f414d",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("journal files %q, want %q", got, want)
	}
}
