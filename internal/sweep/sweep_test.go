package sweep

import (
	"encoding/json"
	"reflect"
	"testing"
)

// threeAxisSpec is the canonical test sweep: scheme × table size ×
// workload (plus the implicit baseline points).
func threeAxisSpec() Spec {
	return Spec{
		Name:         "test-sweep",
		Schemes:      []string{"discontinuity", "nl-miss"},
		Workloads:    []string{"DB", "TPC-W"},
		Cores:        []int{1},
		TableEntries: []int{512, 1024},
	}
}

func TestExpandIsDeterministic(t *testing.T) {
	spec := threeAxisSpec()
	a, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two expansions of the same spec differ")
	}

	// A JSON round-trip of the spec must not change the grid.
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var spec2 Spec
	if err := json.Unmarshal(data, &spec2); err != nil {
		t.Fatal(err)
	}
	c, err := spec2.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatal("expansion changed across a spec JSON round-trip")
	}
}

func TestExpandGridShape(t *testing.T) {
	points, err := threeAxisSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	// discontinuity: 2 workloads × 2 table sizes = 4 points;
	// nl-miss collapses the table axis: 2 points;
	// baselines (scheme none, no bypass): 2 points.
	if len(points) != 8 {
		t.Fatalf("grid has %d points, want 8: %+v", len(points), points)
	}
	baselines, tableless := 0, 0
	for i, p := range points {
		if p.Index != i {
			t.Fatalf("point %d has index %d", i, p.Index)
		}
		if p.Baseline {
			baselines++
			if p.Scheme != "none" || p.Bypass {
				t.Fatalf("baseline point has scheme=%s bypass=%v", p.Scheme, p.Bypass)
			}
		}
		if p.Scheme == "nl-miss" {
			tableless++
			if p.TableEntries != 0 || p.PrefetchAhead != 0 {
				t.Fatalf("non-discontinuity point kept table axes: %+v", p)
			}
		}
	}
	if baselines != 2 {
		t.Fatalf("grid has %d baseline points, want 2", baselines)
	}
	if tableless != 2 {
		t.Fatalf("grid has %d nl-miss points, want 2 (table axis must collapse)", tableless)
	}
	// No two points may share a simulation identity.
	keys := make(map[string]bool)
	for _, p := range points {
		k, err := p.Key(1, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		if keys[k] {
			t.Fatalf("duplicate simulation key in grid: %s", k)
		}
		keys[k] = true
	}
}

func TestExpandMarksExplicitBaseline(t *testing.T) {
	// When the grid itself contains the baseline combination, no extra
	// point is appended — the existing one is marked.
	spec := Spec{
		Schemes:   []string{"none", "discontinuity"},
		Workloads: []string{"DB"},
		Cores:     []int{1},
		Bypass:    []bool{false},
	}
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("grid has %d points, want 2: %+v", len(points), points)
	}
	if !points[0].Baseline || points[0].Scheme != "none" {
		t.Fatalf("existing baseline combination not marked: %+v", points[0])
	}
}

func TestSpecValidation(t *testing.T) {
	for name, spec := range map[string]Spec{
		"no schemes":      {Workloads: []string{"DB"}},
		"no workloads":    {Schemes: []string{"none"}},
		"unknown scheme":  {Schemes: []string{"bogus"}, Workloads: []string{"DB"}},
		"unknown app":     {Schemes: []string{"none"}, Workloads: []string{"Quake"}},
		"mixed on 1 core": {Schemes: []string{"none"}, Workloads: []string{"Mixed"}, Cores: []int{1}},
		"bad cores":       {Schemes: []string{"none"}, Workloads: []string{"DB"}, Cores: []int{0}},
		"bad table size":  {Schemes: []string{"none"}, Workloads: []string{"DB"}, TableEntries: []int{300}},
		"bad baseline":    {Schemes: []string{"none"}, Workloads: []string{"DB"}, BaselineScheme: "bogus"},
		"bad geometry":    {Schemes: []string{"none"}, Workloads: []string{"DB"}, L1I: []Geometry{{SizeBytes: 1000, Assoc: 3, LineBytes: 48}}},
	} {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, spec)
		}
	}
	if err := threeAxisSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestSpecValidationCapsGrid(t *testing.T) {
	spec := Spec{
		Schemes:       []string{"discontinuity", "discont-2nl", "nl-miss", "nl-tagged"},
		Workloads:     []string{"DB", "TPC-W", "jApp", "Web"},
		Cores:         []int{1, 2, 4, 8, 16},
		TableEntries:  []int{64, 128, 256, 512, 1024, 2048, 4096, 8192},
		PrefetchAhead: []int{1, 2, 4, 8},
		Bypass:        []bool{false, true},
	}
	// 4 schemes × 4 workloads × 5 cores × 8 tables × 4 ahead × 2 bypass
	// = 5120 raw points, over the cap.
	if err := spec.Validate(); err == nil {
		t.Fatalf("Validate accepted a %d-point grid (cap %d)", spec.GridSize(), MaxPoints)
	}
}

// overflowSpec repeats a valid value 64 times on each of the eleven
// axes: the raw grid has 64^11 = 2^66 points, which wraps a 64-bit
// product to zero.
func overflowSpec() Spec {
	var s Spec
	for i := 0; i < 64; i++ {
		s.Workloads = append(s.Workloads, "DB")
		s.Schemes = append(s.Schemes, "none")
		s.Cores = append(s.Cores, 1)
		s.Bypass = append(s.Bypass, true)
		s.TableEntries = append(s.TableEntries, 0)
		s.PrefetchAhead = append(s.PrefetchAhead, 0)
		s.Inserts = append(s.Inserts, "")
		s.TLBFills = append(s.TLBFills, "")
		s.WrongPaths = append(s.WrongPaths, "")
		s.L1I = append(s.L1I, Geometry{})
		s.L2 = append(s.L2, Geometry{})
	}
	return s
}

func TestValidateRejectsOverflowingGrid(t *testing.T) {
	spec := overflowSpec()
	if n := spec.GridSize(); n <= MaxPoints {
		t.Errorf("GridSize = %d for a 2^66-point grid", n)
	}
	if err := spec.Validate(); err == nil {
		t.Fatal("Validate accepted a 2^66-point grid")
	}
}

func TestSpecIDStableAcrossBudgets(t *testing.T) {
	spec := threeAxisSpec()
	a := spec.ID(10, 20, 1)
	if a != spec.ID(10, 20, 1) {
		t.Fatal("ID not stable for equal spec and budgets")
	}
	if a == spec.ID(10, 20, 2) {
		t.Fatal("ID ignores the seed")
	}
	other := threeAxisSpec()
	other.TableEntries = []int{256}
	if a == other.ID(10, 20, 1) {
		t.Fatal("ID ignores the spec axes")
	}
}
