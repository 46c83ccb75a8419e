package prefetch

import (
	"strings"
	"testing"
)

// TestParameterizedSchemes drives the "family:key=val,..." registry
// form: parameters must land in the scheme's config, and the exact
// legacy names must keep resolving to identical defaults.
func TestParameterizedSchemes(t *testing.T) {
	p, err := New("discontinuity:table=1024,ahead=2")
	if err != nil {
		t.Fatal(err)
	}
	d, ok := p.(*Discontinuity)
	if !ok {
		t.Fatalf("got %T, want *Discontinuity", p)
	}
	if cfg := d.Config(); cfg.TableEntries != 1024 || cfg.PrefetchAhead != 2 {
		t.Errorf("params not applied: %+v", cfg)
	}

	p, err = New("streams:n=2,depth=6")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Name(); got != "streams2x6" {
		t.Errorf("streams name = %q, want streams2x6", got)
	}

	p, err = New("mana:triggers=512,records=64,region=4")
	if err != nil {
		t.Fatal(err)
	}
	m, ok := p.(*MANA)
	if !ok {
		t.Fatalf("got %T, want *MANA", p)
	}
	if cfg := m.Config(); cfg.TriggerEntries != 512 || cfg.RecordEntries != 64 || cfg.RegionLines != 4 {
		t.Errorf("params not applied: %+v", cfg)
	}

	p, err = New("progmap:entries=512,depth=2")
	if err != nil {
		t.Fatal(err)
	}
	pm, ok := p.(*ProgMap)
	if !ok {
		t.Fatalf("got %T, want *ProgMap", p)
	}
	if cfg := pm.Config(); cfg.Entries != 512 || cfg.Depth != 2 {
		t.Errorf("params not applied: %+v", cfg)
	}

	if _, err := New("lookahead:n=8"); err != nil {
		t.Errorf("lookahead:n=8 rejected: %v", err)
	}

	// The exact legacy name must bypass family parsing entirely and
	// keep the paper-default configuration.
	if cfg := MustNew("discontinuity").(*Discontinuity).Config(); cfg != DefaultDiscontinuityConfig() {
		t.Errorf("legacy discontinuity config drifted: %+v", cfg)
	}
}

// TestSchemeParametersBounded pins the cap on integer parameters: they
// size the tables New allocates.
func TestSchemeParametersBounded(t *testing.T) {
	if _, err := New("discontinuity:table=65536"); err != nil {
		t.Errorf("table=65536 rejected: %v", err)
	}
	for _, name := range []string{"discontinuity:table=131072", "streams:n=1000000", "mana:records=1000000", "progmap:entries=131072"} {
		if _, err := New(name); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// legacyName asserts the exact pre-parameterization names still work.
func TestLegacyNamesUnaffected(t *testing.T) {
	for _, name := range []string{"discontinuity", "discont-2nl", "streams", "mana", "progmap", "lookahead4"} {
		if _, err := New(name); err != nil {
			t.Errorf("legacy name %q stopped resolving: %v", name, err)
		}
	}
}

// TestParameterizedSchemeErrors pins the error contract: bad forms must
// name the offender and spell out the valid forms.
func TestParameterizedSchemeErrors(t *testing.T) {
	cases := []struct {
		name string
		want []string // substrings the error must contain
	}{
		{"nosuchfamily:x=1", []string{"nosuchfamily", "family:key=val", "hybrid:a+b+c"}},
		{"discontinuity:bogus=1", []string{"bogus", "table", "ahead"}},
		{"discontinuity:table", []string{"key=val"}},
		{"discontinuity:table=zebra", []string{"table", "integer"}},
		{"discontinuity:table=100", []string{"power of two"}},
		{"streams:n=0", []string{"n >= 1"}},
		{"mana:region=99", []string{"region", "1..32"}},
		{"progmap:depth=0", []string{"depth", "1..8"}},
	}
	for _, tc := range cases {
		p, err := New(tc.name)
		if err == nil {
			t.Errorf("New(%q) accepted, returned %T", tc.name, p)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("New(%q) error %q missing %q", tc.name, err, want)
			}
		}
	}
}

// TestParameterizedDeterminism runs the shared determinism stream over
// parameterized instances (the registry contract tests only iterate
// exact names).
func TestParameterizedDeterminism(t *testing.T) {
	for _, name := range []string{
		"discontinuity:table=1024,ahead=2",
		"streams:n=2,depth=6",
		"mana:triggers=512,records=64,region=4",
		"progmap:entries=512,depth=2",
	} {
		a, b := candidateStream(MustNew(name)), candidateStream(MustNew(name))
		if len(a) != len(b) {
			t.Errorf("%s: candidate counts differ: %d vs %d", name, len(a), len(b))
			continue
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: candidate %d differs", name, i)
				break
			}
		}
	}
}
