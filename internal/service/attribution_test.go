package service

import (
	"strings"
	"testing"
)

// TestHybridJobSurfacesComponentMetrics is the daemon-level acceptance
// test for composite attribution: submit a job with a hybrid scheme,
// and verify the per-component issued/useful counters reach both the
// JSON snapshot and the Prometheus exposition.
func TestHybridJobSurfacesComponentMetrics(t *testing.T) {
	s := newTestService(t, testConfig(t))
	v, err := s.Submit(JobSpec{Workload: "DB", Cores: 1, Scheme: "hybrid:discontinuity+streams+mana"})
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, s, v.ID)
	if got.State != StateCompleted {
		t.Fatalf("state = %s (err %q), want %s", got.State, got.Error, StateCompleted)
	}
	if got.Result == nil || len(got.Result.Total.Components) == 0 {
		t.Fatal("job result carries no component attribution")
	}
	var sumIssued uint64
	for _, c := range got.Result.Total.Components {
		sumIssued += c.Issued
	}
	if sumIssued != got.Result.Total.Prefetch.Issued {
		t.Errorf("component issued sum %d != composite issued %d",
			sumIssued, got.Result.Total.Prefetch.Issued)
	}

	snap := s.Metrics().Snapshot()
	if len(snap.PrefetchComponents) == 0 {
		t.Fatal("snapshot has no prefetch_components")
	}
	for _, name := range []string{"discontinuity", "streams4x4", "mana"} {
		if _, ok := snap.PrefetchComponents[name]; !ok {
			t.Errorf("snapshot missing component %q: %v", name, snap.PrefetchComponents)
		}
	}

	var b strings.Builder
	s.Metrics().WriteProm(&b, s.QueueDepth(), s.Workers(), s.ActiveSweeps(), s.EngineCounters(), s.StoreCacheStats())
	prom := b.String()
	if !strings.Contains(prom, `iprefetchd_prefetch_component_issued_total{component="discontinuity"}`) {
		t.Errorf("prometheus output missing labeled component counter:\n%s", prom)
	}
	if !strings.Contains(prom, `iprefetchd_prefetch_component_useful_total{component="mana"}`) {
		t.Errorf("prometheus output missing mana useful counter:\n%s", prom)
	}
}

// TestSingleSchemeJobLeavesComponentMetricsEmpty: non-composite jobs
// must not invent component rows.
func TestSingleSchemeJobLeavesComponentMetricsEmpty(t *testing.T) {
	s := newTestService(t, testConfig(t))
	v, err := s.Submit(cheapSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, s, v.ID); got.State != StateCompleted {
		t.Fatalf("state = %s, want %s", got.State, StateCompleted)
	}
	if snap := s.Metrics().Snapshot(); len(snap.PrefetchComponents) != 0 {
		t.Errorf("single-scheme job populated component metrics: %v", snap.PrefetchComponents)
	}
}
