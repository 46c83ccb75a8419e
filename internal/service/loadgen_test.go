package service

import (
	"context"
	"testing"
	"time"

	"repro/internal/ctlplane"
)

// TestLoadGeneratorSmoke drives a short closed-loop run against an
// in-process daemon — the same path `loadgen -self` and the CI smoke
// use — and checks the report is internally consistent: work
// completed, no operation errors, and shed submissions (admission is
// enabled with a tight anonymous quota) show up as 429 counts rather
// than failures.
func TestLoadGeneratorSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke is wall-clock bound")
	}
	svc, srv := newTestServer(t, testConfig(t))
	// The anonymous quota must shed regardless of how fast the host can
	// simulate (under -race throughput drops well below 20 ops/s), so
	// allow ~1 anonymous submission for the whole run: all keyless
	// clients share the 127.0.0.1 bucket, and the second anonymous
	// request is structurally over quota.
	svc.EnableAdmission(ctlplane.QuotaConfig{
		Default: ctlplane.Quota{PerSec: 0.1, Burst: 1},
		Clients: map[string]ctlplane.Quota{"bench-keyed": {PerSec: -1}},
	})

	rep, err := ctlplane.RunLoad(context.Background(), ctlplane.LoadConfig{
		BaseURL:       srv.URL,
		Clients:       8,
		Duration:      2 * time.Second,
		SweepFraction: 0.2,
		SSEFraction:   1.0,
		SpecPool:      8,
		APIKeyEvery:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs.Count == 0 {
		t.Fatal("load run completed zero jobs")
	}
	if rep.Jobs.Errors != 0 || rep.Sweeps.Errors != 0 {
		t.Fatalf("operation errors: jobs=%d sweeps=%d", rep.Jobs.Errors, rep.Sweeps.Errors)
	}
	if rep.Jobs.P50MS <= 0 || rep.Jobs.MaxMS < rep.Jobs.P99MS {
		t.Fatalf("implausible latency stats: %+v", rep.Jobs)
	}
	if rep.Shed429 == 0 {
		t.Fatalf("tight anonymous quota never shed: %+v", rep)
	}
	if rep.ShedRate <= 0 || rep.ShedRate >= 1 {
		t.Fatalf("shed rate out of range: %v", rep.ShedRate)
	}
	_, shed := svc.Limiter().Counters()
	if shed != rep.Shed429 {
		t.Fatalf("limiter shed %d != client-observed 429s %d", shed, rep.Shed429)
	}
}
