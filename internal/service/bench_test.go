package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// benchService builds a service outside the timed region.
func benchService(b *testing.B, dir string) *Service {
	b.Helper()
	s, err := New(Config{
		Workers:              2,
		QueueDepth:           256,
		ResultDir:            dir,
		DefaultWarmInstrs:    20_000,
		DefaultMeasureInstrs: 50_000,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// BenchmarkSubmitCacheHit measures queue throughput when every
// submission is answered from the engine memo — the steady state of a
// sweep client re-requesting known points.
func BenchmarkSubmitCacheHit(b *testing.B) {
	s := benchService(b, "")
	spec := JobSpec{Workload: "DB", Cores: 1, Scheme: "none"}
	v, err := s.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := s.Wait(ctx, v.ID); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := s.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Wait(ctx, v.ID); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
}

// BenchmarkSubmitStoreHit is the restart path: the engine memo is cold
// but the on-disk store has every result.
func BenchmarkSubmitStoreHit(b *testing.B) {
	dir := b.TempDir()
	warm := benchService(b, dir)
	spec := JobSpec{Workload: "DB", Cores: 1, Scheme: "none"}
	v, err := warm.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := warm.Wait(ctx, v.ID); err != nil {
		b.Fatal(err)
	}
	if err := warm.Shutdown(ctx); err != nil {
		b.Fatal(err)
	}

	s := benchService(b, dir)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
}

// BenchmarkHTTPStoreHit is a store hit as a client sees it: one
// loopback POST /v1/jobs?wait=1 round trip through Handler, including
// request decoding and the JSON reply.
func BenchmarkHTTPStoreHit(b *testing.B) {
	dir := b.TempDir()
	warm := benchService(b, dir)
	spec := JobSpec{Workload: "DB", Cores: 1, Scheme: "none"}
	v, err := warm.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := warm.Wait(ctx, v.ID); err != nil {
		b.Fatal(err)
	}
	if err := warm.Shutdown(ctx); err != nil {
		b.Fatal(err)
	}

	s := benchService(b, dir)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	body, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	client := srv.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(srv.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, read error %v", resp.StatusCode, err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
}

// BenchmarkSubmitCacheMiss measures end-to-end throughput when every
// job is a fresh simulation (distinct seeds defeat all caches).
func BenchmarkSubmitCacheMiss(b *testing.B) {
	s := benchService(b, "")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := JobSpec{Workload: "DB", Cores: 1, Scheme: "none", Seed: uint64(i + 1)}
		v, err := s.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Wait(ctx, v.ID); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
}

// BenchmarkSubmitParallelDedup hammers one spec from many goroutines;
// measures the dedup fast path under contention.
func BenchmarkSubmitParallelDedup(b *testing.B) {
	s := benchService(b, "")
	spec := JobSpec{Workload: "DB", Cores: 1, Scheme: "nl-miss"}
	v, err := s.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := s.Wait(ctx, v.ID); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := s.Submit(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
