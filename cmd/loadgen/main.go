// Command loadgen drives a closed-loop load test against an iprefetchd
// control plane and writes a latency/throughput report. Each of
// -clients concurrent clients loops: submit a job (POST /v1/jobs?wait=1)
// or, with probability -sweep-frac, a sweep; a -sse-frac fraction of
// sweep submitters also hold the sweep's SSE event stream open until it
// completes. Specs are drawn from a bounded pool so the simulator's
// memoisation absorbs the compute and the run measures the control
// plane (queueing, admission, streaming), not the simulator.
//
// Point it at a running daemon with -url, or pass -self to spin up an
// in-process daemon on a loopback port with tiny simulation budgets,
// so the run needs no externally managed process. With -self,
// -quota-per-sec > 0 enables admission control so the run also
// exercises 429 shedding.
//
// 429 responses are counted as shed work (the admission layer doing its
// job), honoured with their Retry-After, and excluded from latency
// percentiles; 503s count as saturation. The report lands on stdout
// and, with -out, as JSON.
//
// Example:
//
//	loadgen -self -clients 1024 -duration 30s -quota-per-sec 200 -out load.json
//	loadgen -url http://localhost:8080 -clients 256 -duration 1m
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/ctlplane"
	"repro/internal/service"
)

func main() {
	var (
		url         = flag.String("url", "", "daemon base URL (empty with -self)")
		self        = flag.Bool("self", false, "spin up an in-process daemon on a loopback port")
		clients     = flag.Int("clients", 64, "closed-loop client concurrency")
		duration    = flag.Duration("duration", 10*time.Second, "run length")
		ramp        = flag.Duration("ramp", 0, "client start ramp window (0 = duration/5)")
		sweepFrac   = flag.Float64("sweep-frac", 0.05, "fraction of operations that submit sweeps")
		sseFrac     = flag.Float64("sse-frac", 0.5, "fraction of sweep submitters that hold an SSE stream")
		specPool    = flag.Int("spec-pool", 32, "distinct job specs in play")
		apiKeyEvery = flag.Int("api-key-every", 4, "every n-th client sends an X-API-Key (0 = none)")
		seed        = flag.Int64("seed", 1, "operation-mix seed")
		out         = flag.String("out", "", "write the JSON report here (empty = stdout only)")
		quotaPerSec = flag.Float64("quota-per-sec", 0, "with -self: default admission quota in req/s (0 = unlimited)")
		selfWorkers = flag.Int("self-workers", 0, "with -self: daemon worker-pool size (0 = GOMAXPROCS)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "loadgen: ", log.LstdFlags)

	if (*url == "") == !*self {
		logger.Fatal("exactly one of -url or -self is required")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	base := *url
	var shutdown func()
	if *self {
		var err error
		base, shutdown, err = startSelfDaemon(logger, *selfWorkers, *quotaPerSec)
		if err != nil {
			logger.Fatal(err)
		}
		defer shutdown()
		logger.Printf("in-process daemon at %s", base)
	}

	cfg := ctlplane.LoadConfig{
		BaseURL:       base,
		Clients:       *clients,
		Duration:      *duration,
		Ramp:          *ramp,
		SweepFraction: *sweepFrac,
		SSEFraction:   *sseFrac,
		SpecPool:      *specPool,
		APIKeyEvery:   *apiKeyEvery,
		Seed:          *seed,
	}
	logger.Printf("running: clients=%d duration=%s sweep-frac=%.2f sse-frac=%.2f against %s",
		*clients, *duration, *sweepFrac, *sseFrac, base)
	rep, err := ctlplane.RunLoad(ctx, cfg)
	if err != nil {
		logger.Fatal(err)
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		logger.Fatal(err)
	}
	fmt.Println(string(blob))
	if *out != "" {
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("report written to %s", *out)
	}
	logger.Printf("jobs=%d (p50=%.1fms p99=%.1fms) sweeps=%d (%.1f/s) shed=%d busy=%d sse=%d streams/%d events",
		rep.Jobs.Count, rep.Jobs.P50MS, rep.Jobs.P99MS,
		rep.Sweeps.Count, rep.SweepsPerS, rep.Shed429, rep.Busy503,
		rep.SSEStreams, rep.SSEEvents)
}

// startSelfDaemon boots an in-process iprefetchd on 127.0.0.1:0 with
// tiny simulation budgets, returning its base URL and a shutdown func.
func startSelfDaemon(logger *log.Logger, workers int, quotaPerSec float64) (string, func(), error) {
	svc, err := service.New(service.Config{
		Workers:              workers,
		QueueDepth:           256,
		DefaultWarmInstrs:    20_000,
		DefaultMeasureInstrs: 50_000,
		Seed:                 1,
		DefaultTimeout:       time.Minute,
		MaxActiveSweeps:      64,
		Version:              "loadgen-self",
		Logf:                 func(string, ...any) {}, // keep the report readable
	})
	if err != nil {
		return "", nil, err
	}
	if quotaPerSec > 0 {
		svc.EnableAdmission(ctlplane.QuotaConfig{
			Default: ctlplane.Quota{PerSec: quotaPerSec},
			Clients: map[string]ctlplane.Quota{"bench-keyed": {PerSec: -1}},
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: service.Handler(svc)}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			logger.Printf("self daemon: %v", err)
		}
	}()
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.DrainStreams()
		srv.Shutdown(ctx)
		svc.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}
