package ctlplane

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// LoadConfig shapes one closed-loop load run against an iprefetchd
// control plane: a fleet of synchronous clients, each submitting a mix
// of jobs and sweeps drawn from a bounded spec pool (so the simulator's
// memoisation absorbs the compute and the run measures the control
// plane, not the simulator), with a fraction of sweep submitters also
// holding an SSE progress stream open.
type LoadConfig struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string `json:"base_url"`
	// Clients is the closed-loop concurrency. Default 64.
	Clients int `json:"clients"`
	// Duration bounds the run. Default 10s.
	Duration time.Duration `json:"-"`
	// Ramp spreads client start times linearly so concurrency climbs
	// instead of stampeding. Default Duration/5.
	Ramp time.Duration `json:"-"`
	// SweepFraction of operations submit a sweep instead of a job.
	// Default 0.05.
	SweepFraction float64 `json:"sweep_fraction"`
	// SSEFraction of sweep submissions also subscribe to the sweep's
	// event stream until it completes. Default 0.5.
	SSEFraction float64 `json:"sse_fraction"`
	// SpecPool bounds the number of distinct job specs in play (larger
	// pools mean more real simulation work per run). Default 32.
	SpecPool int `json:"spec_pool"`
	// APIKeyEvery gives every n-th client an X-API-Key of "bench-keyed"
	// so keyed and anonymous quota classes are both exercised; 0 sends
	// every request anonymously.
	APIKeyEvery int `json:"api_key_every,omitempty"`
	// Seed makes the operation mix reproducible. Default 1.
	Seed int64 `json:"seed"`
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Clients <= 0 {
		c.Clients = 64
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Ramp <= 0 {
		c.Ramp = c.Duration / 5
	}
	if c.SweepFraction <= 0 {
		c.SweepFraction = 0.05
	}
	if c.SSEFraction <= 0 {
		c.SSEFraction = 0.5
	}
	if c.SpecPool <= 0 {
		c.SpecPool = 32
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// LoadOpStats aggregates one operation class's outcomes.
type LoadOpStats struct {
	Count  uint64  `json:"count"`
	Errors uint64  `json:"errors"`
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// LoadReport is the run summary `loadgen -self ... -out` writes as
// JSON.
type LoadReport struct {
	Config     LoadConfig  `json:"config"`
	DurationS  float64     `json:"duration_s"`
	Jobs       LoadOpStats `json:"jobs"`
	Sweeps     LoadOpStats `json:"sweeps"`
	SweepsPerS float64     `json:"sweeps_per_s"`
	// Shed429 counts submissions the admission layer rejected; they are
	// load-shedding working as designed, not errors.
	Shed429 uint64 `json:"shed_429"`
	// Busy503 counts queue-full/saturated rejections.
	Busy503 uint64 `json:"busy_503"`
	// ShedRate is Shed429 over all submission attempts.
	ShedRate float64 `json:"shed_rate"`
	// SSEStreams/SSEEvents count progress subscriptions and the events
	// they received.
	SSEStreams uint64 `json:"sse_streams"`
	SSEEvents  uint64 `json:"sse_events"`
}

// loadWorker accumulates one client's outcomes; merged after the run so
// the hot loop takes no shared locks.
type loadWorker struct {
	jobLat    []time.Duration
	sweepLat  []time.Duration
	jobErrs   uint64
	sweepErrs uint64
	shed429   uint64
	busy503   uint64
	streams   uint64
	events    uint64
}

// RunLoad executes one closed-loop run. The HTTP client follows the
// follower-to-owner 307 redirects transparently, so pointing BaseURL at
// any replica of a replicated control plane works.
func RunLoad(ctx context.Context, cfg LoadConfig) (LoadReport, error) {
	cfg = cfg.withDefaults()
	hc := &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Clients * 2,
			MaxIdleConnsPerHost: cfg.Clients * 2,
		},
	}
	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	workers := make([]*loadWorker, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Clients; i++ {
		w := &loadWorker{}
		workers[i] = w
		wg.Add(1)
		go func(i int, w *loadWorker) {
			defer wg.Done()
			// Ramp: client i joins at its slice of the ramp window.
			delay := time.Duration(int64(cfg.Ramp) * int64(i) / int64(cfg.Clients))
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return
			}
			apiKey := ""
			if cfg.APIKeyEvery > 0 && i%cfg.APIKeyEvery == 0 {
				apiKey = "bench-keyed"
			}
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
			for ctx.Err() == nil {
				if rng.Float64() < cfg.SweepFraction {
					runOneSweep(ctx, hc, cfg, rng, apiKey, w)
				} else {
					runOneJob(ctx, hc, cfg, rng, apiKey, w)
				}
			}
		}(i, w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Merge.
	var all loadWorker
	for _, w := range workers {
		all.jobLat = append(all.jobLat, w.jobLat...)
		all.sweepLat = append(all.sweepLat, w.sweepLat...)
		all.jobErrs += w.jobErrs
		all.sweepErrs += w.sweepErrs
		all.shed429 += w.shed429
		all.busy503 += w.busy503
		all.streams += w.streams
		all.events += w.events
	}
	rep := LoadReport{
		Config:     cfg,
		DurationS:  elapsed.Seconds(),
		Jobs:       opStats(all.jobLat, all.jobErrs),
		Sweeps:     opStats(all.sweepLat, all.sweepErrs),
		Shed429:    all.shed429,
		Busy503:    all.busy503,
		SSEStreams: all.streams,
		SSEEvents:  all.events,
	}
	if elapsed > 0 {
		rep.SweepsPerS = float64(rep.Sweeps.Count) / elapsed.Seconds()
	}
	attempts := rep.Jobs.Count + rep.Sweeps.Count + all.shed429
	if attempts > 0 {
		rep.ShedRate = float64(all.shed429) / float64(attempts)
	}
	if rep.Jobs.Count == 0 && rep.Sweeps.Count == 0 && all.shed429 == 0 {
		return rep, fmt.Errorf("ctlplane: load run completed zero operations (daemon unreachable at %s?)", cfg.BaseURL)
	}
	return rep, nil
}

// jobBody renders one job spec from the bounded pool.
func jobBody(cfg LoadConfig, rng *rand.Rand) []byte {
	workloads := []string{"DB", "TPC-W", "Web"}
	schemes := []string{"none", "nl-miss", "discontinuity"}
	n := rng.Intn(cfg.SpecPool)
	return []byte(fmt.Sprintf(`{"workload":%q,"cores":1,"scheme":%q,"seed":%d}`,
		workloads[n%len(workloads)], schemes[(n/len(workloads))%len(schemes)], 1+n))
}

// sweepBody renders one sweep spec from a small pool (sweep identity is
// content-derived, so repeats attach to the running sweep — itself a
// control-plane path worth exercising).
func sweepBody(cfg LoadConfig, rng *rand.Rand) []byte {
	return []byte(fmt.Sprintf(`{"schemes":["none","nl-miss"],"workloads":["DB"],"cores":[1],"seed":%d}`,
		1+rng.Intn(cfg.SpecPool/4+1)))
}

// post submits one body, classifying back-pressure. A 429's Retry-After
// is honoured (capped) — the generator is closed-loop, so shed clients
// back off exactly as a well-behaved caller would.
func post(ctx context.Context, hc *http.Client, url, apiKey string, body []byte, w *loadWorker) (*http.Response, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, false
	}
	req.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, false
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		if resp.StatusCode == http.StatusTooManyRequests {
			w.shed429++
		} else {
			w.busy503++
		}
		wait := time.Second
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			wait = time.Duration(secs) * time.Second
		}
		if wait > 2*time.Second {
			wait = 2 * time.Second
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		select {
		case <-time.After(wait):
		case <-ctx.Done():
		}
		return nil, false
	}
	return resp, true
}

func runOneJob(ctx context.Context, hc *http.Client, cfg LoadConfig, rng *rand.Rand, apiKey string, w *loadWorker) {
	t0 := time.Now()
	resp, ok := post(ctx, hc, cfg.BaseURL+"/v1/jobs?wait=1", apiKey, jobBody(cfg, rng), w)
	if !ok {
		return
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		w.jobErrs++
		return
	}
	w.jobLat = append(w.jobLat, time.Since(t0))
}

func runOneSweep(ctx context.Context, hc *http.Client, cfg LoadConfig, rng *rand.Rand, apiKey string, w *loadWorker) {
	t0 := time.Now()
	resp, ok := post(ctx, hc, cfg.BaseURL+"/v1/sweeps", apiKey, sweepBody(cfg, rng), w)
	if !ok {
		return
	}
	var v struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	err := json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted) {
		w.sweepErrs++
		return
	}
	w.sweepLat = append(w.sweepLat, time.Since(t0))
	if v.State == "running" && rng.Float64() < cfg.SSEFraction {
		subscribeSweep(ctx, hc, cfg, v.ID, w)
	}
}

// subscribeSweep holds one SSE stream open until the sweep finishes,
// the run ends, or the server drains.
func subscribeSweep(ctx context.Context, hc *http.Client, cfg LoadConfig, id string, w *loadWorker) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cfg.BaseURL+"/v1/sweeps/"+id+"/events", nil)
	if err != nil {
		return
	}
	resp, err := hc.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return
	}
	w.streams++
	br := bufio.NewReader(resp.Body)
	for {
		ev, err := ReadSSE(br)
		if err != nil {
			return
		}
		w.events++
		switch ev.Type {
		case "sweep-completed", "sweep-failed", "sweep-canceled", "shutdown":
			return
		}
	}
}

// opStats summarises one latency population.
func opStats(lats []time.Duration, errs uint64) LoadOpStats {
	st := LoadOpStats{Count: uint64(len(lats)), Errors: errs}
	if len(lats) == 0 {
		return st
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	st.P50MS = ms(quantile(lats, 0.50))
	st.P99MS = ms(quantile(lats, 0.99))
	st.P999MS = ms(quantile(lats, 0.999))
	st.MaxMS = ms(lats[len(lats)-1])
	return st
}

// quantile reads the q-th quantile from a sorted population.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}
