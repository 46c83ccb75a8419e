package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
)

// service-jobs: an in-process daemon (service.New + service.Handler on
// loopback) driven by a closed-loop client posting
// /v1/jobs?wait=1. The run is a fixed number of jobs, so the daemon
// state retained at the end compares across commits. Five in eight
// jobs repeat a spec from a small hot pool that set-up has already
// simulated (the store read path); the rest carry fresh seeds (the
// simulate-and-persist write path). Every job is 1-core with scheme
// none or n4l-tagged, so no discontinuity code runs.
const (
	svcWarmPerCore    = 20_000
	svcMeasurePerCore = 40_000
	svcJobsPerSecond  = 240
	svcHotPool        = 8
	// svcHotIn of every svcHotOutOf jobs repeat a hot-pool spec. Five in
	// eight, not one in two, so the median latency falls inside the
	// store-hit mode rather than on the gap between the two modes,
	// where it would jump between them from run to run.
	svcHotIn    = 5
	svcHotOutOf = 8
	// svcClients is the number of closed-loop clients, and of daemon
	// workers. One, although the reference host has two processors: in an
	// interleaved comparison on the same seeds, two clients with two
	// workers spread about three times as much from run to run as one
	// (0.39 against 0.13 interquartile range over median for jobs/s),
	// because the second processor is shared with the collector and
	// with neighbours.
	svcClients = 1
	// svcFreshCheckEvery selects which fresh jobs are re-simulated on
	// a direct engine and compared.
	svcFreshCheckEvery = 40
)

var (
	svcApps    = []string{"DB", "TPC-W", "jApp", "Web"}
	svcSchemes = []string{"none", "n4l-tagged"}
)

// svcOp is one job the clients send; hot >= 0 names its pool entry.
type svcOp struct {
	spec service.JobSpec
	hot  int
}

func svcPool(seed uint64) []service.JobSpec {
	pool := make([]service.JobSpec, svcHotPool)
	for k := range pool {
		pool[k] = service.JobSpec{Workload: svcApps[k%len(svcApps)], Cores: 1,
			Scheme: svcSchemes[k/len(svcApps)%len(svcSchemes)], Seed: seed*1_000_003 + uint64(k) + 1}
	}
	return pool
}

func svcOps(seed uint64, n int) []svcOp {
	r := rand.New(rand.NewPCG(seed, 0x5e41ce))
	pool := svcPool(seed)
	ops := make([]svcOp, n)
	for i := range ops {
		if r.IntN(svcHotOutOf) < svcHotIn {
			k := r.IntN(len(pool))
			ops[i] = svcOp{spec: pool[k], hot: k}
			continue
		}
		ops[i] = svcOp{hot: -1, spec: service.JobSpec{
			Workload: svcApps[r.IntN(len(svcApps))], Cores: 1,
			Scheme: svcSchemes[r.IntN(len(svcSchemes))],
			Seed:   seed*1_000_003 + 10_000 + uint64(i),
		}}
	}
	return ops
}

// daemon is one in-process service behind an HTTP server on loopback.
type daemon struct {
	svc    *service.Service
	srv    *http.Server
	url    string
	dir    string
	served chan error
}

func startDaemon(dir string) (*daemon, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{
		Workers:              svcClients,
		ResultDir:            dir,
		DefaultWarmInstrs:    svcWarmPerCore,
		DefaultMeasureInstrs: svcMeasurePerCore,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Shutdown(context.Background())
		return nil, err
	}
	d := &daemon{svc: svc, srv: &http.Server{Handler: service.Handler(svc)},
		url: "http://" + ln.Addr().String(), dir: dir, served: make(chan error, 1)}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// stop shuts the HTTP server and the service down and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := d.svc.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// jobReply is the part of a JobView the benchmark reads.
type jobReply struct {
	ID          string          `json:"id"`
	State       string          `json:"state"`
	Error       string          `json:"error"`
	CacheHit    bool            `json:"cache_hit"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at"`
	FinishedAt  *time.Time      `json:"finished_at"`
	Result      json.RawMessage `json:"result"`
}

// post submits spec and waits for its result; latency runs from the
// request until the whole response has been read.
func post(client *http.Client, url string, spec service.JobSpec) (jobReply, time.Time, time.Duration, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobReply{}, time.Time{}, 0, err
	}
	t0 := time.Now()
	resp, err := client.Post(url+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobReply{}, t0, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return jobReply{}, t0, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return jobReply{}, t0, lat, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var r jobReply
	if err := json.Unmarshal(raw, &r); err != nil {
		return jobReply{}, t0, lat, err
	}
	if r.State != string(service.StateCompleted) {
		return r, t0, lat, fmt.Errorf("job %s ended %s: %s", r.ID, r.State, r.Error)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, r.Result); err != nil {
		return r, t0, lat, err
	}
	r.Result = compact.Bytes()
	return r, t0, lat, nil
}

// svcDone is what the benchmark keeps of one finished job.
type svcDone struct {
	id         string
	err        error
	start      time.Time
	lat        time.Duration
	submitted  time.Time
	started    time.Time
	finished   time.Time
	cacheHit   bool
	resultHash [32]byte
	result     []byte // kept only for the jobs re-simulated in the check
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: svcClients, MaxIdleConnsPerHost: svcClients}}
}

func runServiceJobs(cfg passConfig) (*passResult, error) {
	tr := cfg.tr
	res := &passResult{workload: "service-jobs"}
	client := newClient()
	defer client.CloseIdleConnections()
	pool := svcPool(cfg.seed)

	// Set-up: start a daemon and simulate the hot pool into its store,
	// repeated; the last daemon is measured.
	var d *daemon
	var poolResults [][]byte
	var setups []float64
	for r := 0; r < setupRepeats; r++ {
		t0 := time.Now()
		nd, results, err := setUpDaemon(filepath.Join(cfg.workDir, fmt.Sprintf("daemon-%d", r)), client, pool)
		if err != nil {
			if d != nil {
				_ = d.stop() // the set-up error is the one to report
			}
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if d != nil {
			if err := d.stop(); err != nil {
				_ = nd.stop() // the first shutdown error is the one to report
				return nil, fmt.Errorf("service: stop: %w", err)
			}
		}
		d, poolResults = nd, results
	}
	heap0 := liveHeapMB()

	n := scaled(svcJobsPerSecond, cfg.seconds)
	ops := svcOps(cfg.seed, n)
	done := make([]svcDone, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	freshSeen := 0
	checkResult := make([]bool, n)
	for i, op := range ops {
		if op.hot < 0 {
			checkResult[i] = freshSeen%svcFreshCheckEvery == 0
			freshSeen++
		}
	}
	start := time.Now()
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				reply, t0, lat, err := post(client, d.url, ops[i].spec)
				out := svcDone{id: reply.ID, err: err, start: t0, lat: lat, cacheHit: reply.CacheHit}
				if err == nil {
					out.resultHash = sha256.Sum256(reply.Result)
					out.submitted, out.started, out.finished = reply.SubmittedAt, reply.SubmittedAt, reply.SubmittedAt
					if reply.StartedAt != nil && reply.FinishedAt != nil {
						out.started, out.finished = *reply.StartedAt, *reply.FinishedAt
					}
					if checkResult[i] {
						out.result = reply.Result
					}
					if ops[i].hot >= 0 && !bytes.Equal(reply.Result, poolResults[ops[i].hot]) {
						out.err = fmt.Errorf("hot spec %d returned a different result", ops[i].hot)
					}
				}
				done[i] = out
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	heap := liveHeapMB()
	tracked := len(d.svc.Jobs())
	storeEntries, storeErr := storeLen(d.dir)
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("service: stop: %w", err)
	}
	if storeErr != nil {
		return nil, storeErr
	}

	// Correctness: every job completed, hot specs returned the pool's
	// bytes (checked above), and sampled fresh jobs equal a direct
	// engine run of the same spec.
	res.attempted = n
	dg := newDigest()
	var lat, queue, execHit, execFresh, overhead []float64
	var fresh, hits int
	for i, o := range done {
		if o.err != nil {
			res.fail("job %d: %v", i, o.err)
			continue
		}
		dg.add(fmt.Sprintf("%x", o.resultHash))
		exec := o.finished.Sub(o.started)
		lat = append(lat, ms(o.lat))
		if o.cacheHit {
			// Submit stamps a store hit submitted, started and finished
			// at one instant and never queues it, so its JobView span is
			// empty: the store read shows only in the client's latency.
			// Queue wait and HTTP overhead are taken over fresh jobs.
			hits++
			execHit = append(execHit, ms(o.lat))
		} else {
			fresh++
			queue = append(queue, ms(o.started.Sub(o.submitted)))
			execFresh = append(execFresh, ms(exec))
			overhead = append(overhead, ms(o.lat-o.finished.Sub(o.submitted)))
		}
		if o.cacheHit != (ops[i].hot >= 0) {
			res.fail("job %d: cache hit %v, but hot-pool spec is %v", i, o.cacheHit, ops[i].hot >= 0)
		}
		if tr != nil {
			tr.record("http.POST /v1/jobs", o.id, "", o.start, o.start.Add(o.lat))
			tr.record("service.queue", o.id, o.id, o.submitted, o.started)
			tr.record("service.exec", o.id, o.id, o.started, o.finished)
		}
		if o.result != nil {
			if err := checkFresh(ops[i].spec, o.result); err != nil {
				res.fail("job %d: %v", i, err)
			}
		}
	}
	res.checksum = dg.sum()

	wallSec := wall.Seconds()
	res.e2e = map[string]float64{
		"sim_minstr_s":   float64(fresh) * (svcWarmPerCore + svcMeasurePerCore) / wallSec / 1e6,
		"sweep_points_s": float64(fresh) / wallSec,
		"jobs_s":         float64(n) / wallSec,
		"job_p50_ms":     quantile(lat, 0.5),
		"job_p99_ms":     quantile(lat, 0.99),
		"setup_s":        median(setups),
		"heap_mb":        heap,
	}
	if tr != nil {
		res.layer = map[string]float64{
			"service.queue_wait_p50_ms": quantile(queue, 0.5),
			"service.queue_wait_p99_ms": quantile(queue, 0.99),
			"service.exec_hit_ms":       quantile(execHit, 0.5),
			"service.exec_fresh_ms":     quantile(execFresh, 0.5),
			"http.overhead_ms":          quantile(overhead, 0.5),
			"service.cache_hit_ratio":   float64(hits) / float64(max(1, hits+fresh)),
			"service.tracked_jobs":      float64(tracked),
			"service.store_entries":     float64(storeEntries),
			"service.heap_kb_per_job":   (heap - heap0) * 1024 / float64(n),
		}
	}
	return res, nil
}

// setUpDaemon starts a daemon in dir and simulates the hot pool into
// its store, returning the pool's results.
func setUpDaemon(dir string, client *http.Client, pool []service.JobSpec) (*daemon, [][]byte, error) {
	d, err := startDaemon(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("service: start: %w", err)
	}
	results, err := fillPool(d, client, pool)
	if err != nil {
		_ = d.stop() // the set-up error is the one to report
		return nil, nil, err
	}
	return d, results, nil
}

func fillPool(d *daemon, client *http.Client, pool []service.JobSpec) ([][]byte, error) {
	results := make([][]byte, len(pool))
	for k, spec := range pool {
		reply, _, _, err := post(client, d.url, spec)
		if err != nil {
			return nil, fmt.Errorf("service: hot pool: %w", err)
		}
		results[k] = reply.Result
	}
	// A job completes before the daemon persists it; the pool is ready
	// once every result is in the store.
	for {
		n, err := storeLen(d.dir)
		if err != nil {
			return nil, err
		}
		if n >= len(pool) {
			return results, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// storeLen counts the entries in the result store under dir.
func storeLen(dir string) (int, error) {
	st, err := service.NewStore(dir)
	if err != nil {
		return 0, err
	}
	return st.Len()
}

// checkFresh re-simulates spec on a direct engine and compares it with
// the daemon's result.
func checkFresh(spec service.JobSpec, got []byte) error {
	w, ok := sim.WorkloadByName(spec.Workload, true)
	if !ok {
		return fmt.Errorf("unknown workload %q", spec.Workload)
	}
	eng := sim.NewEngine(svcWarmPerCore, svcMeasurePerCore, spec.Seed)
	want, err := eng.RunContext(context.Background(), sim.RunSpec{Workload: w, Cores: spec.Cores, Scheme: spec.Scheme})
	if err != nil {
		return err
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(wantJSON, got) {
		return fmt.Errorf("daemon result for %s/%s seed %d differs from a direct engine run", spec.Workload, spec.Scheme, spec.Seed)
	}
	return nil
}
