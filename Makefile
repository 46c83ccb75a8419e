# Development targets. The repo has no dependencies beyond the Go
# toolchain; everything here is `go` with the right flags.

GO ?= go

.PHONY: build vet test loc race race-dist race-core race-ctlplane race-corpus race-codesign race-fork fuzz-smoke perfbench-selftest bench advgen-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: build vet
	$(GO) test ./...

race:
	$(GO) test -race -timeout 45m ./...

# Non-test Go line counts: the whole repository, all of internal/, then
# one row per internal/ package (subpackages count with their parent).
loc:
	@printf '%7d total\n' $$(find . -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)
	@printf '%7d internal/\n' $$(find internal -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)
	@for d in internal/*/; do printf '%7d %s\n' $$(find $$d -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$d; done

# Focused race pass over the concurrency-heavy layers (what CI runs).
race-dist:
	$(GO) test -race ./internal/dist/... ./internal/service/... ./internal/sweep/... ./internal/corpus/...

# Repeated race pass over the simulation hot path (queue/index/table
# rewrites); -count=2 catches state leaked across test-internal resets.
# ./internal/prefetch/... includes the hybrid arbitration subpackage.
race-core:
	$(GO) test -race -count=2 ./internal/core/... ./internal/prefetch/... ./internal/cmp/...

# Control-plane race pass: lease ownership handoff, SSE fan-out,
# admission buckets and the client retry loop are all cross-goroutine
# protocols — run them twice under the race detector (what CI runs).
race-ctlplane:
	$(GO) test -race -count=2 ./internal/ctlplane/... ./internal/service/... ./internal/dist/...

# Corpus race pass: GC racing ingest, chunk federation, and the trace
# record codecs — twice, so cross-test CAS state can't hide a race
# (what CI runs).
race-corpus:
	$(GO) test -race -count=2 ./internal/corpus/... ./internal/trace/...

# Co-design race pass: prefetch insertion depth, TLB fill and
# wrong-path modelling share packed per-set cache state, and the
# foundry memoises searches in a sync.Map — twice, plus -race (what CI
# runs).
race-codesign:
	$(GO) test -race -count=2 ./internal/cache/... ./internal/tlb/... ./internal/core/... ./internal/workload/... ./internal/codesign/... ./internal/foundry/...

# Fork-and-diverge race pass: RunBatchContext shares one warm snapshot
# across concurrent measurement goroutines and the waiter-retry dedup
# path hands results across goroutines — run every snapshot round-trip
# and fork differential twice under the race detector (what CI runs).
race-fork:
	$(GO) test -race -count=2 -run 'Fork|Snapshot|Warm|Batch|Waiter|LineSize' ./internal/sim/... ./internal/sweep/... ./internal/cmp/... ./internal/prefetch/... ./internal/cache/... ./internal/tlb/... ./internal/bpred/... ./internal/memory/... ./internal/core/... ./internal/workload/...

# Bounded adversarial-generator smoke: the hill-climb must beat the
# worst paper workload's L1-I miss rate (what CI runs).
advgen-smoke:
	$(GO) run ./cmd/advgen -scheme discontinuity -seed 1 -iters 8 -assert-gain 1.05 -o /tmp/adv_smoke.json

# Short fuzz passes over the trace codecs, the content-defined chunker,
# workload profile validation and the sweep and job spec decoders; CI
# runs the same smoke.
fuzz-smoke:
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzReader -fuzztime=10s
	$(GO) test ./internal/trace -run='^$$' -fuzz=FuzzRoundTripV2 -fuzztime=10s
	$(GO) test ./internal/corpus -run='^$$' -fuzz=FuzzChunker -fuzztime=10s
	$(GO) test ./internal/workload -run='^$$' -fuzz=FuzzProfileBuild -fuzztime=10s
	$(GO) test ./internal/sweep -run='^$$' -fuzz=FuzzSweepSpec -fuzztime=10s
	$(GO) test ./internal/service -run='^$$' -fuzz=FuzzJobSpec -fuzztime=10s

# The repository benchmark's self-test (about 40 s): short runs of
# every workload must emit every metric BENCHMARK.json names, traced
# and untraced runs must agree on the behaviour checksum, and a run off
# its expected checksum must count as a failure (what CI runs).
perfbench-selftest:
	cd perfbench && $(GO) test .

bench:
	$(GO) test -bench=Figure -benchmem ./...
