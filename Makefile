# Libra reproduction — common targets.

GO ?= go

.PHONY: all build test race check fmt-check vet bench bench-digest bench-ab prof fuzz-mlkit fuzz-harvest fuzz-sim fuzz-clock fuzz-serve bench-json bench-pr8 bench-pr9 bench-pr10 quick report examples clean figs4-smoke scale-race parallel-equiv

# Default verify path: formatting, vet, build, tests — then the race
# detector over the whole module (the parallel experiment harness must
# stay data-race-free).
all: check race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race builds run the full suite ~10× slower; raise the per-package
# timeout so single-core machines don't trip go test's 10m default.
race:
	$(GO) test -race -timeout 45m ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Before sending any change to the event engine (internal/sim,
# internal/clock), to internal/platform, or to what decides every harvest
# (internal/profiler, internal/mlkit, internal/histogram), also run
# `make bench-digest`: the tests here pin behaviour on small traces, the
# digests pin it on the 250k-invocation replays the benchmark scores.
check: fmt-check vet build test

# Replay-correctness gate: every replay workload of ./bench, on the
# committed seed and the held-out one, untraced and traced, must
# reproduce the SHA-256 digest committed in bench/reference.json. The
# bench makes the comparison itself and reports it as "correct" in the
# result object it prints last. About 3 s per cell.
bench-digest:
	@for w in replay-steady replay-baseline replay-overload; do \
	  for s in 42 7; do for tr in 0 1; do \
	    out=$$($(GO) run ./bench -workload $$w -seed $$s -seconds 1 -trace $$tr | tail -n 1); \
	    case "$$out" in \
	      '{"correct":true,'*) echo "ok    $$w seed $$s trace $$tr";; \
	      *) echo "WRONG $$w seed $$s trace $$tr: $$out" | cut -c1-300; exit 1;; \
	    esac; \
	  done; done; \
	done

# The house rule for a performance claim, automated: ./bench built at BASE
# and at the working tree, PAIRS alternating pairs of one workload at
# 15 s a run, then per end-to-end metric each side's median [IQR], the
# working tree's wins and the verdict (scripts/bench-ab.sh has the rule).
# Ten pairs take about six minutes; repeat with SEED=7 before claiming.
# W=live-http and W=live-inproc are supported claims like the replays: the
# verdict column reads inv_per_s as higher-is-better and every other
# metric, overhead_ms among them, as lower-is-better. W=live-inproc is the
# workload a clock.Driver change is judged on (inv_per_s is its saturate
# phase, where the loop and not the model is the ceiling; peak_rss_mb
# follows what is in flight there, so a faster loop has to hold it), with
# W=live-http run beside it: the door shares the loop.
W ?= replay-baseline
PAIRS ?= 10
SEED ?= 42
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<ref> [W=<workload>] [PAIRS=10] [SEED=42]"; exit 2; }
	./scripts/bench-ab.sh "$(BASE)" "$(W)" "$(PAIRS)" "$(SEED)"

# Where a replay's CPU time goes: the 250k-invocation Jetstream replay the
# benchmark's replay-baseline (VARIANT=default) and replay-steady
# (VARIANT=libra) workloads time, profiled through libra-sim, then the top
# of the cumulative listing and, wherever they rank, the lines of
# profiler.profileOffline and of the goroutines it starts: the offline
# training's share of the replay.
# The profile stays in PROF_DIR for `go tool pprof -list`; PROF_ARGS=
# -quick-sized runs (CI) pass a smaller -invocations.
VARIANT ?= default
PROF_DIR ?= .bench_build
PROF_ARGS ?= -invocations 250000
prof:
	@mkdir -p $(PROF_DIR)
	$(GO) build -o $(PROF_DIR)/libra-sim ./cmd/libra-sim
	$(PROF_DIR)/libra-sim -variant $(VARIANT) -testbed jetstream $(PROF_ARGS) -rpm 750 -mix-skew 1.05 \
	  -cpuprofile $(PROF_DIR)/cpu-$(VARIANT).prof
	$(GO) tool pprof -top -cum -nodecount 40 $(PROF_DIR)/libra-sim $(PROF_DIR)/cpu-$(VARIANT).prof
	@echo "offline training: profileOffline on the replay's goroutine, sideBySide.func1 on the two it starts"
	@$(GO) tool pprof -top -cum -nodecount 2000 $(PROF_DIR)/libra-sim $(PROF_DIR)/cpu-$(VARIANT).prof 2>/dev/null \
	  | grep -E 'profiler\.(\(\*Profiler\)\.profileOffline|sideBySide\.func1)$$' || echo "      (no sample: this variant trains no forests)"

# The forests' two differential fuzz targets, 20 s each, on mutated
# training sets (ties, NaN and ±Inf values, repeated samples, midpoints
# that round onto a value, columns that order the rows alike): the sweep
# split search against the per-threshold recount it replaced, and whole
# trees from the sort-once grower against the sort-per-node grower it
# replaced (both references live in internal/mlkit/tree_test.go).
# `go test` alone replays only the seed corpora.
fuzz-mlkit:
	$(GO) test -run '^$$' -fuzz FuzzGiniSweepMatchesScan -fuzztime 20s ./internal/mlkit/
	$(GO) test -run '^$$' -fuzz FuzzPresortedGrowMatchesPerNodeSort -fuzztime 20s ./internal/mlkit/

# The harvest pool against the four-map pool it replaced
# (internal/harvest/mappool_test.go): Put / AppendLoans / Reharvest /
# ReleaseSourceTo / ReleaseAll scripts under both lending orders, expiries
# mostly tied and often already past. `go test` alone replays only the
# seed corpus.
fuzz-harvest:
	$(GO) test -run '^$$' -fuzz FuzzPoolMatchesMapPool -fuzztime 20s ./internal/harvest/

# The engine's 4-ary heap against the container/heap queue it replaced
# (internal/sim/heapfuzz_test.go): push / pop / cancel / compact scripts
# with most times tied. `go test` alone replays only the seed corpus.
fuzz-sim:
	$(GO) test -run '^$$' -fuzz FuzzHeapMatchesContainerHeap -fuzztime 20s ./internal/sim/

# The wall driver on that same heap against the container/heap queue it
# carried before (internal/clock/heapfuzz_test.go): At / Schedule / fire /
# cancel / compact scripts on a ManualSource, most times tied. `go test`
# alone replays only the seed corpus.
fuzz-clock:
	$(GO) test -run '^$$' -fuzz FuzzDriverMatchesContainerHeap -fuzztime 20s ./internal/clock/

# The invoke handler's one-pass query parser against url.ParseQuery plus
# the three-parse reading it replaced (internal/serve/invoke_test.go):
# repeated keys, escapes in keys and values, ';', empty values, non-finite
# and overflowing numbers — same input, deadline and nowait bit, same
# refusals. `go test` alone replays only the seed corpus.
fuzz-serve:
	$(GO) test -run '^$$' -fuzz FuzzInvokeQuery -fuzztime 20s ./internal/serve/

# benchstat-comparable output: pipe two runs into benchstat to compare.
bench:
	$(GO) test -bench=. -benchmem

# Refresh the committed perf-trajectory report (the baseline snapshot in
# the file is preserved; only the current snapshot is rewritten).
bench-json:
	$(GO) run ./cmd/libra-bench -json BENCH_PR5.json

quick:
	$(GO) run ./cmd/libra-bench -quick

# Regenerate the committed PR-8 elasticity record: the full-scale figs4
# replay (50→1000 nodes) plus the Libra decision cost at 50/200/1000
# nodes. Under a minute of wall time; the quick CI proxy is figs4-smoke.
bench-pr8:
	$(GO) run ./cmd/libra-bench -elastic BENCH_PR8.json

# Regenerate the committed PR-9 lane-scaling record: the endurance
# replay across event-engine lane counts, with a byte-equality check of
# every sharded report against the serial run. On a single-CPU host the
# curve honestly records barrier overhead instead of speedup.
bench-pr9:
	$(GO) run ./cmd/libra-bench -lanescale BENCH_PR9.json

# Regenerate the committed PR-10 record: the same lane-scaling replay,
# now with the whole per-node hot path lane-pinned and the merge-
# barrier diagnostics per point — batch count, mean batch width in
# lanes, single-lane-batch fraction, and the lane-work / barrier-wait /
# merge wall-time split.
bench-pr10:
	$(GO) run ./cmd/libra-bench -lanescale BENCH_PR10.json

# Differential replay of serial vs sharded engines under the race
# detector: the full (variant × seed × faults × autoscale) matrix plus
# the mid-batch chaos and autoscale lane-remap cases, the lane-merge
# fuzz seed corpus (incl. the harvest-op alphabet), the sim/live
# equivalence suite and the golden lane-invariance sweep — figs2m,
# figs3, figs4 and figf1 among every registered experiment — at lanes
# 1, 2 and GOMAXPROCS.
parallel-equiv:
	$(GO) test -race -timeout 45m -count=1 \
	  ./internal/simtest/ ./internal/sim/ ./internal/clock/ ./internal/core/
	$(GO) test -race -timeout 45m -count=1 \
	  -run 'TestGoldenRendersLaneInvariant|TestFigs2mShardedMatchesSerial' \
	  ./internal/experiments/

# Diurnal-elasticity replay (EXPERIMENTS.md Fig S4), quick mode: static
# base fleet vs peak-provisioned fleet vs the elastic node group on the
# 20× load swing. The render's invariants line must report zero leaked
# loans and zero capacity violations.
figs4-smoke:
	$(GO) run ./cmd/libra-bench -exp figs4 -quick

# Scale-down drains racing the chaos schedule, race detector on: the
# property test sweeps seeds and asserts no drain ever leaks a loan or
# leaves a node over capacity.
scale-race:
	$(GO) test -race -timeout 10m -count=1 \
	  -run 'TestAutoscaleDrainUnderChaosLeaksNothing' ./internal/platform/

# Live-resilience run (EXPERIMENTS.md Fig R1): 2.5× overload plus the
# default chaos schedule on the wall clock, admission-controlled. The
# selfcheck gates on clean drain, zero leaked loans, zero capacity
# violations and a respected pending budget; the measured summary
# refreshes BENCH_FIGR1.json.
figr1:
	$(GO) run ./cmd/libra-serve -addr 127.0.0.1:0 -nodes 4 -schedulers 8 \
	  -rate 12000 -duration 5 -syn-cpu 400 -chaos \
	  -max-pending 2000 -deadline 500 -degrade-hi 500 \
	  -selfcheck -bench-out BENCH_FIGR1.json

report:
	$(GO) run ./cmd/libra-report -out results

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/harvesting
	$(GO) run ./examples/multinode
	$(GO) run ./examples/scaling
	$(GO) run ./examples/customworkload

clean:
	rm -rf results test_output.txt bench_output.txt
