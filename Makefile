GO ?= go

.PHONY: all build vet test race check bench bench-json bench-guard arena faults chaos chaos-soak scale serve speedup speedup-wheel speedup-shards trace-demo hybrid-demo hybrid-divergence clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Short mode skips the slow multi-policy fault sweeps; race still covers
# every package's core paths, including the parallel experiment scheduler
# (pool collation, cancellation, harness accounting).
race:
	$(GO) test -race -short ./...

check: vet build test race

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Perf trajectory: snapshot every benchmark (ns/op, allocs/op, B/op,
# events/s) into a dated BENCH_<date>.json so the repo's performance history
# is diffable across commits. -benchtime=1x keeps the figure-level
# benchmarks (full experiment runs) tractable; allocs/op and events/s are
# stable at one iteration, ns/op is indicative only.
bench-json:
	$(GO) test -bench=. -benchmem -benchtime=1x -run=^$$ ./... \
		| $(GO) run ./cmd/benchguard -json BENCH_$$(date +%F).json

# Allocation guard: the hot-path, sharded-engine and per-host-memory
# benchmarks must not regress allocs/op (tolerance: baseline*1.25 + 2) or
# B/op (baseline*1.25 + 4 KiB) against the committed baseline. This is the
# CI gate; -benchtime=1x keeps it fast (both are near-deterministic, unlike
# ns/op). Benchmarks without a baseline entry are reported as "new (no
# baseline)" and skipped.
bench-guard:
	$(GO) test -bench='BenchmarkAdmit$$|BenchmarkSweepWorkers|BenchmarkShardedRun|BenchmarkArenaPoint$$|BenchmarkHybridSteadyState|BenchmarkBuildHyperscale|BenchmarkColfmtWrite|BenchmarkPoissonInstall|BenchmarkHotResubmit|BenchmarkCacheLookup' -benchmem -benchtime=1x -run=^$$ ./... \
		| $(GO) run ./cmd/benchguard -baseline BENCH_BASELINE.json

# The policy arena: every registered buffer-management policy (the paper's
# four plus the related work — EDT, TDT, BShare, Occamy, FB) raced on a
# common load x burst x fault grid with the invariant auditor armed,
# emitting a ranked scorecard (table + CSV). Restrict the field with e.g.
# `go run ./cmd/l2bmexp -exp arena -policies L2BM,DT,Occamy`.
arena:
	$(GO) run ./cmd/l2bmexp -exp arena -scale tiny

# The robustness ablation: link flaps + BER + recovery, four policies.
faults:
	$(GO) run ./cmd/l2bmexp -exp faults -scale tiny

# Randomized robustness soak: fuzz scenarios (topology x workload x fault
# plan) under the global invariant auditor, shrink any failure to a minimal
# scenario and write a runnable JSON reproducer (replay one with
# `go run ./cmd/l2bmexp -exp chaos -replay repros/chaos-seed<N>.json`).
# Findings exit nonzero. Default 50 seeds; chaos-soak is the nightly size.
chaos:
	$(GO) run ./cmd/l2bmexp -exp chaos -repro-out repros

chaos-soak:
	$(GO) run ./cmd/l2bmexp -exp chaos -seeds 200 -repro-out repros

# Hyperscale smoke: build the 10,240-host pod Clos and run the short mixed
# window with the invariant auditor armed (audit violations exit nonzero).
# CI runs the same smoke under an RSS bound and adds the 100k-host point.
scale:
	$(GO) run ./cmd/l2bmexp -exp scale -scale small

# The experiment daemon, with the result cache armed: submit sweeps with
# curl (see README "Service") and resubmissions come back instantly from
# the content-hash cache, byte-identical to the fresh run.
serve:
	$(GO) run ./cmd/l2bmd -addr 127.0.0.1:8080 -cache /tmp/l2bm-cache

# The timer wheel's throughput claim, gated machine-independently: both
# backends are measured in the same run and the wheel must clear >=1.5x
# heap events/s at 100k and 1M pending events (DESIGN.md §15.1).
# -benchtime is in iterations so both backends dispatch identical work.
speedup-wheel:
	$(GO) test ./internal/sim/ -run=^$$ -bench=BenchmarkWheelVsHeap -benchmem -benchtime=200000x \
		| $(GO) run ./cmd/benchguard -speedup 'wheel-100k>=1.5x heap-100k, wheel-1M>=1.5x heap-1M'

# Wall-clock speedup of the parallel scheduler: the same Fig. 7 grid
# (4 policies x 8 loads), sequential vs all cores. On a >=4-core machine
# the second run should be >=2x faster; the table output is byte-identical
# either way (only the timing trailers differ).
speedup:
	$(GO) build -o /tmp/l2bmexp-speedup ./cmd/l2bmexp
	@echo "== workers=1 (sequential baseline) =="
	time /tmp/l2bmexp-speedup -exp fig7 -scale tiny -parallel 1 > /tmp/l2bm-fig7-w1.txt
	@echo "== workers=all cores =="
	time /tmp/l2bmexp-speedup -exp fig7 -scale tiny > /tmp/l2bm-fig7-wN.txt
	@echo "== determinism check (tables must be byte-identical) =="
	@grep -vE "finished in|\(mem:" /tmp/l2bm-fig7-w1.txt > /tmp/l2bm-fig7-w1.det.txt
	@grep -vE "finished in|\(mem:" /tmp/l2bm-fig7-wN.txt > /tmp/l2bm-fig7-wN.det.txt
	diff /tmp/l2bm-fig7-w1.det.txt /tmp/l2bm-fig7-wN.det.txt && echo "byte-identical"

# Wall-clock speedup of the sharded conservative-time engine: one
# ScaleFull hybrid point (Fig. 7 headline load) on the classic sequential
# engine vs the psim conductor at 4 shards. Results are byte-identical by
# construction (see the shards-determinism CI step); only events/s moves.
# Target: >=1.8x at 4 shards on a >=4-core machine. Single-core machines
# still measure ~1.1x (four small per-shard event heaps sift cheaper than
# one large one) but cannot exhibit the parallel speedup.
speedup-shards:
	$(GO) test -bench='BenchmarkShardedRun' -benchmem -benchtime=1x -run=^$$ .

# Flight-recorder demo: re-run the Fig. 8 burst deep-dive with the trace
# recorder armed — one columnar .col file per point carrying the occupancy
# timeline (the data behind the paper's buffer-occupancy-during-incast plot),
# pause intervals, L2BM weight samples and drop/ECN events — then list the
# first file's channels and print the head of its occupancy timeline as CSV.
trace-demo:
	$(GO) run ./cmd/l2bmexp -exp fig8 -scale tiny -trace -trace-out traces/fig8
	@echo "== channels of the first point, then its occupancy timeline (Fig. 8) =="
	@$(GO) run ./cmd/l2bmtrace $$(ls traces/fig8/*.col | head -1)
	@$(GO) run ./cmd/l2bmtrace $$(ls traces/fig8/*.col | head -1) trace/occupancy | head -5

# Hybrid-fidelity demo: the same Fig. 7 sweep on the pure packet engine and
# on the fluid-fast-forward hybrid engine (internal/fluid). Tables agree
# within the divergence bound (see hybrid-divergence); the timing trailers
# show where the speedup comes from — steady-state spans are advanced
# analytically, so the hybrid run simulates a fraction of the events.
hybrid-demo:
	$(GO) build -o /tmp/l2bmexp-hybrid ./cmd/l2bmexp
	@echo "== fidelity=packet (every MTU simulated) =="
	/tmp/l2bmexp-hybrid -exp fig7 -scale tiny -fidelity packet
	@echo "== fidelity=hybrid (fluid fast-forward + packet bursts) =="
	/tmp/l2bmexp-hybrid -exp fig7 -scale tiny -fidelity hybrid

# The divergence-bound gate CI runs: hybrid vs packet on the Fig. 3/7/8 and
# steady scenarios, epsilon-checked (p99 within 50%, drops within
# max(10, 15%), flow accounting exact — see DESIGN.md §14), plus the
# ≥10× events-equivalent/s claim on the steady window.
hybrid-divergence:
	$(GO) test ./internal/exp/ -run 'TestHybridDivergence|TestHybridSteadySpeedup|TestHybridDeterminism' -v -count=1

clean:
	$(GO) clean ./...
