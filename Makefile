GO ?= go

.PHONY: all build vet test race check bench arena faults soak scale serve speedup trace-demo hybrid-demo clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Short mode skips the slow multi-policy fault sweeps; race still covers
# every package's core paths, including the parallel experiment scheduler
# (pool collation, cancellation, concurrent result-cache puts).
race:
	$(GO) test -race -short ./...

check: vet build test race

# Every micro-benchmark, for a human at a terminal. Nothing gates on this
# output: the allocation and footprint bounds are go tests (DESIGN.md §10 has
# the list), and speed across commits is the benchmark's job (sh bench/run.sh,
# bench -compare).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

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

# Randomized robustness soak: ten minutes of FuzzSpecRun, which runs any
# spec Validate accepts (topology x workload x fault plan) on a small fabric
# under the global invariant auditor. Go's fuzz engine minimizes a failing
# input and writes it under internal/exp/testdata/fuzz/, where plain
# `go test` replays it.
soak:
	$(GO) test -run '^$$' -fuzz '^FuzzSpecRun$$' -fuzztime 10m ./internal/exp

# Hyperscale smoke: build the 10,240-host pod Clos and run the short mixed
# window with the invariant auditor armed (audit violations exit nonzero).
# TestScaleSmokePeakRSS runs the same smoke under an RSS bound and adds the
# 100k-host point.
scale:
	$(GO) run ./cmd/l2bmexp -exp scale -scale small

# The experiment daemon, with the result cache armed: submit sweeps with
# curl (see README "Service") and resubmissions come back instantly from
# the content-hash cache, byte-identical to the fresh run.
serve:
	$(GO) run ./cmd/l2bmd -addr 127.0.0.1:8080 -cache /tmp/l2bm-cache

# Wall-clock speedup of the parallel scheduler: the same Fig. 7 grid
# (4 policies x 8 loads), sequential vs all cores. On a >=4-core machine
# the second run should be >=2x faster; the table output is byte-identical
# either way (TestParallelFlagDeterminism; only the timing trailers differ).
speedup:
	$(GO) build -o /tmp/l2bmexp-speedup ./cmd/l2bmexp
	@echo "== workers=1 (sequential baseline) =="
	time /tmp/l2bmexp-speedup -exp fig7 -scale tiny -parallel 1 > /dev/null
	@echo "== workers=all cores =="
	time /tmp/l2bmexp-speedup -exp fig7 -scale tiny > /dev/null

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

# Hybrid-fidelity demo: one 40 ms steady window (RDMA 2 % + TCP 2 %, inter-
# rack) through -spec, on the pure packet engine and with the point's own
# "Fidelity":"hybrid" (internal/fluid). Every flow completes fluid, so the
# hybrid run dispatches no packet events; the counters say so.
STEADY = "Name":"steady","Policy":"L2BM","Scale":"tiny","RDMALoad":0.02,"TCPLoad":0.02,"InterRackOnly":true
hybrid-demo:
	$(GO) build -o /tmp/l2bmexp-hybrid ./cmd/l2bmexp
	@printf '{"specs":[{%s,"WindowOverride":40000000000}]}\n' '$(STEADY)' > /tmp/steady-packet.json
	@printf '{"specs":[{%s,"Fidelity":"hybrid","WindowOverride":40000000000}]}\n' '$(STEADY)' > /tmp/steady-hybrid.json
	@echo "== packet fidelity (every MTU simulated) =="
	@/tmp/l2bmexp-hybrid -spec /tmp/steady-packet.json | grep -oE '"(FlowsStarted|Events|FluidFlows|PacketSegments)":[0-9]+'
	@echo "== hybrid fidelity (fluid fast-forward + packet bursts) =="
	@/tmp/l2bmexp-hybrid -spec /tmp/steady-hybrid.json | grep -oE '"(FlowsStarted|Events|FluidFlows|PacketSegments)":[0-9]+'

clean:
	$(GO) clean ./...
