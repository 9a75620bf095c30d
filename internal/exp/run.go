package exp

import (
	"context"
	"fmt"
	"runtime"

	"l2bm/internal/faults"
	"l2bm/internal/metrics"
	"l2bm/internal/pkt"
	"l2bm/internal/psim"
	"l2bm/internal/sim"
	"l2bm/internal/topo"
	"l2bm/internal/trace"
	"l2bm/internal/transport"
	"l2bm/internal/workload"
)

// HybridSpec describes one data point of the paper's hybrid-traffic
// experiments: half the servers per rack offer RDMA web-search traffic,
// the other half TCP web-search traffic, with an optional incast query
// stream on top.
type HybridSpec struct {
	// Name labels the run (used in seeds and output).
	Name string
	// Policy is the BM scheme by name ("L2BM", "DT", "DT2", "ABM"), or use
	// PolicyFactory for custom instances (ablations).
	Policy string
	// PolicyFactory, set instead of Policy, builds a custom instance; the
	// Result is labelled with its Name. Excluded from JSON (funcs do not
	// serialize); wire specs name policies through the registry.
	PolicyFactory topo.PolicyFactory `json:"-"`
	// Scale sets topology and window; individual fields below override.
	Scale Scale
	// RDMALoad and TCPLoad are offered loads as fractions of the 25 Gbps
	// access links (paper: RDMA fixed at 0.4, TCP swept 0.1–0.8). Zero
	// disables that traffic class.
	RDMALoad float64
	TCPLoad  float64
	// InterRackOnly restricts Poisson destinations to other racks (the
	// paper's motivation setup).
	InterRackOnly bool
	// Incast, when non-nil, adds the §IV-B query workload.
	Incast *IncastSpec
	// WindowOverride, if positive, replaces the scale's window.
	WindowOverride sim.Duration
	// DrainOverride, if positive, replaces the scale's post-window drain
	// phase. Fault runs use a longer drain: recovery (RTO backoff, DCQCN
	// rate ramp-up after loss) needs more quiet time than a clean run.
	DrainOverride sim.Duration
	// TopoOverride, if set, may mutate the scale's topology/switch
	// configuration before the cluster is built (used by ablations and the
	// hyperscale smoke). It must be a pure function of the Config it is
	// given: it runs once per derivation (HybridSpec.fabric), and the cache
	// keys the spec by the fabric it yields. Excluded from JSON like every
	// func-valued field.
	TopoOverride func(*topo.Config) `json:"-"`
	// SeedSalt decorrelates repeated runs of the same spec.
	SeedSalt string
	// Shards selects the execution strategy: N >= 1 runs the fabric — a
	// packet run's, or each packet segment's of a hybrid run — on exactly N
	// psim shards (N must not exceed the topology's ToR count), and 0 lets it
	// size itself (autoShards: one shard per pod when its caller leaves it a
	// second core; one engine inside a pool that already fills the machine,
	// and on a fabric too small to be worth a barrier). Either way the shards
	// run on at most as many threads as the caller leaves cores idle.
	// The shard count is an execution strategy, not a workload parameter:
	// results are byte-identical for every value, Result.Events included.
	Shards int
	// Fidelity selects the execution engine: "" or FidelityPacket runs
	// every event through the packet engine; FidelityHybrid runs the fluid
	// fast-forward controller (internal/fluid), which advances flows
	// analytically between fidelity triggers and drops to full packet
	// simulation around incast bursts, fan-in convergence and buffer
	// pressure. Validate refuses it next to a fault plan: fault injection is
	// a standing trigger that never clears, so a faulted point always runs at
	// packet fidelity.
	Fidelity string
	// Faults, when non-nil, arms the fault-injection subsystem: the plan's
	// events fire during the run, DCQCN switches to go-back-N recovery,
	// and the deadlock detector plus no-progress watchdog observe the
	// fabric. Nil reproduces the paper's perfect-fabric runs bit-for-bit.
	Faults *FaultSpec
	// Trace, when non-nil, arms the flight recorder: every switch's
	// drop/ECN/PFC probes feed Result.Trace, and a periodic sampler records
	// occupancy plus L2BM weight/τ/threshold timelines. Tracing is
	// feed-forward only — a traced run produces byte-identical results to
	// an untraced one.
	Trace *TraceSpec
	// Audit, when non-nil, arms the global invariant auditor (internal/audit):
	// periodic in-flight sweeps of buffer-byte conservation, pause pairing,
	// flow-byte conservation and pool accounting, plus the drain-time exact
	// checks. Violations land in Result.AuditErrors. Auditing is observer-free:
	// an audited run produces byte-identical results and traces to an
	// unaudited one, apart from the sweeps Result.Events counts.
	Audit *AuditSpec
	// Hooks, when non-nil, exposes test-only interception points. Excluded
	// from JSON (it carries funcs).
	Hooks *RunHooks `json:"-"`
}

// Fidelity values for HybridSpec.Fidelity.
const (
	// FidelityPacket simulates every MTU of every flow (the default).
	FidelityPacket = "packet"
	// FidelityHybrid alternates fluid fast-forward with packet bursts.
	FidelityHybrid = "hybrid"
)

// AuditSpec configures the in-run invariant auditor.
type AuditSpec struct {
	// Every is the sweep period (0 = the auditor default, 500 µs).
	Every sim.Duration
	// MaxPauseAge, when positive, flags unpaired XOFFs older than this
	// mid-run. Leave zero for fault scenarios: injected PFC loss or carrier
	// cuts legitimately delay or destroy resumes.
	MaxPauseAge sim.Duration
}

// RunHooks are test-only interception points; production specs leave this
// nil. Specs carrying hooks cannot be stored or resumed (funcs don't serialize).
type RunHooks struct {
	// PostBuild runs once right after the cluster is built, before any
	// traffic or observers are armed — the place a mutation test plants a
	// seeded accounting bug (e.g. Switch.SkewSharedUsedForTest).
	PostBuild func(*topo.Cluster)
}

// FaultSpec couples a fault plan with the detection machinery settings.
type FaultSpec struct {
	// Plan declares what to inject. Flaps hit fabric (ToR–agg, agg–core)
	// links only, and a blackout must name a switch of the fabric.
	Plan faults.Plan
	// DetectorPeriod overrides the deadlock scan interval (0 = default).
	DetectorPeriod sim.Duration
	// BreakDeadlocks enables the detector's documented degraded mode.
	BreakDeadlocks bool
	// WatchdogWindow overrides the no-progress window (0 = default).
	WatchdogWindow sim.Duration
}

// IncastSpec configures the fan-in query stream.
type IncastSpec struct {
	// Fanout is N, responders per query.
	Fanout int
	// RequestBytes is the per-query payload (paper: 1 MB).
	RequestBytes int64
	// QueryRate is mean queries per second (paper: ≈752/s).
	QueryRate float64
}

// fabric is the topology spec runs on: its scale's, with TopoOverride
// applied. Validate, the run's plan and the cache key all read it here.
func (sp HybridSpec) fabric() topo.Config {
	cfg := sp.Scale.Topo()
	if sp.TopoOverride != nil {
		sp.TopoOverride(&cfg)
	}
	return cfg
}

// Result is everything a figure/table needs from one run. It holds output
// only: the spec that produced it stays with the caller.
type Result struct {
	Policy string

	// Per-class slowdowns of completed flows, ascending.
	RDMASlowdowns []float64
	TCPSlowdowns  []float64
	// IncastSlowdowns covers only the query-responder flows, ascending.
	IncastSlowdowns []float64
	// QueryDelays are per-query response times (max FCT over its flows).
	QueryDelays []sim.Duration

	// TorOccupancy traces total resident bytes per ToR switch.
	TorOccupancy [][]metrics.Reading

	// Trace is the flight recorder armed by HybridSpec.Trace (nil when tracing
	// was off). Export with WriteCol. Excluded from JSON: a traced spec is
	// never stored (the recorder is unbounded relative to point results).
	Trace *trace.Recorder `json:"-"`
	// Conductor is what the run's conductors did: its engine count, epochs,
	// inline epochs, parks, thread time — a hybrid run's packet segments
	// folded by psim.Stats.Add. How the machine let a run execute is not
	// part of its result: excluded from JSON, zero on a restored point.
	Conductor psim.Stats `json:"-"`
	// Restored marks a point ResultCache.Get served instead of the
	// simulator; TallyResults counts no events for it.
	Restored bool `json:"-"`

	// PauseFrames is the total XOFF count across all switches (the Fig.
	// 7(d)/Table II metric); the per-layer counters break it down.
	PauseFrames     uint64
	ToRPauseFrames  uint64
	AggPauseFrames  uint64
	CorePauseFrames uint64

	// Drops and marks aggregated over all switches. LossyEvictions counts
	// already-admitted packets a preemptive policy (Occamy) evicted —
	// losses like drops, but charged after admission.
	LossyDrops         uint64
	LossyEvictions     uint64
	LosslessViolations uint64
	ECNMarked          uint64

	// FlowsStarted/FlowsCompleted count observed (recorded) flows.
	FlowsStarted   int
	FlowsCompleted int
	// LosslessGaps must be zero in a healthy run; under go-back-N faults it
	// counts recovered out-of-sequence events.
	LosslessGaps uint64
	// Events is the run's cost: events the engines executed plus
	// barrier-task firings (auditor sweeps, deadlock scans, watchdog ticks).
	// One simulated event, one count: the same at every shard count (the
	// timer chains a sharded run replicates per shard are counted once).
	Events uint64
	// EndTime is the simulated instant the run stopped.
	EndTime sim.Time

	// Incomplete lists flows that started but never finished (normally
	// empty; under faults it pinpoints lost transfers).
	Incomplete []*metrics.FlowRecord
	// TruncatedFlows counts flows the horizon cut short: started inside the
	// window but still unfinished at window + drain. Always equals
	// len(Incomplete); surfaced as a counter so sweep tables and the
	// shard-count equivalence tests can compare it without carrying
	// the full records.
	TruncatedFlows int

	// Hybrid-fidelity accounting, all zero on pure packet runs.
	FluidFlows     int          // flows completed analytically in fluid segments
	FluidSteps     uint64       // fluid events (arrivals + completions) processed
	FluidTime      sim.Duration // simulated time covered by fluid segments
	PacketSegments int          // packet bursts the fidelity controller ran

	// AuditErrors lists invariant violations: the end-of-run CheckInvariants
	// sweep over every switch always runs, and when HybridSpec.Audit is set the
	// in-flight auditor's violations (including drain-time conservation
	// checks) are appended. Always empty in a correct simulator, faults or
	// not.
	AuditErrors []string
	// AuditChecks counts auditor sweeps that ran (zero when HybridSpec.Audit
	// is nil).
	AuditChecks uint64

	// PoolGets counts packet-pool checkouts over the run and PoolLive the
	// packets still checked out at run end (zero when the run fully
	// drained; positive when the horizon cut flows short and frames remain
	// parked in queues or in flight). Both zero with pooling disabled.
	PoolGets uint64
	PoolLive int64

	// Fault-injection and robustness observability, all zero on a healthy
	// fabric without a FaultSpec.
	RecoveryBytes   int64  // payload bytes retransmitted by any sender
	RDMANACKs       uint64 // go-back-N NACK-triggered rewinds
	RDMATimeouts    uint64 // go-back-N timeout-triggered rewinds
	PFCReissues     uint64 // XOFF frames re-sent after a suspected lost pause
	LinkDownEvents  uint64 // carrier cuts that fired (flaps, schedules, blackouts)
	CorruptedFrames uint64 // data frames destroyed by the BER process
	LostPFC         uint64 // PFC frames destroyed by the loss process
	CarrierDrops    uint64 // frames lost to dead carriers
	DeadlockScans   uint64 // detector sweeps run
	DeadlockCycles  uint64 // confirmed PFC wait-for cycles
	DeadlocksBroken uint64 // forced resumes issued to break cycles
	WatchdogStalls  uint64 // no-progress windows with resident bytes
}

// RDMAp99 returns the 99th-percentile RDMA FCT slowdown. The slowdown
// slices are stored ascending, so the sorted fast path applies.
func (r *Result) RDMAp99() float64 { return metrics.PercentileSorted(r.RDMASlowdowns, 99) }

// TCPp99 returns the 99th-percentile TCP FCT slowdown.
func (r *Result) TCPp99() float64 { return metrics.PercentileSorted(r.TCPSlowdowns, 99) }

// Incastp99 returns the 99th-percentile incast-flow slowdown.
func (r *Result) Incastp99() float64 { return metrics.PercentileSorted(r.IncastSlowdowns, 99) }

// OccupancyP99Fraction returns the 99th-percentile ToR occupancy as a
// fraction of the shared buffer (pooled over ToRs), the Fig. 7(c) metric.
func (r *Result) OccupancyP99Fraction(buffer int64) float64 {
	var all []float64
	for _, trace := range r.TorOccupancy {
		for _, s := range trace {
			all = append(all, float64(s.Value))
		}
	}
	return metrics.Percentile(all, 99) / float64(buffer)
}

// QueryDelaySummary condenses per-query response times (Fig. 10(b)),
// in milliseconds.
func (r *Result) QueryDelaySummary() metrics.Summary {
	xs := make([]float64, len(r.QueryDelays))
	for i, d := range r.QueryDelays {
		xs[i] = d.Millis()
	}
	return metrics.Summarize(xs)
}

// interruptPollEvents is how many executed events pass between context
// polls when a run is cancellable. Event-count based (not sim-time) so even
// a zero-delay livelock still gets interrupted; cheap enough (~one atomic
// load per 4096 events) to leave always-on.
const interruptPollEvents = 4096

// RunHybrid executes one data point.
func RunHybrid(spec HybridSpec) (*Result, error) {
	return RunHybridCtx(context.Background(), spec)
}

// RunHybridCtx is RunHybrid with cooperative cancellation: when ctx is
// cancelled (or times out) mid-run, the engines abandon the event loop at
// the next poll boundary and the call returns (nil, ctx.Err()) — the torn
// partial state is discarded, never summarized. An uncancelled ctx is
// observer-free: arming the poll changes no results.
func RunHybridCtx(ctx context.Context, spec HybridSpec) (*Result, error) {
	return runHybrid(ctx, spec, sim.NewEngine)
}

// runHybrid validates the spec and dispatches on fidelity; every path runs on
// engines newEngine builds.
func runHybrid(ctx context.Context, spec HybridSpec, newEngine engineFunc) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("exp: spec %q: %w", spec.Name, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if spec.Fidelity == FidelityHybrid {
		return runHybridFluid(ctx, resolve(spec, newEngine))
	}
	return runPacket(ctx, resolve(spec, newEngine))
}

// coresKey carries the cores a run may take (an int) down a context:
// exp.Pool sets it to its share of the machine per worker, and a context
// without it means the caller is the only run there is.
type coresKey struct{}

// coresAvailable reads how many cores a run under ctx may occupy.
func coresAvailable(ctx context.Context) int {
	if n, ok := ctx.Value(coresKey{}).(int); ok {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// minShardHosts is the fewest hosts a shard of a self-sized run has behind it.
// Being split at all has a price — lanes, a second engine, lookahead-bound
// epochs where one engine runs to the next barrier task — that a small fabric
// never earns back: the 8-host ScaleTiny point split in two read 44–46 ms
// against one engine's 38–42 (3,296 epochs of a few hundred events), the
// 32-host ScaleSmall Fig. 7 points 17–25 % less than one engine's.
const minShardHosts = 16

// shards is the engine count a fabric of this plan is built on — a packet
// run's, or a hybrid run's packet segment's: the spec's Shards, or autoShards
// of the cores ctx leaves the run when the spec says 0.
func (p *plan) shards(ctx context.Context) int {
	if p.spec.Shards > 0 {
		return p.spec.Shards
	}
	return autoShards(&p.topo, coresAvailable(ctx))
}

// autoShards is what Shards: 0 resolves to: one shard per pod when there is
// a second core to run them on and every pod has minShardHosts, one engine
// otherwise. The partition is the fabric's, not the machine's — the
// conductor runs the pods on min(cores, Pods) threads. A pod per shard keeps
// every cross-shard cable on the agg–core tier, so the lookahead stays
// AggCoreDelay; a split pod would drop it to TorAggDelay — a fifth of it on
// the paper's fabric, five times the epochs. Pods <= ToRCount, so every
// shard owns a rack.
func autoShards(cfg *topo.Config, cores int) int {
	if cores > 1 && cfg.Hosts()/cfg.Pods >= minShardHosts {
		return cfg.Pods
	}
	return 1
}

// runPacket executes one data point at packet fidelity on p.shards(ctx)
// engines.
func runPacket(ctx context.Context, p *plan) (*Result, error) {
	f, err := p.build(ctx, p.seed)
	if err != nil {
		return nil, err
	}
	defer f.cond.Close()
	cl := f.cl

	// Workload generators, replicated per shard, each logging the starts it
	// launches. Poisson sources draw from per-source streams, so installing
	// each shard's owned subset launches exactly the flows a single generator
	// would have. The incast replica runs everywhere in lockstep (same
	// queries, same draws) and its LaunchFilter restricts actual launches to
	// owned responders.
	wl := p.workload()
	incastGens := make([]*workload.Incast, len(f.engines))
	for s, eng := range f.engines {
		sl := &f.logs[s]
		observe := func(fl *transport.Flow) {
			sl.started = append(sl.started,
				metrics.FlowRecord{Flow: *fl, Ideal: cl.IdealFCT(fl.Src, fl.Dst, fl.Size)})
		}
		for _, cfg := range wl.Poisson {
			if len(f.engines) > 1 { // a lone shard owns every sender: nothing to filter
				var owned []int
				for _, h := range cfg.Sources {
					if f.part.Host[h] == s {
						owned = append(owned, h)
					}
				}
				if len(owned) == 0 {
					continue // this shard owns none of the class's senders
				}
				cfg.Sources = owned
			}
			cfg.Observer = observe
			g, err := workload.NewPoisson(eng, cl, cfg)
			if err != nil {
				return nil, err
			}
			g.Install()
		}
		if wl.Incast != nil {
			cfg := *wl.Incast
			cfg.Observer = observe
			cfg.LaunchFilter = func(src int) bool { return f.part.Host[src] == s }
			g, err := workload.NewIncast(eng, cl, cfg)
			if err != nil {
				return nil, err
			}
			g.Install()
			incastGens[s] = g
		}
	}
	if wl.Incast != nil {
		f.incast = incastGens
	}

	// Occupancy chains, one per ToR (the paper traces rack switches):
	// engine-driven ticks on each ToR's own shard (pure shard-local reads,
	// so no barrier needed).
	torOcc := make([][]metrics.Reading, len(cl.ToRs))
	for i, tor := range cl.ToRs {
		metrics.NewSampler(f.engines[f.part.ToR[i]], occupancyEvery, func(now sim.Time) {
			torOcc[i] = append(torOcc[i], metrics.Reading{At: now, Value: tor.Occupancy()})
		}).Start(p.window) // trace the loaded phase, like the paper
	}
	f.armTrace(p.window)

	f.cond.Run(p.horizon)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &Result{Policy: p.policy, EndTime: f.cond.Now()}
	if f.tracers != nil {
		// Merged canonically, so exported trace files are byte-identical
		// across shard counts.
		res.Trace = trace.Merge(f.tracers...)
	}
	// The shard logs fold into one recorder: every start, then every
	// completion. Incast replica 0 registered every query's flows, so it
	// hears every completion and answers for all replicas.
	rec := metrics.NewFCTRecorder()
	for _, l := range f.logs {
		for i := range l.started {
			rec.Started(&l.started[i].Flow, l.started[i].Ideal)
		}
	}
	f.drain(func(id pkt.FlowID, at sim.Time) {
		rec.Completed(id, at)
		if wl.Incast != nil {
			incastGens[0].OnFlowComplete(id, at)
		}
	})
	summarizeFlows(res, rec)
	if wl.Incast != nil {
		for _, g := range incastGens[1:] {
			if err := incastGens[0].InLockstep(g); err != nil {
				return nil, err
			}
		}
		res.QueryDelays = incastGens[0].CompletedResponseTimes()
	}
	res.TorOccupancy = torOcc
	f.harvest(res, true)
	return res, nil
}
