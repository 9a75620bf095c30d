// The run assembler: the one place a HybridSpec becomes a running fabric.
// Every execution strategy — one engine, N shards, and each packet segment
// of a hybrid-fidelity run — goes through the same four steps, each written
// once:
//
//	resolve   spec → plan (policy, topology, window, horizon, seed)
//	workload  plan → fluid.Workload (rack split, rdma → tcp → incast)
//	build     plan → fabric (engines, cluster, conductor, auditor, faults)
//	harvest   fabric → Result counters
//
// Everything that must agree across shard counts is either a pure function
// of the wiring (arrival keys), replicated per shard on identically-seeded
// engines (workload generators, fault processes), or run as a conductor
// barrier task (the global observers, see plan.build). What each shard sees
// of its flows lands in its shardLog and its flight recorder, which the
// conductor's goroutine folds in shard order between epochs, so results are
// byte-identical for every legal shard count.
package exp

import (
	"context"
	"fmt"
	"sort"

	"l2bm/internal/audit"
	"l2bm/internal/core"
	"l2bm/internal/faults"
	"l2bm/internal/fluid"
	"l2bm/internal/host"
	"l2bm/internal/metrics"
	"l2bm/internal/netdev"
	"l2bm/internal/pkt"
	"l2bm/internal/psim"
	"l2bm/internal/sim"
	"l2bm/internal/switchsim"
	"l2bm/internal/topo"
	"l2bm/internal/trace"
	"l2bm/internal/workload"
)

// engineFunc builds one shard's engine. Production runs pass sim.NewEngine;
// the scheduler-identity tests pass the reference heap through this seam,
// which is deliberately not reachable from a spec: the backend can never
// change a result, so it is not a run parameter.
type engineFunc func(seed int64) *sim.Engine

// plan is everything a run derives from its spec before anything is built.
type plan struct {
	spec      HybridSpec
	newEngine engineFunc
	policy    string // Result.Policy label
	factory   topo.PolicyFactory
	topo      topo.Config  // overrides applied; go-back-N under a fault plan
	window    sim.Duration // traffic-generation window
	horizon   sim.Time     // window + drain
	seed      int64
}

// occupancyEvery is the ToR occupancy sampling period (the paper samples
// every 1 ms; the shorter windows here want 100 µs), and the flight
// recorder's default one.
const occupancyEvery = 100 * sim.Microsecond

// resolve derives the plan. A validated spec has one policy source, and the
// Result.Policy label comes from it.
func resolve(spec HybridSpec, newEngine engineFunc) *plan {
	p := &plan{spec: spec, newEngine: newEngine, policy: spec.Policy, factory: spec.PolicyFactory}
	if p.factory == nil {
		name := spec.Policy
		p.factory = func() core.Policy { return core.MustNewPolicy(name) }
	} else {
		p.policy = p.factory().Name()
	}

	p.topo = spec.Scale.Topo()
	if spec.TopoOverride != nil {
		spec.TopoOverride(&p.topo)
	}
	if spec.Faults != nil {
		// Injected loss breaks the lossless assumption, so RDMA needs the
		// go-back-N recovery path; fault-free runs keep it off to preserve
		// the paper's baseline byte-for-byte.
		p.topo.GoBackN = true
	}

	p.window = spec.Scale.Window()
	if spec.WindowOverride > 0 {
		p.window = spec.WindowOverride
	}
	drain := spec.Scale.Drain()
	if spec.DrainOverride > 0 {
		drain = spec.DrainOverride
	}
	p.horizon = p.window + drain

	// The seed deliberately excludes the policy, the shard count and the
	// fidelity: the paper compares buffer management schemes under the same
	// offered workload, so runs differ only in MMU decisions (common random
	// numbers), and shard count and fidelity are execution strategies, not
	// workload parameters.
	p.seed = seedFor(spec.Name, spec.SeedSalt,
		fmt.Sprintf("%v/%v/%v", spec.RDMALoad, spec.TCPLoad, spec.Scale))
	return p
}

// Structured flow-ID tags, one per generator kind, carried in the ID's top
// byte. Replicated generators mint IDs as pure functions of (tag,
// source/query, sequence), so replicas on different shards agree without a
// shared counter; distinct tags keep the ID spaces disjoint, and a flow's
// generator can be read back off its ID.
const (
	tagRDMA   byte = 1
	tagTCP    byte = 2
	tagIncast byte = 3
)

// workload describes the run's offered traffic, once: the packet runner
// installs this value on every shard and fluid.Extract replays it to derive
// the hybrid launch schedule, so both see the same generators in the same
// rdma → tcp → incast order by construction.
func (p *plan) workload() fluid.Workload {
	// Split each rack: first half RDMA senders, second half TCP senders.
	var rdmaHosts, tcpHosts, allHosts []int
	perRack := p.topo.ServersPerToR
	for h := 0; h < p.topo.Hosts(); h++ {
		allHosts = append(allHosts, h)
		if h%perRack < perRack/2 {
			rdmaHosts = append(rdmaHosts, h)
		} else {
			tcpHosts = append(tcpHosts, h)
		}
	}
	var forbid func(src, dst int) bool
	if p.spec.InterRackOnly {
		forbid = func(src, dst int) bool { return p.topo.ToROf(src) == p.topo.ToROf(dst) }
	}

	var wl fluid.Workload
	if p.spec.RDMALoad > 0 {
		wl.Poisson = append(wl.Poisson, workload.PoissonConfig{
			Sources:    rdmaHosts,
			Dests:      allHosts,
			Load:       p.spec.RDMALoad,
			HostRate:   p.topo.ServerRate,
			Sizes:      workload.WebSearchCDF(),
			Priority:   pkt.PrioLossless,
			Class:      pkt.ClassLossless,
			Window:     p.window,
			Forbid:     forbid,
			StreamName: "rdma",
			IDTag:      tagRDMA,
		})
	}
	if p.spec.TCPLoad > 0 {
		wl.Poisson = append(wl.Poisson, workload.PoissonConfig{
			Sources:    tcpHosts,
			Dests:      allHosts,
			Load:       p.spec.TCPLoad,
			HostRate:   p.topo.ServerRate,
			Sizes:      workload.WebSearchCDF(),
			Priority:   pkt.PrioLossy,
			Class:      pkt.ClassLossy,
			Window:     p.window,
			Forbid:     forbid,
			StreamName: "tcp",
			IDTag:      tagTCP,
		})
	}
	if in := p.spec.Incast; in != nil {
		fanout := in.Fanout
		if fanout >= len(allHosts) {
			// Scaled-down topologies cannot host the full fan-in degree.
			fanout = len(allHosts) - 1
		}
		// Queries target (and are answered by) any server, so fan-in
		// bursts land on ports whose buffers the TCP background is
		// already pressuring — the §IV-B contention the deep dive probes.
		wl.Incast = &workload.IncastConfig{
			Hosts:        allHosts,
			Fanout:       fanout,
			RequestBytes: in.RequestBytes,
			QueryRate:    in.QueryRate,
			Window:       p.window,
			Priority:     pkt.PrioLossless,
			Class:        pkt.ClassLossless,
			StreamName:   "incast",
			IDTag:        tagIncast,
		}
	}
	return wl
}

// fabric is one built, observed cluster: a whole packet run, or one packet
// segment of a hybrid run.
type fabric struct {
	p       *plan
	engines []*sim.Engine
	part    *topo.Partition
	cl      *topo.Cluster
	cond    *psim.Conductor
	logs    []shardLog // one per shard; its hosts' CompletionHandler appends

	tracers  []*trace.Recorder  // one per shard (rings are single-threaded); nil when tracing is off
	samplers []*metrics.Sampler // one chain per shard, beside its recorder
	aud      *audit.Auditor
	injs     []*faults.Injector // one replica per shard
	incast   []*workload.Incast // one replica per shard (runPacket); nil without an incast stream
	occTicks []uint64           // per shard, the ticks of a hybrid segment's occupancy chain; nil in a packet run
	det      *faults.DeadlockDetector
	wd       *faults.Watchdog
}

// shardLog is what one shard saw of its flows: starts its generators'
// launch observers append (with the ideal FCT), and completions its hosts'
// CompletionHandler appends. Only the shard's own thread appends, and only the
// conductor's goroutine reads, between epochs — where runPacket or a hybrid
// segment folds every shard's log in shard order, so a flow started on its
// source host's shard and completed on its destination's needs no lock and no
// join.
type shardLog struct {
	started []metrics.FlowRecord
	done    []flowDone
}

// flowDone is one logged completion.
type flowDone struct {
	id pkt.FlowID
	at sim.Time
}

func (l *shardLog) complete(id pkt.FlowID, at sim.Time) {
	l.done = append(l.done, flowDone{id, at})
}

// drain hands every completion logged since the last drain to fn, shard by
// shard, and empties the logs. Call it between epochs only.
func (f *fabric) drain(fn func(id pkt.FlowID, at sim.Time)) {
	for s := range f.logs {
		for _, d := range f.logs[s].done {
			fn(d.id, d.at)
		}
		f.logs[s].done = f.logs[s].done[:0]
	}
}

// build wires the plan's cluster across p.shards(ctx) engines seeded with
// seed and arms everything that observes it apart from the flight recorder
// (armTrace, after the workload is installed). All engines share the seed:
// replicated generators and injectors rely on identical named streams.
// Every host's completions land in its shard's log.
//
// Arming order is part of byte identity. Every pre-run Schedule call
// consumes an engine sequence number, and on each engine the order is:
// injector, generators, occupancy samplers, trace sampler.
//
// The global observers — the ones that read state across every shard: auditor
// sweeps, deadlock scans, the no-progress watchdog — are conductor barrier
// tasks at every shard count. A task runs at exact multiples of its period,
// when all shard clocks agree and no events are in flight; as one shard's
// engine event it would read the other shards' state mid-epoch. At coincident
// instants tasks dispatch in registration order, auditor → detector →
// watchdog. The order is fixed, not free: the detector is the one observer
// that can write (a forced resume), so the auditor's pause-age check reads
// the fabric before that write, and the pinned digests were captured so.
func (p *plan) build(ctx context.Context, seed int64) (*fabric, error) {
	part, err := topo.ComputePartition(p.topo, p.shards(ctx))
	if err != nil {
		return nil, err
	}
	engines := make([]*sim.Engine, part.Shards)
	for i := range engines {
		engines[i] = p.newEngine(seed)
	}
	logs := make([]shardLog, part.Shards)
	handlers := make([]host.CompletionHandler, part.Shards) // one per shard, shared by its hosts
	for s := range handlers {
		handlers[s] = logs[s].complete
	}
	cl, err := topo.BuildSharded(engines, part, p.topo, p.factory,
		func(shard int) host.CompletionHandler { return handlers[shard] })
	if err != nil {
		return nil, err
	}
	if p.spec.Hooks != nil && p.spec.Hooks.PostBuild != nil {
		p.spec.Hooks.PostBuild(cl)
	}
	f := &fabric{p: p, engines: engines, part: part, cl: cl, cond: psim.New(cl.Engines, cl.Inbound(), cl.Lookahead, coresAvailable(ctx)), logs: logs}
	if ctx.Done() != nil {
		// ctx.Err is safe for concurrent use, as SetInterrupt requires of
		// its poll (shard workers check it in parallel).
		f.cond.SetInterrupt(interruptPollEvents, func() bool { return ctx.Err() != nil })
	}

	if a := p.spec.Audit; a != nil {
		// Any active fault plan may legitimately strand a PFC pause (lost
		// XON, cut carrier, blacked-out switch), so drain-time pause-leak
		// checking is relaxed exactly then.
		f.aud = audit.New(cl, audit.Config{
			Every:            a.Every,
			MaxPauseAge:      a.MaxPauseAge,
			AllowLeakedPause: p.spec.Faults != nil,
		})
		f.cond.AddTask(f.aud.Every(), f.aud.CheckOnce)
	}
	if p.spec.Faults != nil {
		if err := f.armFaults(p.spec.Faults); err != nil {
			f.cond.Close()
			return nil, err
		}
	}
	return f, nil
}

// armFaults installs the fault plan and the detection machinery.
func (f *fabric) armFaults(fs *FaultSpec) error {
	// One injector replica per shard, all replaying the identical plan (same
	// named streams on identically-seeded engines). Each replica applies
	// carrier changes to its own liveness tables and touches only the ports
	// it owns.
	for s, eng := range f.engines {
		inj, err := faults.NewInjector(eng, fs.Plan, faultLinks(f.cl, s))
		if err != nil {
			return err
		}
		inj.PortFilter = func(p *netdev.Port) bool { return p.Engine() == eng }
		inj.Install()
		f.injs = append(f.injs, inj)
	}

	f.det = faults.NewDeadlockDetector(f.cl.AllSwitches())
	if fs.DetectorPeriod > 0 {
		f.det.Period = fs.DetectorPeriod
	}
	f.det.Break = fs.BreakDeadlocks
	f.cond.AddTask(f.det.Period, f.det.ScanOnce)

	f.wd = faults.NewWatchdog(f.cl.DataReceived, f.cl.ResidentBytes)
	if fs.WatchdogWindow > 0 {
		f.wd.Window = fs.WatchdogWindow
	}
	f.cond.AddTask(f.wd.Window, f.wd.TickOnce)
	return nil
}

// faultLinks adapts the topology's link registry to one shard's injector
// replica: every link but the access tier is a fabric link, and SetLive
// mutates only that shard's liveness replica and owned ports, through the
// cluster's liveness-aware routing update.
func faultLinks(cl *topo.Cluster, shard int) []faults.Link {
	links := cl.Links()
	out := make([]faults.Link, 0, len(links))
	for _, l := range links {
		out = append(out, faults.Link{
			Name: l.Name, A: l.A, B: l.B, AName: l.AName, BName: l.BName,
			Fabric:  l.Tier != topo.TierServer,
			SetLive: func(up bool) { cl.SetLinkStateOn(shard, l.Index, up) },
		})
	}
	return out
}

// armTrace arms the flight recorder when the spec asks for one: MMU probes
// on every switch feeding its shard's recorder, and one sampler chain per
// shard running for the next until of simulated time (not started when
// until ≤ 0) that records the occupancy of the shard's switches — ToRs, then
// aggs, then cores — and then the weight, τ and threshold of every L2BM
// queue among them. Everything here is feed-forward (probes and L2BM reads
// are pure), so arming it cannot change the run's results.
func (f *fabric) armTrace(until sim.Duration) {
	ts := f.p.spec.Trace
	if ts == nil {
		return
	}
	every := ts.SampleEvery
	if every <= 0 {
		every = occupancyEvery
	}
	f.tracers = make([]*trace.Recorder, len(f.engines))
	for s := range f.tracers {
		f.tracers[s] = trace.NewRecorder(ts.Capacity)
	}
	owned := make([][]*switchsim.Switch, len(f.engines))
	for _, tier := range []struct {
		sws   []*switchsim.Switch
		shard []int
	}{{f.cl.ToRs, f.part.ToR}, {f.cl.Aggs, f.part.Agg}, {f.cl.Cores, f.part.Core}} {
		for i, sw := range tier.sws {
			sw.SetTracer(f.tracers[tier.shard[i]])
			owned[tier.shard[i]] = append(owned[tier.shard[i]], sw)
		}
	}
	f.samplers = make([]*metrics.Sampler, len(f.engines))
	for s, eng := range f.engines {
		rec, sws := f.tracers[s], owned[s]
		var scratch []core.QueueSample // reused across ticks: zero-alloc sampling
		f.samplers[s] = metrics.NewSampler(eng, every, func(now sim.Time) {
			for _, sw := range sws {
				rec.RecordOcc(trace.OccSample{At: now, Switch: sw.Name(), Resident: sw.Occupancy(), SharedUsed: sw.SharedUsed()})
			}
			for _, sw := range sws {
				l, ok := sw.Policy().(*core.L2BM)
				if !ok {
					continue
				}
				scratch = l.PeekSamplesAppend(scratch[:0], sw)
				for _, qs := range scratch {
					rec.RecordWeight(trace.WeightSample{
						At: now, Switch: sw.Name(), Port: qs.Port, Prio: qs.Prio,
						Tau: qs.Tau, Weight: qs.Weight, Threshold: qs.Threshold,
					})
				}
			}
		})
		if until > 0 {
			f.samplers[s].Start(until) // sample the loaded phase, like the occupancy chains
		}
	}
}

// harvest adds the fabric's counters and findings to res: a packet run calls
// it once on a fresh Result, a hybrid run once per packet segment. final
// marks the fabric the run ends in: only then are frames still checked out
// of the pools "live at run end" and only then do the auditor's exact
// drain-time checks apply — a quiescence cut legitimately leaves frames in
// flight, which the fluid layer re-serves.
func (f *fabric) harvest(res *Result, final bool) {
	cl := f.cl
	all := topo.SwitchStats(cl.AllSwitches())
	res.PauseFrames += all.PauseFramesSent
	res.LossyDrops += all.LossyDropsIngress + all.LossyDropsEgress
	res.LossyEvictions += all.LossyEvictions
	res.LosslessViolations += all.LosslessViolations
	res.ECNMarked += all.ECNMarked
	res.PFCReissues += all.PFCReissues
	res.ToRPauseFrames += topo.SwitchStats(cl.ToRs).PauseFramesSent
	res.AggPauseFrames += topo.SwitchStats(cl.Aggs).PauseFramesSent
	res.CorePauseFrames += topo.SwitchStats(cl.Cores).PauseFramesSent

	res.LosslessGaps += cl.LosslessGaps()
	st := f.cond.Stats()
	res.Events += f.cond.Events() + st.TaskFirings - f.replicaEvents()
	res.Conductor.Add(st)
	res.RecoveryBytes += cl.RecoveryBytes()
	nacks, timeouts := cl.RDMARecoveryStats()
	res.RDMANACKs += nacks
	res.RDMATimeouts += timeouts
	for _, pl := range cl.Pools {
		if pl != nil {
			res.PoolGets += pl.Stats().Gets
			if final {
				res.PoolLive += pl.Live()
			}
		}
	}
	for _, sw := range cl.AllSwitches() {
		if err := sw.CheckInvariants(); err != nil {
			res.AuditErrors = append(res.AuditErrors, err.Error())
		}
	}
	if f.aud != nil {
		if final {
			f.aud.Final(f.cond.Now())
		}
		res.AuditErrors = append(res.AuditErrors, f.aud.Violations()...)
		res.AuditChecks += f.aud.Checks()
	}
	if len(f.injs) > 0 {
		// Process counters (flaps, blackouts) replay identically on every
		// replica — read replica 0. Port-scoped counters (corruption, lost
		// PFC) only count owned ports — sum them. CarrierDrops reads every
		// port's counters, identical from any replica after the run.
		res.LinkDownEvents += f.injs[0].Stats().LinkDownEvents
		for _, inj := range f.injs {
			s := inj.Stats()
			res.CorruptedFrames += s.CorruptedFrames
			res.LostPFC += s.LostPFC
		}
		res.CarrierDrops += f.injs[0].CarrierDrops()
	}
	if f.det != nil {
		ds := f.det.Stats()
		res.DeadlockScans += ds.Scans
		res.DeadlockCycles += ds.CyclesDetected
		res.DeadlocksBroken += ds.CyclesBroken
	}
	if f.wd != nil {
		res.WatchdogStalls += f.wd.Stalls
	}
}

// replicaEvents counts the engine events that exist only because the fabric
// is sharded: the tick chains every shard runs its own copy of — the incast
// query stream, the fault injector, the trace sampler, a hybrid segment's
// occupancy chain — fire once per shard where one engine fires them once. One
// simulated event, one count: replicas 2…N are taken back out, so
// Result.Events is the same number at every shard count and the result's
// bytes never depend on how many cores the run found.
func (f *fabric) replicaEvents() uint64 {
	var n uint64
	for s := 1; s < len(f.engines); s++ {
		if f.incast != nil {
			n += f.incast[s].Ticks
		}
		if f.injs != nil {
			n += f.injs[s].Stats().Firings
		}
		if f.samplers != nil {
			n += f.samplers[s].Ticks
		}
		if f.occTicks != nil {
			n += f.occTicks[s]
		}
	}
	return n
}

// summarizeFlows fills res's per-flow outcome from the run's (merged)
// recorder; the query-responder flows are the ones minted under tagIncast.
func summarizeFlows(res *Result, rec *metrics.FCTRecorder) {
	res.RDMASlowdowns = rec.Slowdowns(pkt.ClassLossless)
	res.TCPSlowdowns = rec.Slowdowns(pkt.ClassLossy)
	res.FlowsStarted, res.FlowsCompleted = rec.Counts()
	res.Incomplete = rec.IncompleteRecords()
	res.TruncatedFlows = len(res.Incomplete)
	for _, fr := range rec.Records(pkt.ClassLossless) {
		if byte(fr.Flow.ID>>56) == tagIncast {
			res.IncastSlowdowns = append(res.IncastSlowdowns, fr.Slowdown())
		}
	}
	// Keep the ascending invariant shared with the per-class slices so
	// percentile readers can use the sorted fast path.
	sort.Float64s(res.IncastSlowdowns)
}
