package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"l2bm/internal/exp"
	"l2bm/internal/topo"
	"l2bm/internal/trace"
)

// runTraced is the --trace 1 run, separate from the measured one: the
// end-to-end numbers are always taken with tracing off. It runs a short
// untraced pass and the same pass traced (their difference is the tracing
// overhead), harvests the exact counters, runs every micro-driver and the
// in-run ratio experiments, and flushes the spans to
// <out>/trace-<workload>.json with the self-time table printed beside.
func runTraced(rc *runCtx, w runner) (*report, error) {
	rep := newReport(rc, w, true)
	if err := w.setup(rc); err != nil {
		w.teardown()
		return nil, err
	}
	defer w.teardown()

	// A third of the measured run's sweeps, at least two: enough for the
	// counters (read off sweep 0) and for a paired overhead figure.
	n := w.fixedSweeps(rc) / 3
	if n < 2 {
		n = 2
	}
	plain := w.runFixed(n, nil)
	rep.absorb(plain)
	tr := newTracer()
	var traced passResult
	allocMB, allocObjs := memDelta(func() { traced = w.runFixed(n, tr) })
	rep.absorb(traced)
	held := w.runHeld(tr)
	rep.absorb(held)
	if len(plain.sweepMS) == 0 || len(traced.sweepMS) == 0 {
		return nil, fmt.Errorf("bench: %s: no sweep completed (%d failed; first: %s)",
			w.Name(), rep.Failed, firstOr(rep.Failures, "none recorded"))
	}
	if plain.digest != traced.digest {
		rep.Failed++
		rep.Failures = append(rep.Failures, w.Name()+": the traced pass produced different results than the untraced pass")
	}

	set := func(name string, v float64) { rep.set(perLayer, name, v) }
	plainMS, tracedMS := summarize(plain.sweepMS).Q1, summarize(traced.sweepMS).Q1
	set("trace_overhead_pct", 100*(tracedMS-plainMS)/plainMS)
	set("exp.sweep_wall_s", plainMS/1e3)
	set("exp.sweeps_per_s", float64(len(plain.sweepMS))/plain.wall.Seconds())
	if held.units > 0 && traced.units > 0 && len(held.sweepMS) > 0 {
		set("exp.seeded_over_fixed", (median(held.sweepMS)/held.units)/(tracedMS/traced.units))
	} else {
		set("exp.seeded_over_fixed", 0)
	}

	// Exact counts, off sweep 0 of the traced pass.
	for _, name := range []string{
		"sim.events", "pkt.pool_gets", "netdev.tx_packets", "netdev.pfc_frames",
		"switchsim.rx_packets", "switchsim.pause_frames", "switchsim.lossy_drops",
		"switchsim.ecn_marked", "switchsim.evictions", "host.flows_completed",
		"trace.events_recorded", "audit.checks",
		"fluid.flows", "fluid.steps", "fluid.packet_segments",
	} {
		set(name, float64(traced.counts[name]))
	}
	sweepS := tracedMS / 1e3
	set("sim.events_per_s", float64(traced.counts["sim.events"])/sweepS)
	set("fluid.sim_time_share", ratio(traced.extra["fluid.time_ps"], traced.extra["sim.end_ps"]))
	set("colfmt.bytes_per_point", ratio(traced.extra["colfmt.bytes"], float64(traced.points)))
	sweeps := float64(len(traced.sweepMS))
	set("exp.alloc_mb_per_sweep", allocMB/sweeps)
	set("exp.allocs_per_event", ratio(float64(allocObjs)/sweeps, float64(traced.counts["sim.events"])))
	for _, name := range []string{"serve.cache_hit_ratio", "serve.rejected_429", "serve.result_bytes", "serve.rss_growth_kb_per_sweep"} {
		set(name, traced.extra[name])
	}

	// Unit costs and in-run ratios.
	l := newLedger(rc, tr)
	if err := runLedger(l, rc); err != nil {
		return nil, err
	}
	if err := expDrivers(l, rc, w.firstSpec()); err != nil {
		return nil, err
	}
	if _, own := traced.extra["serve.submit_ms"]; own {
		// The daemon workloads' own requests, against the real child.
		for _, name := range []string{"serve.submit_ms", "serve.queue_wait_ms", "serve.wait_ms", "serve.result_ms"} {
			l.out[name] = traced.extra[name]
		}
		_, l.out["serve.sweep_tail_ms"] = tailPercentile(traced.sweepMS)
	} else if err := serveProbe(l, rc); err != nil {
		return nil, err
	}
	if err := macroDrivers(l, rc); err != nil {
		return nil, err
	}
	l.close()
	for name, v := range l.out {
		set(name, v)
	}
	for name, v := range shares(traced, l.out) {
		set(name, v)
	}

	pct, tail := tailPercentile(traced.sweepMS)
	rep.Info["sweep_tail_pct"], rep.Info["sweep_tail_ms"] = pct, tail
	rep.finish(traced, held)

	path := filepath.Join(rc.outDir, "trace-"+w.Name()+".json")
	if err := tr.writeChrome(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(rc.log, "spans: %s\n", path)
	printSelfTable(rc.log, selfTimes(tr.spans))
	return rep, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runLedger runs every micro-driver. They do not depend on the workload:
// each traced run prints the whole ledger, so any two traced runs of a
// commit can be compared row by row.
func runLedger(l *ledger, rc *runCtx) error {
	l.unit("sim.event_ns.pending64", simChurn(64, 21))
	l.unit("sim.event_ns.pending10k", simChurn(10_000, 30))
	big := 1_000_000
	if rc.smoke {
		big = 50_000
	}
	l.unit("sim.event_ns.pending1M", simChurn(big, 30))
	l.unit("sim.cancel_ns", simCancel)
	l.unit("pkt.getput_ns", pktGetPut)
	l.unit("netdev.hop_ns", netdevHop)
	for _, pol := range []string{"DT", "L2BM", "ABM", "Occamy"} {
		l.unit("switchsim.admit_ns."+pol, switchAdmit(pol, nil))
		l.unit("core.threshold_ns."+pol, coreThreshold(pol))
	}
	l.unit("switchsim.admit_traced_ns.L2BM", switchAdmit("L2BM", trace.NewRecorder(0)))
	l.unit("core.sojourn_update_ns", coreSojourn)
	l.unit("dctcp.ack_ns", dctcpAck)
	l.unit("dctcp.ooo_data_ns", dctcpOOO)
	l.unit("dcqcn.pkt_ns", dcqcnPkt)
	l.unit("dcqcn.cnp_ns", dcqcnCNP)
	l.unit("host.deliver_ns", hostDeliver)
	l.unit("workload.arrival_ns", workloadArrival)
	l.unit("trace.record_ns", traceRecord)
	l.unit("metrics.collect_ms", metricsCollect)
	l.out["colfmt.write_mb_per_s"] = colfmtWrite(l)
	l.out["fluid.advance_us_per_step"] = fluidAdvance(l)

	// topo: the ScaleSmall fabric (median of the rounds) and the 10,240-host
	// pod Clos (once: it takes a quarter of a gigabyte).
	sp := l.span("topo.build_s.small")
	var builds []float64
	var small *topo.Cluster
	for i := 0; i < l.rounds; i++ {
		s, _, cl, err := topoBuild(exp.ScaleSmall.Topo())
		if err != nil {
			return fmt.Errorf("bench: topo driver: %w", err)
		}
		builds, small = append(builds, s), cl
	}
	sp.end()
	l.out["topo.build_s.small"] = median(builds)
	l.unit("audit.sweep_us", auditSweep(small))

	scale := exp.ScaleSmall
	if rc.smoke {
		scale = exp.ScaleTiny
	}
	cfg, err := exp.HyperscaleFor(scale).Config()
	if err != nil {
		return fmt.Errorf("bench: topo driver: %w", err)
	}
	sp = l.span("topo.build_s.10k")
	s, perHost, _, err := topoBuild(cfg)
	sp.end()
	if err != nil {
		return fmt.Errorf("bench: topo driver: %w", err)
	}
	l.out["topo.build_s.10k"], l.out["topo.bytes_per_host.10k"] = s, perHost
	return nil
}

// timePoint runs one spec and returns its wall time.
func timePoint(spec exp.HybridSpec) (*exp.Result, float64, error) {
	t0 := time.Now()
	res, err := exp.RunHybridCtx(context.Background(), spec)
	d := time.Since(t0).Seconds()
	if err != nil {
		return nil, 0, err
	}
	if err := checkResult(res); err != nil {
		return nil, 0, err
	}
	return res, d, nil
}

// macroDrivers are the whole-point experiments whose result is a ratio
// taken within this run, which survives a change of machine: the policy
// split of the headline point, the sharded conductor against the classic
// engine, and hybrid fidelity against its packet reference.
func macroDrivers(l *ledger, rc *runCtx) error {
	points := fig7List("", rc.smoke) // [L2BM, DT]
	rounds := 3
	if rc.smoke {
		rounds = 1
	}

	// core: the same traffic under L2BM and under DT.
	var wallL2BM, wallDT []float64
	var p99L2BM, p99DT float64
	sp := l.span("core.policy_split")
	for i := 0; i < rounds; i++ {
		a, da, err := timePoint(points[0])
		if err != nil {
			return fmt.Errorf("bench: policy split: %w", err)
		}
		b, db, err := timePoint(points[1])
		if err != nil {
			return fmt.Errorf("bench: policy split: %w", err)
		}
		wallL2BM, wallDT = append(wallL2BM, da), append(wallDT, db)
		p99L2BM, p99DT = a.RDMAp99(), b.RDMAp99()
	}
	sp.end()
	l.out["core.sweep_wall_s.L2BM"] = median(wallL2BM)
	l.out["core.sweep_wall_s.DT"] = median(wallDT)
	l.out["core.rdma_p99_l2bm_over_dt"] = ratio(p99L2BM, p99DT)

	// psim: the L2BM point on the conductor with one and two shards, over
	// the classic engine (measured just above, same run). The results must
	// be the classic engine's, byte for byte.
	sp = l.span("psim.shards")
	for _, shards := range []int{1, 2} {
		spec := points[0]
		spec.Shards = shards
		var walls []float64
		for i := 0; i < rounds; i++ {
			_, d, err := timePoint(spec)
			if err != nil {
				return fmt.Errorf("bench: psim ratio (%d shards): %w", shards, err)
			}
			walls = append(walls, d)
		}
		l.out[fmt.Sprintf("psim.shards%d_wall_ratio", shards)] = ratio(median(walls), median(wallL2BM))
	}
	sp.end()

	// fluid: hybrid fidelity against the packet engine on the same specs.
	// The references use a quarter of hybrid_steady's windows: a full-window
	// packet reference costs seconds, and the ratio needs the same spec on
	// both sides, not the longest one.
	sp = l.span("fluid.fidelity")
	var hybridWall, packetWall, relErr float64
	terms := 0
	for _, spec := range hybridList("", rc.smoke) {
		if !rc.smoke {
			spec.WindowOverride /= 4
		}
		hy, dh, err := timePoint(spec)
		if err != nil {
			return fmt.Errorf("bench: fidelity pair: %w", err)
		}
		spec.Fidelity = exp.FidelityPacket
		pk, dp, err := timePoint(spec)
		if err != nil {
			return fmt.Errorf("bench: fidelity pair: %w", err)
		}
		hybridWall += dh
		packetWall += dp
		for _, pair := range [][2]float64{{hy.RDMAp99(), pk.RDMAp99()}, {hy.TCPp99(), pk.TCPp99()}} {
			if pair[1] > 0 && !math.IsNaN(pair[0]) {
				relErr += math.Abs(pair[0]-pair[1]) / pair[1]
				terms++
			}
		}
	}
	sp.end()
	l.out["fluid.speedup_x"] = ratio(packetWall, hybridWall)
	l.out["fluid.fidelity_p99_rel_err"] = ratio(relErr, float64(terms))
	return nil
}

// shares splits the traced sweep's wall time over the layers of the packet
// path: each layer's count × its self unit cost, over the sweep's wall time.
// A self cost is a driver's gross cost minus the separately measured costs
// of the layers it calls. Events are priced at sim.event_ns.pending64 — a
// few dozen pending, all due within two microseconds — which is what a
// port's events look like both in the drivers and in a ScaleSmall run.
// What the model does not explain is share.unattributed — printed, never
// hidden, and negative when the drivers overprice a run; the six sum to 1.
// Daemon workloads simulate in another process and report zeros.
func shares(p passResult, unit map[string]float64) map[string]float64 {
	out := map[string]float64{"share.sim": 0, "share.netdev": 0, "share.switchsim": 0,
		"share.core": 0, "share.transport": 0, "share.unattributed": 0}
	hops := float64(p.counts["netdev.tx_packets"])
	if hops == 0 || len(p.sweepMS) == 0 {
		return out
	}
	wallNS := summarize(p.sweepMS).Q1 * 1e6
	pos := func(v float64) float64 { return math.Max(v, 0) }
	smallEvent := unit["sim.event_ns.pending64"]
	getput := unit["pkt.getput_ns"]
	hop := unit["netdev.hop_ns"]
	// One hop is two events (serialization done, arrival), one packet from
	// the pool, and the port's own queueing work.
	hopSelf := pos(hop - 2*smallEvent - getput)
	// The admit driver's packet crosses two links around the switch. Under
	// DT the policy is a few arithmetic operations, so DT's run isolates the
	// MMU; what another policy's run costs beyond DT's is that policy.
	thrDT := unit["core.threshold_ns.DT"]
	mmuSelf := pos(unit["switchsim.admit_ns.DT"] - 2*hop - thrDT)
	var rxAll, policy float64
	for pol, rx := range p.rxByPolicy {
		rxAll += float64(rx)
		policy += float64(rx) * (thrDT + pos(unit["switchsim.admit_ns."+pol]-unit["switchsim.admit_ns.DT"]))
	}
	// Endpoints: every packet a host NIC sent cost a sender step, every one
	// it received a delivery. A sender step is priced as the mean of the two
	// transports' (their packet mix is not a counter anyone exports); half
	// of the delivery driver's packets send an ACK across a link.
	hostTx, hostRx := float64(p.counts["host.tx_packets"]), float64(p.counts["host.rx_packets"])
	sender := (pos(unit["dctcp.ack_ns"]-getput-unit["sim.cancel_ns"]) + pos(unit["dcqcn.pkt_ns"]-smallEvent-getput)) / 2
	deliver := pos(unit["host.deliver_ns"] - hop/2 - getput)

	out["share.sim"] = float64(p.counts["sim.events"]) * smallEvent / wallNS
	out["share.netdev"] = hops * hopSelf / wallNS
	out["share.switchsim"] = rxAll * mmuSelf / wallNS
	out["share.core"] = policy / wallNS
	out["share.transport"] = (hostTx*sender + hostRx*deliver) / wallNS
	sum := 0.0
	for _, v := range out {
		sum += v
	}
	out["share.unattributed"] = 1 - sum
	return out
}
