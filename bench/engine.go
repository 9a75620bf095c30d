package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"l2bm/internal/exp"
	"l2bm/internal/sim"
	"l2bm/internal/topo"
)

// engineWorkload runs a spec list in process through exp.RunHybridCtx, one
// caller, sequentially (the classic engine is single-threaded). A sweep is
// one pass over the list.
//
// The timed sweeps always run the fixed list (SeedSalt "" is what the CLI's
// figure runners use): a traffic simulator's host cost per point is heavy
// tailed in its random draws (a single seed change moves one point's wall
// time by ±40 %, see README "Why the timed list is fixed"), so no ten-second
// run can average a seed-salted list down to a useful bound. The seed
// instead salts the held-out sweep that follows: the same specs with
// SeedSalt = seed, run once, under the same correctness gate, its cost
// reported against the fixed list's as exp.seeded_over_fixed.
type engineWorkload struct {
	name string
	// list builds the sweep's specs for one salt at full or smoke size.
	list func(salt string, smoke bool) []exp.HybridSpec
	// sweepsPer10s sizes the timed phase: fixed sweeps per ten --seconds.
	sweepsPer10s float64
	// observed puts the exports on the clock after every point
	// (Result.WriteCol into a counting writer, then json.Marshal).
	observed bool

	fixed, held []exp.HybridSpec
}

func (w *engineWorkload) Name() string { return w.name }

// setup generates both spec lists and runs one warm-up point, so the timed
// phase does not pay first-use costs (page faults on a fresh heap, lazy
// tables in the policy registry and the CDFs). The warm-up is the same for
// every engine workload: the headline point at ScaleTiny, every layer of the
// packet path touched once.
func (w *engineWorkload) setup(rc *runCtx) error {
	w.fixed = w.list("", rc.smoke)
	w.held = w.list(fmt.Sprintf("seed%d", rc.seed), rc.smoke)
	warm := exp.HybridSpec{Name: "warm", Policy: "L2BM", Scale: exp.ScaleTiny, RDMALoad: 0.4, TCPLoad: 0.8}
	if _, err := exp.RunHybridCtx(context.Background(), warm); err != nil {
		return fmt.Errorf("bench: warm-up point: %w", err)
	}
	return nil
}

func (w *engineWorkload) teardown() { w.fixed, w.held = nil, nil }

func (w *engineWorkload) fixedSweeps(rc *runCtx) int {
	return rc.scaled(w.sweepsPer10s)
}

// peakRSSKB is the bench process's own high-water mark: the simulator runs
// in process.
func (w *engineWorkload) peakRSSKB() (int64, error) { return procStatusKB(0, "VmHWM") }

// counts are exact simulated statistics. They repeat bit for bit for equal
// specs, so a difference between two commits is a change in what was
// simulated, never noise.
type counts map[string]uint64

func (c counts) addResult(r *exp.Result) {
	c["sim.events"] += r.Events
	c["pkt.pool_gets"] += r.PoolGets
	c["switchsim.pause_frames"] += r.PauseFrames
	c["switchsim.lossy_drops"] += r.LossyDrops
	c["switchsim.ecn_marked"] += r.ECNMarked
	c["switchsim.evictions"] += r.LossyEvictions
	c["host.flows_completed"] += uint64(r.FlowsCompleted)
	c["audit.checks"] += r.AuditChecks
	c["fluid.flows"] += uint64(r.FluidFlows)
	c["fluid.steps"] += r.FluidSteps
	c["fluid.packet_segments"] += uint64(r.PacketSegments)
	st := r.Trace.Stats()
	c["trace.events_recorded"] += st.OccSamples + st.OccEvicted + st.PFCEvents + st.PFCEvicted +
		st.WeightSamples + st.WeightEvicted + st.PacketEvents + st.PacketEvicted
}

// addCluster reads the counters no Result carries off a cluster captured
// through RunHooks.PostBuild, after its run has finished.
func (c counts) addCluster(cl *topo.Cluster) {
	for _, sw := range cl.AllSwitches() {
		c["switchsim.rx_packets"] += sw.Stats().RxPackets
		for i := 0; i < sw.NumPorts(); i++ {
			ps := sw.Port(i).Stats()
			c["netdev.tx_packets"] += ps.TxPackets
			c["netdev.pfc_frames"] += ps.PFCSent + ps.PFCResumes
		}
	}
	for _, h := range cl.Hosts {
		ps := h.NIC().Stats()
		c["netdev.tx_packets"] += ps.TxPackets
		c["netdev.pfc_frames"] += ps.PFCSent + ps.PFCResumes
		c["host.tx_packets"] += ps.TxPackets
		c["host.rx_packets"] += ps.RxPackets
	}
}

// checkResult applies the failure predicates every simulated point must
// pass, whatever produced it.
func checkResult(r *exp.Result) error {
	switch {
	case len(r.AuditErrors) > 0:
		return fmt.Errorf("%d audit error(s), first: %s", len(r.AuditErrors), r.AuditErrors[0])
	case r.LosslessViolations > 0:
		return fmt.Errorf("%d lossless violation(s)", r.LosslessViolations)
	case r.FlowsStarted != r.FlowsCompleted+r.TruncatedFlows:
		return fmt.Errorf("flow ledger: started %d != completed %d + truncated %d",
			r.FlowsStarted, r.FlowsCompleted, r.TruncatedFlows)
	}
	return nil
}

func fnv64(data []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(data)
	return h.Sum64()
}

// countingWriter is the sink the observed workload exports into.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// passResult is what one phase (the fixed sweeps, or the held-out sweep)
// produced.
type passResult struct {
	sweepMS   []float64     // one latency per sweep
	wall      time.Duration // the whole phase
	attempted int
	failed    int
	failures  []string
	counts    counts  // of the first sweep
	digest    uint64  // FNV of the first sweep's canonical result JSON
	units     float64 // simulated packets of the first sweep (cost normaliser)
	points    int     // points in the first sweep
	// rxByPolicy splits the first sweep's switchsim.rx_packets by the
	// policy of the point that produced them (traced pass only).
	rxByPolicy map[string]uint64
	extra      map[string]float64
}

func (p *passResult) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 8 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// sweeps runs n passes over specs. Sweep 0 fixes the canonical result bytes;
// every later sweep must reproduce them exactly. tr == nil is the measured
// pass; with a tracer each point also captures its clusters for the counter
// harvest.
func (w *engineWorkload) sweeps(specs []exp.HybridSpec, n int, tr *tracer) passResult {
	out := passResult{counts: counts{}, rxByPolicy: map[string]uint64{}, extra: map[string]float64{}}
	canon := make([]uint64, len(specs))
	digest := fnv.New64a()
	root := tr.start(span{}, "workload", 0)
	phaseStart := time.Now()
	for sweep := 0; sweep < n; sweep++ {
		// Every sweep starts from a collected heap, as a fresh l2bmexp
		// process would: without this the peak RSS depends on whether the
		// previous sweep's garbage happened to be collected yet.
		runtime.GC()
		sweepSpan := tr.start(root, "rep", int64(sweep))
		failedBefore := out.failed
		var onClock time.Duration
		for i, spec := range specs {
			out.attempted++
			var clusters []*topo.Cluster
			if tr != nil && sweep == 0 {
				spec.Hooks = &exp.RunHooks{PostBuild: func(cl *topo.Cluster) { clusters = append(clusters, cl) }}
			}
			pointSpan := tr.start(sweepSpan, "point", int64(sweep))
			t0 := time.Now()
			res, err := exp.RunHybridCtx(context.Background(), spec)
			var colBytes int64
			var raw []byte
			if err == nil && w.observed {
				cw := &countingWriter{}
				colSpan := tr.start(pointSpan, "export.col", int64(sweep))
				err = res.WriteCol(cw)
				colSpan.end()
				colBytes = cw.n
				if err == nil {
					jsonSpan := tr.start(pointSpan, "export.json", int64(sweep))
					raw, err = json.Marshal(res)
					jsonSpan.end()
				}
			}
			onClock += time.Since(t0)
			pointSpan.end()
			if err != nil {
				out.fail("%s sweep %d point %d (%s): %v", w.name, sweep, i, spec.Policy, err)
				continue
			}
			if err := checkResult(res); err != nil {
				out.fail("%s sweep %d point %d (%s): %v", w.name, sweep, i, spec.Policy, err)
				continue
			}
			if raw == nil {
				// The packet workloads keep marshaling off the clock: it
				// exists here only to prove the sweeps identical.
				if raw, err = json.Marshal(res); err != nil {
					out.fail("%s sweep %d point %d: marshal: %v", w.name, sweep, i, err)
					continue
				}
			}
			sum := fnv64(raw)
			if sweep == 0 {
				canon[i] = sum
				_, _ = digest.Write(raw)
				out.counts.addResult(res)
				rxBefore := out.counts["switchsim.rx_packets"]
				for _, cl := range clusters {
					out.counts.addCluster(cl)
				}
				out.rxByPolicy[spec.Policy] += out.counts["switchsim.rx_packets"] - rxBefore
				out.points++
				out.units += float64(res.PoolGets)
				out.extra["colfmt.bytes"] += float64(colBytes)
				out.extra["fluid.time_ps"] += float64(res.FluidTime)
				out.extra["sim.end_ps"] += float64(res.EndTime)
			} else if sum != canon[i] {
				out.fail("%s sweep %d point %d (%s): result differs from sweep 0 of the same spec", w.name, sweep, i, spec.Policy)
			}
		}
		sweepSpan.end()
		if out.failed == failedBefore {
			// A sweep with a failed point took some other amount of work:
			// it is counted as failed, not timed.
			out.sweepMS = append(out.sweepMS, float64(onClock)/1e6)
		}
	}
	out.wall = time.Since(phaseStart)
	root.end()
	out.digest = digest.Sum64()
	return out
}

func (w *engineWorkload) runFixed(n int, tr *tracer) passResult { return w.sweeps(w.fixed, n, tr) }

func (w *engineWorkload) runHeld(tr *tracer) passResult { return w.sweeps(w.held, 1, tr) }

func (w *engineWorkload) firstSpec() exp.HybridSpec { return w.fixed[0] }

// memDelta reports heap allocation across fn: megabytes and objects.
func memDelta(fn func()) (mb float64, objects uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / 1e6, b.Mallocs - a.Mallocs
}

// The spec lists. Sizes are the issue's, cut where the driver's time cap
// (six workloads × 22 runs in under an hour) forced it: windows shrink, the
// workloads stay.

// fig7List is the paper's headline point (Fig. 7: RDMA 0.4 + TCP 0.8) on
// the clean per-packet fast path, L2BM paired with DT on the same offered
// traffic so the difference between the two is core's policy cost. The
// window is 2 ms, not the scale's 10 ms: a 0.7 s sweep fits a dozen
// repetitions into a run, and the median of a dozen is what holds against
// a shared box's noise.
func fig7List(salt string, smoke bool) []exp.HybridSpec {
	scale, window := exp.ScaleSmall, 2*sim.Millisecond
	if smoke {
		scale, window = exp.ScaleTiny, 500*sim.Microsecond
	}
	var specs []exp.HybridSpec
	for _, pol := range []string{"L2BM", "DT"} {
		specs = append(specs, exp.HybridSpec{
			Name: "fig7", Policy: pol, Scale: scale,
			RDMALoad: 0.4, TCPLoad: 0.8,
			WindowOverride: window, SeedSalt: salt,
		})
	}
	return specs
}

// burstList is the same point with an incast stream on top and every
// observer armed: MMU drop/PFC/headroom paths, transports in loss recovery,
// trace probes, auditor sweeps, and the exports on the clock.
func burstList(salt string, smoke bool) []exp.HybridSpec {
	specs := fig7List(salt, smoke)
	for i := range specs {
		specs[i].Name = "burst"
		specs[i].Incast = &exp.IncastSpec{Fanout: 16, RequestBytes: 1 << 20, QueryRate: 3000}
		specs[i].Audit = &exp.AuditSpec{}
		specs[i].Trace = &exp.TraceSpec{}
	}
	return specs
}

// hybridList is light inter-rack traffic over long windows under hybrid
// fidelity: the fluid solver and the fidelity controller decide, the packet
// engine only runs a few dozen short segments.
func hybridList(salt string, smoke bool) []exp.HybridSpec {
	mk := func(scale exp.Scale, load float64, window sim.Duration) exp.HybridSpec {
		return exp.HybridSpec{
			Name: "steady", Policy: "L2BM", Scale: scale,
			RDMALoad: load, TCPLoad: load, InterRackOnly: true,
			WindowOverride: window, Fidelity: exp.FidelityHybrid, SeedSalt: salt,
		}
	}
	if smoke {
		return []exp.HybridSpec{mk(exp.ScaleTiny, 0.02, 40*sim.Millisecond)}
	}
	return []exp.HybridSpec{
		mk(exp.ScaleSmall, 0.01, sim.Second),
		mk(exp.ScaleTiny, 0.02, 2*sim.Second),
	}
}

// scaleSpec mirrors the one spec Harness.RunScale builds (-exp scale), so
// that the held-out sweep can salt it: RunScale itself takes no salt. With
// salt "" the two produce the same result, which TestScaleSpecMirrorsRunScale
// holds it to.
func scaleSpec(scale exp.Scale, salt string) (exp.HybridSpec, error) {
	cfg, err := exp.HyperscaleFor(scale).Config()
	if err != nil {
		return exp.HybridSpec{}, err
	}
	load, window := 0.05, 200*sim.Microsecond // RunScale's ScaleSmall row
	if scale == exp.ScaleTiny {
		load, window = 0.10, 500*sim.Microsecond
	}
	return exp.HybridSpec{
		Name: fmt.Sprintf("scale-%s", scale), Policy: "L2BM", Scale: scale,
		TCPLoad: load, RDMALoad: load, InterRackOnly: true,
		WindowOverride: window,
		TopoOverride:   func(c *topo.Config) { *c = cfg },
		Audit:          &exp.AuditSpec{},
		SeedSalt:       salt,
	}, nil
}

// scaleList is the 10,240-host pod Clos smoke (-exp scale): a quarter of its
// time is L2BM's per-admission scan over the queues of 34-port rack switches,
// a fifth is seeding 60k random streams at install, and the fabric's
// flyweight state makes it the one workload where memory is the headline.
func scaleList(salt string, smoke bool) []exp.HybridSpec {
	scale := exp.ScaleSmall
	if smoke {
		scale = exp.ScaleTiny
	}
	spec, err := scaleSpec(scale, salt)
	if err != nil {
		panic(err) // the presets are constants; only a bug makes them invalid
	}
	if smoke {
		spec.WindowOverride = 100 * sim.Microsecond
	}
	return []exp.HybridSpec{spec}
}
