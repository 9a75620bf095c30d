package exp

import (
	"context"
	"fmt"
	"sort"

	"l2bm/internal/fluid"
	"l2bm/internal/metrics"
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/topo"
	"l2bm/internal/trace"
	"l2bm/internal/transport"
)

// This file is the hybrid-fidelity driver (HybridSpec.Fidelity ==
// FidelityHybrid): the run alternates between the fluid fast-forward layer
// (internal/fluid) and full packet segments, stitched so that WHAT is
// offered never changes — only how each interval's progress is computed.
//
//   - The complete flow launch schedule is extracted up front from the
//     run's real workload generators under the run's real seed
//     (fluid.Extract), so both engines see byte-identical arrivals and the
//     FCT recorder observes exactly the flows a pure packet run would.
//   - Fluid segments advance flows analytically until a fidelity trigger
//     (incast burst within PreMargin, fan-in degree, occupancy guard band)
//     fires; the triggering arrival is left for the packet segment.
//   - Packet segments run a freshly built fabric (plan.build, the same
//     assembler, sizing and shard logs as a packet run), injecting residual
//     flows at their remaining sizes and scheduling the not-yet-consumed
//     arrivals as they come due, until the quiescence predicate holds (no
//     new pause frames, low resident bytes, no standing trigger, no imminent
//     burst) for quiesceDwell consecutive checks.
//   - Hand-backs are residual-byte exact on the receive side: a flow leaves
//     a packet segment with its receiver's contiguous delivered count
//     (host.FlowProgress); frames still in flight at the cut (bounded by
//     quiesceResident) are re-served by the fluid layer, a deliberate
//     epsilon-budgeted approximation.
//
// Accounting: switch/pause/drop statistics accumulate across packet
// segments; fluid segments contribute no switch events by construction.
// Occupancy sampling stays on the global k·occupancyEvery grid across
// segment boundaries — packet segments read real resident bytes, fluid
// segments synthesize an estimate — so Result.TorOccupancy remains
// plottable. The invariant auditor runs per packet segment (as conductor
// barrier tasks); its exact drain-time checks run only when the run ends
// inside a packet segment, since a quiescence cut legitimately leaves
// frames in flight.

// The packet → fluid direction of the fidelity controller.
const (
	// quiesceStep is how often a running packet segment re-evaluates the
	// quiescence predicate.
	quiesceStep = 100 * sim.Microsecond
	// quiesceDwell is how many consecutive quiet checks end a segment.
	quiesceDwell = 2
	// quiesceResident is the resident-byte bound under which the fabric
	// counts as quiet.
	quiesceResident = 64 * pkt.MTUBytes
	// recoveredFrac gates quiescence on rate recovery: the fabric is not
	// quiet while any in-progress lossless sender's current rate sits below
	// this fraction of line rate (or a lossy sender's window below it of the
	// ECN threshold). The fluid solver serves every flow at its
	// instantaneous max-min share; handing it a sender that is still paying
	// off a congestion cut forgets ~milliseconds of throttling.
	recoveredFrac = 0.9
	// minSegment is the minimum packet-segment length.
	minSegment = 200 * sim.Microsecond
)

// hybridResidual is one mid-transfer flow handed from a packet segment back
// to the fluid layer.
type hybridResidual struct {
	flow      transport.Flow // pristine descriptor: full Size, true Start
	remaining int64          // payload bytes still to deliver
	incast    bool
}

// hybridRun carries the fidelity controller's cross-segment state.
type hybridRun struct {
	ctx    context.Context
	p      *plan
	params fluid.Params

	model *fluid.Model
	sched *fluid.Schedule
	rec   *metrics.FCTRecorder

	cursor     int              // next unconsumed schedule index
	residual   []hybridResidual // flows mid-transfer at the last cut
	nextSample sim.Time         // next global occupancy-sample instant
	torOcc     [][]metrics.Reading
	occBuf     []int64

	tracer   *trace.Recorder // global, re-based; nil when tracing is off
	torNames []string        // the ToRs' switch names, set with tracer
	res      *Result
	segIdx   int
}

// runHybridFluid executes one data point under the hybrid-fidelity
// controller. Validate refuses a fault plan at this fidelity, so a faulted
// point never gets here: it runs at packet fidelity. The plan's seed is the
// packet run's (common random numbers across policies AND across
// fidelities: the offered workload is identical).
func runHybridFluid(ctx context.Context, p *plan) (*Result, error) {
	sched, err := fluid.Extract(p.seed, p.workload())
	if err != nil {
		return nil, err
	}

	// Every scheduled flow is "started" from the recorder's point of view,
	// exactly as a packet run's launch observers would report.
	rec := metrics.NewFCTRecorder()
	for i := range sched.Flows {
		fl := &sched.Flows[i].Flow
		rec.Started(fl, p.topo.IdealFCT(fl.Src, fl.Dst, fl.Size))
	}

	res := &Result{Policy: p.policy}
	h := &hybridRun{
		ctx:        ctx,
		p:          p,
		params:     fluid.DefaultParams(),
		model:      fluid.NewModel(p.topo),
		sched:      sched,
		rec:        rec,
		nextSample: occupancyEvery,
		torOcc:     make([][]metrics.Reading, p.topo.ToRCount),
		res:        res,
	}
	if p.spec.Trace != nil {
		h.tracer = trace.NewRecorder(p.spec.Trace.Capacity)
		h.torNames = p.topo.SwitchNames()[:p.topo.ToRCount]
	}

	onFluid := func(c fluid.Completion) {
		res.FluidFlows++
		rec.Completed(c.ID, c.At)
		if sched.Incast != nil {
			sched.Incast.OnFlowComplete(c.ID, c.At)
		}
	}

	t := sim.Time(0)
	for t < p.horizon {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// --- fluid segment ---
		fs := fluid.NewSim(h.model, h.params, sched.Flows[h.cursor:], t)
		fs.OnComplete = onFluid
		for _, r := range h.residual {
			fs.Inject(r.flow, r.remaining, r.incast)
		}
		h.residual = h.residual[:0]
		segStart := t
		var reason fluid.CutReason
		for {
			target := p.horizon
			if h.nextSample <= p.window && h.nextSample < target {
				target = h.nextSample
			}
			t, reason = fs.Advance(target)
			if reason != fluid.CutNone || t >= p.horizon {
				break
			}
			if t == h.nextSample {
				h.sampleFluid(fs)
			}
		}
		h.cursor += fs.Consumed()
		res.FluidSteps += fs.Steps
		res.FluidTime += t - segStart
		if reason == fluid.CutNone {
			break // horizon reached analytically; leftover actives are truncated
		}
		// --- packet segment ---
		t, err = h.packetSegment(t, fs.Active())
		if err != nil {
			return nil, err
		}
	}

	res.EndTime = p.horizon
	summarizeFlows(res, rec)
	if sched.Incast != nil {
		res.QueryDelays = sched.Incast.CompletedResponseTimes()
	}
	res.TorOccupancy = h.torOcc
	if h.tracer != nil {
		res.Trace = trace.Merge(h.tracer)
	}
	return res, nil
}

// sampleFluid records one global occupancy sample tick from the fluid
// layer's synthesized per-ToR estimates, then advances the sample cursor.
func (h *hybridRun) sampleFluid(fs *fluid.Sim) {
	h.occBuf = fs.TorOccupancies(h.occBuf)
	for i, occ := range h.occBuf {
		h.torOcc[i] = append(h.torOcc[i], metrics.Reading{At: h.nextSample, Value: occ})
		if h.tracer != nil {
			// Fluid has no reserved/shared split; publish the estimate as
			// both readings so traced figures stay continuous.
			h.tracer.RecordOcc(trace.OccSample{
				At: h.nextSample, Switch: h.torNames[i],
				Resident: occ, SharedUsed: occ,
			})
		}
	}
	h.nextSample += occupancyEvery
}

// burstImminent reports whether the next scheduled incast burst is too
// close to hand control back to the fluid layer.
func (h *hybridRun) burstImminent(now sim.Time) bool {
	at, ok := h.sched.NextIncastAt(h.cursor)
	if !ok {
		return false
	}
	return at-now <= sim.Time(h.params.PreMargin+quiesceStep)
}

// packetSegment runs full packet simulation from segStart until the
// quiescence predicate holds (or the horizon), and returns the global end
// instant. carried is the fluid layer's residual state; the segment starts
// those flows at their remaining sizes at local time zero.
func (h *hybridRun) packetSegment(segStart sim.Time, carried []*fluid.FlowState) (sim.Time, error) {
	p := h.p
	h.segIdx++
	h.res.PacketSegments++

	// live holds the flows this segment launched and has not seen complete.
	// Only the conductor's goroutine touches it: start runs between slices,
	// and completions reach it through the shard logs, drained after each.
	type liveFlow struct {
		flow     transport.Flow // pristine descriptor
		injected int64          // payload bytes this segment carries
		incast   bool
	}
	live := make(map[pkt.FlowID]*liveFlow)

	// A segment is built, sized and observed like a packet run; its global
	// observers fire at the slice loop's barriers. Per-segment seed:
	// packet-level tie-breaks inside a burst need their own stream,
	// decorrelated from the extraction seed.
	f, err := p.build(h.ctx, seedFor(p.spec.Name, p.spec.SeedSalt, fmt.Sprintf("hybrid-seg/%d", h.segIdx)))
	if err != nil {
		return 0, err
	}
	defer f.cond.Close()
	cl := f.cl

	// start launches one flow at segment-local time at on its source host's
	// shard, carrying injected payload bytes. The descriptor keeps its
	// original ID (ECMP affinity) and class; the host re-stamps Start on
	// launch. A positive warmCwnd hands lossy senders an established window
	// (fluid residuals were mid-transfer: restarting them in slow start would
	// understate the queue pressure they exert).
	start := func(fl transport.Flow, injected int64, incast bool, at sim.Time, warmCwnd float64) {
		live[fl.ID] = &liveFlow{flow: fl, injected: injected, incast: incast}
		inj := fl
		inj.Size = injected
		f.engines[f.part.Host[fl.Src]].ScheduleAt(at, func() { cl.Hosts[inj.Src].StartFlowWarm(&inj, warmCwnd) })
	}
	for _, fs := range carried {
		// Warm window for a mid-transfer lossy residual: its DCTCP
		// steady-state window is rate × (RTT + the standing-queue delay the
		// ECN threshold sustains at the access link). Omitting the queue
		// term restarts the flow with an empty switch the real run never
		// had — downstream flows then see none of the queueing delay the
		// packet engine would have charged them. A residual cut early in
		// its life has not built that queue yet (it is still in slow
		// start, window ≈ initial window + bytes acked), so cap by served
		// bytes.
		rtt := 2 * p.topo.BasePathDelay(fs.Flow.Src, fs.Flow.Dst)
		queueDelay := float64(p.topo.Switch.ECNLossyThreshold) * 8 / float64(p.topo.ServerRate)
		warm := fs.Rate() * (rtt.Seconds() + queueDelay) / 8
		if ss := float64(10*pkt.MTUPayload) + float64(fs.Flow.Size-fs.RemainingPayload()); ss < warm {
			warm = ss
		}
		start(fs.Flow, fs.RemainingPayload(), fs.Incast, 0, warm)
	}

	// Occupancy sampling continues on the global grid: one self-rescheduling
	// chain per shard reads the real resident bytes of the ToRs that shard
	// owns. Every chain ticks at the same instants; ticks beyond the cut die
	// with the engines, and h.nextSample advances by the ticks that ran, so
	// the fluid side resumes exactly where packet sampling stopped.
	if h.nextSample <= p.window {
		f.occTicks = make([]uint64, len(f.engines))
		for s, eng := range f.engines {
			next := h.nextSample
			var tick func()
			tick = func() {
				f.occTicks[s]++
				for i, tor := range cl.ToRs {
					if f.part.ToR[i] == s {
						h.torOcc[i] = append(h.torOcc[i], metrics.Reading{At: next, Value: tor.Occupancy()})
					}
				}
				next += occupancyEvery
				if next <= p.window {
					eng.Schedule(occupancyEvery, tick)
				}
			}
			eng.ScheduleAt(next-segStart, tick)
		}
	}

	// Flight recorder: per-shard recorders armed exactly like a packet
	// run's, sampling what is left of the window, merged and re-based into
	// the global recorder at the cut.
	f.armTrace(p.window - segStart)

	maxLiveDegree := func() int {
		up := make(map[int]int)
		down := make(map[int]int)
		d := 0
		for _, lf := range live {
			up[lf.flow.Src]++
			down[lf.flow.Dst]++
			if up[lf.flow.Src] > d {
				d = up[lf.flow.Src]
			}
			if down[lf.flow.Dst] > d {
				d = down[lf.flow.Dst]
			}
		}
		return d
	}

	localHorizon := p.horizon - segStart
	var prevPause, prevECN, prevDrops uint64
	quiet := 0
	localNow := sim.Time(0)
	for localNow < localHorizon {
		next := localNow + quiesceStep
		if next > localHorizon {
			next = localHorizon
		}
		// Schedule every arrival due in this slice; the cursor only moves
		// for arrivals the slice will actually execute.
		for h.cursor < len(h.sched.Flows) {
			fa := &h.sched.Flows[h.cursor]
			local := fa.Flow.Start - segStart
			if local > next {
				break
			}
			start(fa.Flow, fa.Flow.Size, fa.Incast, local, 0)
			h.cursor++
		}
		f.cond.Run(next)
		localNow = next
		if err := h.ctx.Err(); err != nil {
			return 0, err
		}
		// The slice's completions, in shard order: Completed is first-wins
		// and a query's response time a max, so the order is immaterial.
		f.drain(func(id pkt.FlowID, at sim.Time) {
			if _, ok := live[id]; !ok {
				return
			}
			delete(live, id)
			h.rec.Completed(id, segStart+at)
			if h.sched.Incast != nil {
				h.sched.Incast.OnFlowComplete(id, segStart+at)
			}
		})
		// Quiescence: no pause frames, no ECN marks, no drops this slice
		// (congestion feedback means rates are NOT fluid-like yet), bounded
		// resident bytes, no standing fan-in, no imminent burst.
		stats := topo.SwitchStats(cl.AllSwitches())
		drops := stats.LossyDropsIngress + stats.LossyDropsEgress
		throttled := 0
		minCwnd := recoveredFrac * float64(p.topo.Switch.ECNLossyThreshold)
		for _, hs := range cl.Hosts {
			throttled += hs.ThrottledRDMASenders(recoveredFrac)
			throttled += hs.ThrottledTCPSenders(minCwnd)
		}
		calm := stats.PauseFramesSent == prevPause &&
			stats.ECNMarked == prevECN &&
			drops == prevDrops &&
			cl.ResidentBytes() <= quiesceResident &&
			maxLiveDegree() < h.params.DegreeTrigger &&
			throttled == 0 &&
			!h.burstImminent(segStart+localNow)
		prevPause, prevECN, prevDrops = stats.PauseFramesSent, stats.ECNMarked, drops
		if calm {
			quiet++
		} else {
			quiet = 0
		}
		if localNow >= minSegment && quiet >= quiesceDwell && localNow < localHorizon {
			break
		}
	}
	segEnd := segStart + localNow
	if f.occTicks != nil {
		h.nextSample += sim.Time(f.occTicks[0]) * occupancyEvery
	}

	// Harvest residuals: receiver-side contiguous progress bounds what the
	// fluid layer still owes. Sorted by ID so fluid re-injection order (and
	// with it the whole run) is deterministic despite map iteration.
	for id, lf := range live {
		remaining := lf.injected
		if delivered, ok := cl.Hosts[lf.flow.Dst].FlowProgress(id); ok {
			remaining = lf.injected - delivered
		}
		if remaining < 1 {
			remaining = 1
		}
		h.residual = append(h.residual, hybridResidual{
			flow: lf.flow, remaining: remaining, incast: lf.incast,
		})
	}
	sort.Slice(h.residual, func(i, j int) bool {
		return h.residual[i].flow.ID < h.residual[j].flow.ID
	})

	// Switch/pause/drop statistics accumulate across packet segments; only
	// the segment the run ends in is final.
	f.harvest(h.res, segEnd >= p.horizon)

	if f.tracers != nil {
		h.tracer.Absorb(trace.Merge(f.tracers...), segStart)
	}
	return segEnd, nil
}
