// Package fluid is the rate-based flow-progress layer of the
// hybrid-fidelity engine: between "interesting" events it advances flows
// analytically — per-flow max-min fair rates over the exact ECMP paths the
// packet engine would route (topo.Config.PathOf), served as wire bytes —
// instead of forwarding MTUs one event at a time.
//
// The package has three parts:
//
//   - Extract (schedule.go) replays the run's real workload generators on a
//     throwaway engine to obtain the exact flow launch schedule the packet
//     engine would see: same seeds, same named RNG streams, same structured
//     flow IDs, same arrival instants. Fast-forwarding never changes WHAT
//     is offered, only how its progress is computed.
//   - Model (model.go) is the capacity graph: host access links plus every
//     individual ToR–agg and agg–core link, so per-flow ECMP hash
//     collisions — the load imbalance that actually congests a Clos —
//     survive the abstraction. Solve computes max-min rates by progressive
//     filling (the switches schedule priorities round-robin, so lossless
//     and lossy share links fairly and a single-class fill is the right
//     model).
//   - Sim (sim.go) is the fluid stepper: an event loop over arrivals and
//     completions that also evaluates the fidelity triggers. It never
//     crosses a trigger: it stops AT the trigger instant and hands control
//     back to the driver, which runs a full packet segment
//     (internal/exp.runHybridFluid) and returns with residual flow state.
//
// Fidelity triggers (fluid → packet): a scheduled incast burst within
// PreMargin; an arrival pushing an access link's sharing degree to
// DegreeTrigger (fan-in convergence is where PFC and drops are born); the
// synthesized occupancy estimate crossing GuardFrac of the shared buffer.
// Fault injection disables fluid mode entirely — the whole run is a packet
// segment. PFC pause transitions can only exist inside packet segments
// (fluid rates are feasible by construction), so the packet→fluid direction
// is guarded instead by the driver's quiescence dwell (exp/hybrid.go): no new
// pause frames, low resident bytes, and no trigger predicate holding for a
// few consecutive checks.
//
// Accuracy model. A flow served alone completes in exactly its ideal FCT
// (slowdown 1.0) by construction: service time is TxTime(wireBytes,
// bottleneck) and the recorded completion adds the same base-path-latency
// tail the ideal-FCT formula uses. DCTCP's slow-start ramp — the one
// first-order effect a rate abstraction misses at low load — is charged as
// an analytic additive delay (SlowStartExtra). Everything second-order
// (ECN marking dynamics, pacer quantization, PFC micro-pauses) is what the
// divergence-bound invariance test budgets its epsilon for.
package fluid

import "l2bm/internal/sim"

// Params are the fidelity-controller triggers (fluid → packet). Start from
// DefaultParams, whose values were calibrated against the pure packet engine
// on the Fig. 3/7/8 scenarios (see TestHybridDivergence); every field must be
// set.
type Params struct {
	// DegreeTrigger cuts to packet fidelity when an arrival would bring the
	// number of active flows sharing one access link (source uplink or
	// destination downlink) to this count or more. The default of 2 means
	// ANY access-link sharing is simulated at packet fidelity — the fluid
	// layer then only fast-forwards non-contending spans, where it is exact
	// by construction (solo slowdown 1.0). Raise it to trade accuracy for
	// speed on coarse sweeps.
	DegreeTrigger int
	// PreMargin cuts to packet fidelity this long before a scheduled
	// incast burst, so the fan-in hits a warmed-up packet engine.
	PreMargin sim.Duration
	// GuardFrac cuts to packet fidelity when any switch's synthesized
	// occupancy estimate exceeds this fraction of its shared buffer.
	GuardFrac float64
}

// DefaultParams returns the calibrated controller settings.
func DefaultParams() Params {
	return Params{
		DegreeTrigger: 2,
		PreMargin:     50 * sim.Microsecond,
		GuardFrac:     0.5,
	}
}
