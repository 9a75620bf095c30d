package exp

import (
	"math"
	"testing"

	"l2bm/internal/sim"
)

// Divergence budget for hybrid fidelity against the pure packet engine on
// the same spec (common random numbers: identical offered workload). These
// are the "stated epsilon" of the acceptance bar, sized from calibration on
// the Fig. 3/7/8 tiny-scale scenarios and documented in DESIGN.md §14:
//
//   - Tail FCT slowdowns (p99) within 50% relative error. The hybrid
//     engine reproduces first-order contention (it runs the bursty spans
//     at packet fidelity) but not second-order history: L2BM's adaptive
//     sojourn thresholds and DCTCP's alpha restart fresh each packet
//     segment, which shifts tails without moving medians.
//   - Lossy drop counts within max(10, 15% of packet). Drops happen inside
//     packet segments, so counts track closely; the allowance covers
//     boundary flows whose windows were warm-started analytically.
//   - Flow accounting exact: both fidelities must see byte-identical
//     arrival schedules (fluid.Extract replays the real generators), so
//     FlowsStarted may not differ at all.
const (
	hybridP99Eps     = 0.5
	hybridDropFrac   = 0.15
	hybridDropFloor  = 10
	hybridTruncSlack = 2 // horizon-straddling flows may land on either side of the cut
)

// hybridDivergenceSpecs are the paper-figure scenarios the divergence bound
// is enforced on (CI runs this test as the epsilon-checked hybrid-vs-packet
// step). Tiny scale keeps the full matrix under a minute.
func hybridDivergenceSpecs() []HybridSpec {
	return []HybridSpec{
		{Name: "fig3", Policy: "L2BM", Scale: ScaleTiny, RDMALoad: 0.4, TCPLoad: 0.4, InterRackOnly: true},
		{Name: "fig7", Policy: "L2BM", Scale: ScaleTiny, RDMALoad: 0.4, TCPLoad: 0.3,
			Incast: &IncastSpec{Fanout: 4, RequestBytes: 200_000, QueryRate: 2000}},
		{Name: "fig8", Policy: "DT", Scale: ScaleTiny, RDMALoad: 0.4, TCPLoad: 0.6, InterRackOnly: true},
		{Name: "steady", Policy: "L2BM", Scale: ScaleTiny, RDMALoad: 0.02, TCPLoad: 0.02,
			InterRackOnly: true, WindowOverride: 40 * sim.Millisecond},
	}
}

// relErr is |a−b| / max(|b|, 1): relative when the reference is meaningful,
// absolute when it is near zero (an empty class has p99 = 0).
func relErr(a, b float64) float64 {
	den := math.Abs(b)
	if den < 1 {
		den = 1
	}
	return math.Abs(a-b) / den
}

// TestHybridDivergence is the divergence-bound invariance test: on the
// paper's scenarios, hybrid fidelity must stay within the stated epsilon of
// the packet engine on tail FCT and drop counts, with exact flow
// accounting.
func TestHybridDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("hybrid divergence matrix is a long test")
	}
	for _, spec := range hybridDivergenceSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			pkSpec := spec
			pkSpec.Fidelity = FidelityPacket
			pk, err := RunHybrid(pkSpec)
			if err != nil {
				t.Fatal(err)
			}
			hySpec := spec
			hySpec.Fidelity = FidelityHybrid
			hy, err := RunHybrid(hySpec)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("packet: n=%d trunc=%d p99r=%.2f p99t=%.2f p99i=%.2f drops=%d events=%d",
				pk.FlowsStarted, pk.TruncatedFlows, pk.RDMAp99(), pk.TCPp99(), pk.Incastp99(), pk.LossyDrops, pk.Events)
			t.Logf("hybrid: n=%d trunc=%d p99r=%.2f p99t=%.2f p99i=%.2f drops=%d events=%d fluid=%d segs=%d",
				hy.FlowsStarted, hy.TruncatedFlows, hy.RDMAp99(), hy.TCPp99(), hy.Incastp99(), hy.LossyDrops, hy.Events,
				hy.FluidFlows, hy.PacketSegments)

			if hy.FlowsStarted != pk.FlowsStarted {
				t.Errorf("FlowsStarted diverged: hybrid %d, packet %d (schedules must be identical)",
					hy.FlowsStarted, pk.FlowsStarted)
			}
			if d := int(math.Abs(float64(hy.TruncatedFlows - pk.TruncatedFlows))); d > hybridTruncSlack {
				t.Errorf("TruncatedFlows diverged: hybrid %d, packet %d (slack %d)",
					hy.TruncatedFlows, pk.TruncatedFlows, hybridTruncSlack)
			}
			for _, m := range []struct {
				name   string
				hy, pk float64
			}{
				{"RDMA p99", hy.RDMAp99(), pk.RDMAp99()},
				{"TCP p99", hy.TCPp99(), pk.TCPp99()},
				{"incast p99", hy.Incastp99(), pk.Incastp99()},
			} {
				if e := relErr(m.hy, m.pk); e > hybridP99Eps {
					t.Errorf("%s diverged: hybrid %.3f, packet %.3f (rel err %.2f > %.2f)",
						m.name, m.hy, m.pk, e, hybridP99Eps)
				}
			}
			dropBand := hybridDropFrac * float64(pk.LossyDrops)
			if dropBand < hybridDropFloor {
				dropBand = hybridDropFloor
			}
			if d := math.Abs(float64(hy.LossyDrops) - float64(pk.LossyDrops)); d > dropBand {
				t.Errorf("drops diverged: hybrid %d, packet %d (|Δ| %.0f > %.0f)",
					hy.LossyDrops, pk.LossyDrops, d, dropBand)
			}
			if len(hy.AuditErrors) > 0 {
				t.Errorf("hybrid run reported audit errors: %v", hy.AuditErrors)
			}
		})
	}
}

// TestHybridSteadySpeedup pins the point of the whole exercise: on a
// steady-state-heavy window the hybrid engine must do a small fraction of
// the packet engine's event work. (The wall-clock version of this claim is
// the benchmark's ledger row fluid.speedup_x.)
func TestHybridSteadySpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 40ms packet-fidelity window")
	}
	spec := HybridSpec{Name: "hyb-speedup", Policy: "L2BM", Scale: ScaleTiny,
		RDMALoad: 0.02, TCPLoad: 0.02, InterRackOnly: true,
		WindowOverride: 40 * sim.Millisecond}
	pkSpec := spec
	pkSpec.Fidelity = FidelityPacket
	pk, err := RunHybrid(pkSpec)
	if err != nil {
		t.Fatal(err)
	}
	hySpec := spec
	hySpec.Fidelity = FidelityHybrid
	hy, err := RunHybrid(hySpec)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("events: packet %d, hybrid %d (fluid-completed flows %d/%d)",
		pk.Events, hy.Events, hy.FluidFlows, hy.FlowsStarted)
	if hy.Events*10 > pk.Events {
		t.Errorf("hybrid ran %d packet events, want ≤ 1/10 of the packet engine's %d",
			hy.Events, pk.Events)
	}
}

// TestHybridDeterminism: the hybrid controller is seeded and its residual
// hand-offs are sorted, so two runs of the same spec must agree exactly —
// not within epsilon — on every reported number.
func TestHybridDeterminism(t *testing.T) {
	spec := HybridSpec{Name: "hyb-det", Policy: "DT", Scale: ScaleTiny,
		RDMALoad: 0.4, TCPLoad: 0.6, InterRackOnly: true, Fidelity: FidelityHybrid}
	a, err := RunHybrid(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunHybrid(spec)
	if err != nil {
		t.Fatal(err)
	}
	type snap struct {
		started, completed int
		trunc              int
		p99r, p99t         float64
		drops, ecn, pause  uint64
		events             uint64
		fluidFlows         int
		segs               int
		steps              uint64
	}
	take := func(r *Result) snap {
		return snap{r.FlowsStarted, r.FlowsCompleted, r.TruncatedFlows,
			r.RDMAp99(), r.TCPp99(), r.LossyDrops, r.ECNMarked, r.PauseFrames,
			r.Events, r.FluidFlows, r.PacketSegments, r.FluidSteps}
	}
	if sa, sb := take(a), take(b); sa != sb {
		t.Errorf("hybrid runs diverged:\n first: %+v\nsecond: %+v", sa, sb)
	}
}

// TestHybridFidelityValidation covers the spec-level contract: hybrid
// fidelity runs its packet segments on the sharded engine, and unknown
// fidelity strings are rejected.
func TestHybridFidelityValidation(t *testing.T) {
	base := HybridSpec{Name: "hyb-val", Policy: "L2BM", Scale: ScaleTiny,
		RDMALoad: 0.05, TCPLoad: 0.05}

	sharded := base
	sharded.Fidelity = FidelityHybrid
	sharded.Shards = 2
	sharded.Incast = &IncastSpec{Fanout: 4, RequestBytes: 200_000, QueryRate: 2000} // bursts: packet segments
	res, err := RunHybrid(sharded)
	if err != nil {
		t.Fatalf("hybrid fidelity with Shards=2: %v", err)
	}
	if res.PacketSegments == 0 || res.Conductor.Shards != 2 {
		t.Errorf("hybrid fidelity with Shards=2: %d packet segments on %d engines, want them on two", res.PacketSegments, res.Conductor.Shards)
	}

	bogus := base
	bogus.Fidelity = "analytic"
	if _, err := RunHybrid(bogus); err == nil {
		t.Error("unknown fidelity should fail, got nil error")
	}
}
