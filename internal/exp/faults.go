package exp

import (
	"fmt"
	"io"

	"l2bm/internal/faults"
	"l2bm/internal/sim"
)

// DefaultFaultScenario is the beyond-the-paper robustness ablation: every
// fabric link flaps as a Poisson process at ~1% downtime duty cycle (500
// flaps/s, 20 µs mean outage) during the traffic window, every link
// corrupts data frames at BER 1e-6 (≈0.8% of MTU frames), and the detection
// machinery runs with defaults. Flapping stops when the window closes so
// the drain phase measures recovery, not fresh damage.
func DefaultFaultScenario(scale Scale) *FaultSpec {
	return &FaultSpec{
		Plan: faults.Plan{
			FlapRate:     500,
			FlapDowntime: 20 * sim.Microsecond,
			FlapWindow:   scale.Window(),
			BER:          1e-6,
		},
	}
}

// FaultDrain is the post-window recovery horizon for fault runs, as a
// multiple of the traffic window. Fault recovery has a long tail — RTO
// backoff plus DCQCN's slow rate ramp after a rewind — so fault runs drain
// far longer than the clean-fabric default (8x) before declaring a flow
// lost. 48x suffices empirically at tiny scale; 64x adds margin.
const FaultDrain = 64

// faultPoint is the faults experiment's per-policy point: the four policies
// under the default link-flap + corruption scenario on hybrid traffic (RDMA
// 0.4, TCP 0.4) — do flows still complete, what does recovery cost, and does
// the detection machinery stay quiet on a deadlock-free fabric?
func faultPoint(scale Scale) HybridSpec {
	return HybridSpec{
		Name:     "faults",
		RDMALoad: 0.4, TCPLoad: 0.4,
		DrainOverride: FaultDrain * scale.Window(),
		Faults:        DefaultFaultScenario(scale),
	}
}

// renderFaults writes two tables: completion/recovery and
// detection/integrity.
func renderFaults(w io.Writer, _ Scale, specs []HybridSpec, results []*Result) error {
	rec := NewTable("Fault tolerance: completion and recovery under 1% link flaps + 1e-6 BER",
		"policy", "started", "completed", "completion", "rdma_p99", "tcp_p99",
		"recovery_KB", "rdma_nacks", "rdma_rtos", "flaps", "corrupt")
	det := NewTable("Fault tolerance: detection and integrity",
		"policy", "pause", "reissue", "lost_pfc", "carrier_drops",
		"deadlock_scans", "deadlock_cycles", "stalls", "gaps", "violations", "audit_errors")
	for i, res := range results {
		pol := specs[i].Policy
		completion := 0.0
		if res.FlowsStarted > 0 {
			completion = float64(res.FlowsCompleted) / float64(res.FlowsStarted)
		}
		rec.AddRow(pol,
			fmt.Sprint(res.FlowsStarted), fmt.Sprint(res.FlowsCompleted), f3(completion),
			f2(res.RDMAp99()), f2(res.TCPp99()),
			f2(float64(res.RecoveryBytes)/1024),
			fmt.Sprint(res.RDMANACKs), fmt.Sprint(res.RDMATimeouts),
			fmt.Sprint(res.LinkDownEvents), fmt.Sprint(res.CorruptedFrames))
		det.AddRow(pol,
			fmt.Sprint(res.PauseFrames), fmt.Sprint(res.PFCReissues),
			fmt.Sprint(res.LostPFC), fmt.Sprint(res.CarrierDrops),
			fmt.Sprint(res.DeadlockScans), fmt.Sprint(res.DeadlockCycles),
			fmt.Sprint(res.WatchdogStalls), fmt.Sprint(res.LosslessGaps),
			fmt.Sprint(res.LosslessViolations), fmt.Sprint(len(res.AuditErrors)))
	}
	return fprintTables(w, rec, det)
}
