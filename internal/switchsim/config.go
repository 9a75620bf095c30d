// Package switchsim implements the paper's output-queued shared-memory
// switch (§II-A): an MMU that maintains ingress-pool and egress-pool virtual
// counters per port/priority, admits packets only when both pools agree,
// triggers per-priority PFC with headroom for lossless traffic, marks ECN at
// egress queues, and delegates all threshold decisions to a core.Policy.
package switchsim

import (
	"fmt"
	"math"

	"l2bm/internal/pkt"
)

// Config sizes the switch buffer and its ancillary mechanisms. All byte
// quantities are per the paper's 4 MB shallow-buffer ToR switch; use
// DefaultConfig and override what an experiment varies.
type Config struct {
	// TotalShared is B, the shared service pool in bytes (paper: 4 MB).
	TotalShared int64
	// ReservedPerQueue is the static per-queue buffer used before a queue
	// starts charging the shared pool (paper's "static buffer").
	ReservedPerQueue int64
	// HeadroomPerQueue is reserved, per lossless ingress (port, priority),
	// for in-flight packets arriving after XOFF was sent (paper's
	// "headroom pool"). Sized for 2·(BDP of one hop + MTU).
	HeadroomPerQueue int64
	// ECNLossyThreshold is DCTCP-style step marking: a lossy egress queue
	// marks CE when its backlog exceeds this many bytes.
	ECNLossyThreshold int64
	// ECNLosslessKmin/Kmax/Pmax configure DCQCN's RED-style marking on the
	// lossless egress queue.
	ECNLosslessKmin int64
	ECNLosslessKmax int64
	ECNLosslessPmax float64
}

const (
	// pfcHysteresis is how far the ingress counter must fall below the
	// threshold before XON resumes the upstream (2 MTU is typical).
	pfcHysteresis int64 = 2 * pkt.MTUBytes
	// congestionMark is the egress backlog above which a queue counts as
	// congested for ABM's n_p(t).
	congestionMark int64 = pkt.MTUBytes
)

// Validate reports configuration errors: negative pools, inverted ECN
// bands, or non-finite probabilities — the silent-garbage inputs the fault
// experiments would otherwise turn into misleading thresholds.
func (c *Config) Validate() error {
	switch {
	case c.TotalShared <= 0:
		return fmt.Errorf("switchsim: TotalShared = %d, want > 0", c.TotalShared)
	case c.ReservedPerQueue < 0:
		return fmt.Errorf("switchsim: ReservedPerQueue = %d, want >= 0", c.ReservedPerQueue)
	case c.HeadroomPerQueue < 0:
		return fmt.Errorf("switchsim: HeadroomPerQueue = %d, want >= 0", c.HeadroomPerQueue)
	case c.ECNLossyThreshold < 0:
		return fmt.Errorf("switchsim: ECNLossyThreshold = %d, want >= 0", c.ECNLossyThreshold)
	case c.ECNLosslessKmin < 0 || c.ECNLosslessKmax < 0:
		return fmt.Errorf("switchsim: ECN lossless Kmin/Kmax must be >= 0 (got %d/%d)",
			c.ECNLosslessKmin, c.ECNLosslessKmax)
	case c.ECNLosslessKmax > 0 && c.ECNLosslessKmin > c.ECNLosslessKmax:
		return fmt.Errorf("switchsim: ECN lossless Kmin %d > Kmax %d",
			c.ECNLosslessKmin, c.ECNLosslessKmax)
	case math.IsNaN(c.ECNLosslessPmax) || c.ECNLosslessPmax < 0 || c.ECNLosslessPmax > 1:
		return fmt.Errorf("switchsim: ECNLosslessPmax = %v, want in [0, 1]", c.ECNLosslessPmax)
	default:
		return nil
	}
}

// DefaultConfig returns the evaluation defaults (paper §IV setup, DCQCN and
// DCTCP marking parameters from their respective papers scaled to 25 Gbps).
func DefaultConfig() Config {
	return Config{
		TotalShared:      4 << 20, // 4 MB
		ReservedPerQueue: 2 * pkt.MTUBytes,
		HeadroomPerQueue: 160_000, // covers 2·BDP of the slowest hop (5 µs · 100 Gbps) + reaction
		// DCTCP step-marking threshold. Deliberately permissive (≈400
		// pkts): the paper's premise (Fig. 3a) is TCP occupying a large
		// share of the 4 MB buffer, making the ingress pool the binding
		// constraint buffer management arbitrates; a tight K would cap
		// TCP at the egress and mask the policies under study.
		ECNLossyThreshold: 400_000,
		ECNLosslessKmin:   5_000,
		ECNLosslessKmax:   200_000,
		ECNLosslessPmax:   0.01,
	}
}

// Stats aggregates switch-level counters the experiments report.
type Stats struct {
	// RxPackets counts data packets offered to the MMU.
	RxPackets uint64
	// TxPackets counts data packets fully serialized out.
	TxPackets uint64
	// LossyDropsIngress counts lossy packets dropped at the ingress pool
	// threshold.
	LossyDropsIngress uint64
	// LossyDropsEgress counts lossy packets dropped at the egress queue
	// threshold.
	LossyDropsEgress uint64
	// LosslessHeadroom counts lossless packets absorbed by headroom.
	LosslessHeadroom uint64
	// LosslessViolations counts lossless packets dropped because headroom
	// was exhausted — zero in any correctly configured run.
	LosslessViolations uint64
	// LossyDropBytesIngress/LossyDropBytesEgress/LosslessViolationBytes are
	// the wire-byte counterparts of the three drop counters above — the
	// switch-layer kill sites of the flow-byte conservation ledger the
	// invariant auditor checks (injected == delivered + dropped + in-flight).
	LossyDropBytesIngress  uint64
	LossyDropBytesEgress   uint64
	LosslessViolationBytes uint64
	// LossyEvictions/LossyEvictionBytes count already-admitted lossy
	// packets a preemptive policy (Occamy) evicted from egress queue tails
	// to admit a more deserving arrival. Eviction is a fourth kill site of
	// the conservation ledger: the bytes were admitted, then dropped.
	LossyEvictions     uint64
	LossyEvictionBytes uint64
	// ECNMarked counts CE marks applied.
	ECNMarked uint64
	// PauseFramesSent counts XOFF frames generated (the paper's Fig. 7(d)
	// metric); resumes are tracked separately.
	PauseFramesSent uint64
	// ResumeFramesSent counts XON frames generated.
	ResumeFramesSent uint64
	// PFCReissues counts XOFF frames re-sent because arrivals continued
	// past the point the original pause should have silenced the upstream
	// — evidence the pause frame itself was lost (fault injection). Zero
	// on a healthy fabric.
	PFCReissues uint64
	// PeakOccupancy is the high-water mark of total resident bytes.
	PeakOccupancy int64
}
