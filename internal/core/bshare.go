package core

import (
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// BShare's evaluation settings: the delay-ratio weight scales α = 0.5
// (AlphaDT2), and the egress pool runs DT at AlphaEgress (BShare, like L2BM,
// is an ingress-pool algorithm).
var (
	// bshareDelayFloor is the minimum measured delay used in the ratio, one
	// MTU serialization at 25 Gb/s: it keeps the ratio finite for queues
	// that drain immediately.
	bshareDelayFloor = sim.TxTime(pkt.MTUBytes, 25e9)
	// bshareTargetDelay is the absolute per-queue queueing-delay objective
	// D: a queue measuring exactly D gets weight α, faster queues earn more,
	// slower queues are squeezed.
	bshareTargetDelay = 16 * bshareDelayFloor
	// The weight is clamped per class, with the same rationale as L2BM's
	// bounds: lossless queues are pinned at the common factor so PFC
	// behaviour stays predictable, and lossy queues can never be boosted
	// past the base factor.
	bshareBoundsLossless = WeightBounds{Min: AlphaDT2, Max: AlphaDT2}
	bshareBoundsLossy    = WeightBounds{Min: AlphaDT2 / 8, Max: AlphaDT2}
)

// BShare reimplements packet-queueing-delay-driven buffer sharing
// (arXiv 2605.24178) — philosophically the closest rival to L2BM: both
// read congestion from the time packets spend queued rather than from byte
// counts. Where L2BM normalizes each ingress queue's sojourn estimate
// against the other active queues (relative congestion), BShare holds
// every queue to an absolute delay target D:
//
//	T_i^p(t) = clamp(D / τ_i^p) · α · (B − Q(t))
//
// Queues whose measured queueing delay sits below the target earn a
// proportionally larger share of the free pool; queues exceeding it are
// squeezed toward the class minimum. The per-queue delay estimate τ reuses
// the sojourn module's machinery (Algorithm 1) unchanged, with downstream-PFC
// stall time kept out of it (same mitigation as L2BM §III-D — a paused queue
// is not a congested queue).
type BShare struct {
	sojourn *SojournTable
}

// NewBShare returns BShare with the evaluation settings.
func NewBShare() *BShare { return &BShare{sojourn: NewSojournTable(true)} }

// Name implements Policy.
func (b *BShare) Name() string { return "BShare" }

// Weight returns the delay-ratio weight clamp(D/τ)·α for ingress queue
// (port, prio). An idle queue's τ collapses to the floor, so the ratio
// saturates at the class maximum — cold start degenerates to DT with the
// class's max weight, and thresholds never jump when traffic appears.
func (b *BShare) Weight(s StateView, port, prio int) float64 {
	tau := b.sojourn.Tau(s, port, prio)
	if tau < bshareDelayFloor {
		tau = bshareDelayFloor
	}
	w := float64(bshareTargetDelay) / float64(tau) * AlphaDT2
	if ClassOfPriority(prio) == pkt.ClassLossless {
		return bshareBoundsLossless.clamp(w)
	}
	return bshareBoundsLossy.clamp(w)
}

// IngressThreshold implements Policy: the delay-weighted DT share.
func (b *BShare) IngressThreshold(s StateView, port, prio int) int64 {
	return ingressDT(s, b.Weight(s, port, prio))
}

// EgressThreshold implements Policy: standard egress-pool DT.
func (b *BShare) EgressThreshold(s StateView, _, prio int) int64 {
	return egressDT(s, prio, AlphaEgress)
}

// OnEnqueue implements Policy, feeding the delay estimator.
func (b *BShare) OnEnqueue(s StateView, p *pkt.Packet) { b.sojourn.OnEnqueue(s, p) }

// OnDequeue implements Policy.
func (b *BShare) OnDequeue(s StateView, p *pkt.Packet) { b.sojourn.OnDequeue(s, p) }
