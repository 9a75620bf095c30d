package core

import "l2bm/internal/pkt"

// FB reimplements the Flexible Buffer sharing scheme (Apostolaki, Ghobadi,
// Vanbever et al., arXiv 2105.10553), ABM's direct predecessor in the
// related-work lineage: each egress queue's threshold scales the free class
// pool by the queue's dequeue rate normalized to line rate,
//
//	T(port, p) = α_p · (B − Q_class(t)) · μ̂(port, p)
//
// steering buffer toward queues that are actually draining (and away from
// PFC-paused or incast-victim queues) — but, unlike ABM, without dividing
// by the congested-queue count n_p(t), so FB stays blind to how many queues
// compete for the pool. Like ABM it manages only the egress side; the
// ingress pool falls back to plain DT with the common α = 0.5.
type FB struct{}

// NewFB returns FB with the evaluation defaults (α = 0.5 on both sides,
// matching ABM so the two differ only in the 1/n term).
func NewFB() *FB { return &FB{} }

// Name implements Policy.
func (f *FB) Name() string { return "FB" }

// IngressThreshold implements Policy: plain DT at the ingress pool.
func (f *FB) IngressThreshold(s StateView, _, _ int) int64 {
	return ingressDT(s, AlphaDT2)
}

// EgressThreshold implements Policy: the drain-rate-proportional share of
// the free class pool. normalizedDrainRate supplies the same cold-start
// fallback (and NaN guard) ABM uses.
func (f *FB) EgressThreshold(s StateView, port, prio int) int64 {
	free := s.TotalShared() - s.EgressPoolUsed(ClassOfPriority(prio))
	if free < 0 {
		free = 0
	}
	return int64(AlphaDT2 * float64(free) * normalizedDrainRate(s, port, prio))
}

// OnEnqueue implements Policy; FB keeps no per-packet state.
func (f *FB) OnEnqueue(StateView, *pkt.Packet) {}

// OnDequeue implements Policy.
func (f *FB) OnDequeue(StateView, *pkt.Packet) {}
