package core

import "l2bm/internal/pkt"

// ABM reimplements Active Buffer Management (Addanki, Apostolaki, Ghobadi et
// al., SIGCOMM 2022) as the paper uses it for comparison. ABM partitions the
// egress buffer per priority and scales each queue's threshold by
//
//	T(port, p) = α_p / n_p(t) · (B − Q_class(t)) · μ̂(port, p)
//
// where n_p(t) is the number of currently congested egress queues of
// priority p and μ̂ is the queue's dequeue rate normalized to line rate. ABM
// as published manages only the (lossy) egress pool and "does not consider
// flow control at ingress" (paper §II-B); following the paper's Table II
// behaviour, the ingress pool falls back to plain DT with the common α = 0.5.
//
// α_p is AlphaDT2 for every priority (the paper's evaluation does not
// differentiate them).
type ABM struct{}

// NewABM returns ABM with the evaluation defaults.
func NewABM() *ABM { return &ABM{} }

// Name implements Policy.
func (a *ABM) Name() string { return "ABM" }

// IngressThreshold implements Policy: plain DT at the ingress pool, since
// ABM itself has no ingress component.
func (a *ABM) IngressThreshold(s StateView, _, _ int) int64 {
	return ingressDT(s, AlphaDT2)
}

// EgressThreshold implements Policy: the ABM formula over the queue's class
// pool. Cold start and fully drained switches are the dangerous corner:
// CongestedEgressQueues(prio) can be 0 (denominator clamped to 1) and the
// measured dequeue/line rates can both be 0 — normalizedDrainRate guards
// the division so no Inf/NaN ever escapes into a threshold.
func (a *ABM) EgressThreshold(s StateView, port, prio int) int64 {
	free := s.TotalShared() - s.EgressPoolUsed(ClassOfPriority(prio))
	if free < 0 {
		free = 0
	}
	n := s.CongestedEgressQueues(prio)
	if n < 1 {
		n = 1
	}
	mu := normalizedDrainRate(s, port, prio)
	return int64(AlphaDT2 / float64(n) * float64(free) * mu)
}

// normalizedDrainRate returns μ̂(port, prio): the queue's measured dequeue
// rate normalized to the port's line rate. On an idle or freshly booted
// switch both rates are 0 and the naive quotient is NaN — which compares
// false against every guard (NaN <= 0 is false) and would silently poison
// int64 conversion. The fallback mirrors ABM's cold-start convention: an
// equal 1/NumPriorities share. Shared by ABM and FB.
func normalizedDrainRate(s StateView, port, prio int) float64 {
	line := float64(s.EgressLineRate(port))
	if line <= 0 {
		return 1.0 / float64(pkt.NumPriorities)
	}
	mu := float64(s.EgressDrainRate(port, prio)) / line
	if mu <= 0 { // also catches NaN from a 0/0 quotient upstream
		return 1.0 / float64(pkt.NumPriorities)
	}
	return mu
}

// OnEnqueue implements Policy; ABM needs no per-packet state (congestion
// counts and dequeue rates come from the MMU view).
func (a *ABM) OnEnqueue(StateView, *pkt.Packet) {}

// OnDequeue implements Policy.
func (a *ABM) OnDequeue(StateView, *pkt.Packet) {}
