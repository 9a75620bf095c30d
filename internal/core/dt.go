package core

import "l2bm/internal/pkt"

// Default control factors used throughout the paper's evaluation (§IV):
// DT uses the RoCEv2/Microsoft production setting α = 1/8 at the ingress,
// DT2 the common default α = 1/2. Egress queues use α = 1/2 over their
// class pool for every ingress policy, so that the policies differ only in
// what the paper varies.
const (
	// AlphaDT is classic DT's ingress control factor (α = 0.125).
	AlphaDT = 0.125
	// AlphaDT2 is DT2's ingress control factor (α = 0.5).
	AlphaDT2 = 0.5
	// AlphaEgress is the egress-pool DT factor shared by all policies.
	AlphaEgress = 0.5
)

// DT is the classic Choudhury–Hahne Dynamic Threshold policy (paper Eq. 1):
// every ingress queue gets the same threshold α·(B − Q(t)), and every egress
// queue α_e·(B − Q_class(t)) over its class pool. It is the default policy
// of commodity shared-memory switches and the paper's principal baseline.
type DT struct {
	// PolicyName overrides the reported name (so DT2 can share the code).
	PolicyName string
	// AlphaIngress is the ingress control factor α.
	AlphaIngress float64
	// AlphaEgressPool is the egress control factor α_e.
	AlphaEgressPool float64
}

// NewDT returns classic DT with the paper's α = 0.125.
func NewDT() *DT {
	return &DT{PolicyName: "DT", AlphaIngress: AlphaDT, AlphaEgressPool: AlphaEgress}
}

// NewDT2 returns the DT2 baseline: DT with α = 0.5.
func NewDT2() *DT {
	return &DT{PolicyName: "DT2", AlphaIngress: AlphaDT2, AlphaEgressPool: AlphaEgress}
}

// NewDTAlpha returns a DT variant with a custom ingress α, used by the
// α-sensitivity ablation.
func NewDTAlpha(alpha float64) *DT {
	return &DT{PolicyName: "DT", AlphaIngress: alpha, AlphaEgressPool: AlphaEgress}
}

// Name implements Policy.
func (d *DT) Name() string { return d.PolicyName }

// IngressThreshold implements Policy: α · (B − Q(t)).
func (d *DT) IngressThreshold(s StateView, _, _ int) int64 {
	return ingressDT(s, d.AlphaIngress)
}

// EgressThreshold implements Policy: α_e · (B − Q_class(t)) over the class
// pool of the queue's priority.
func (d *DT) EgressThreshold(s StateView, _, prio int) int64 {
	return egressDT(s, prio, d.AlphaEgressPool)
}

// OnEnqueue implements Policy; DT is stateless.
func (d *DT) OnEnqueue(StateView, *pkt.Packet) {}

// OnDequeue implements Policy; DT is stateless.
func (d *DT) OnDequeue(StateView, *pkt.Packet) {}

// ingressDT is the ingress-pool dynamic threshold w·max(0, B − Q(t)) for a
// control factor w.
func ingressDT(s StateView, w float64) int64 {
	return int64(w * float64(max(s.TotalShared()-s.SharedUsed(), 0)))
}

// egressDT is the shared egress-side dynamic threshold over the class pool
// that owns priority prio.
func egressDT(s StateView, prio int, alpha float64) int64 {
	free := s.TotalShared() - s.EgressPoolUsed(ClassOfPriority(prio))
	return int64(alpha * float64(max(free, 0)))
}

// ClassOfPriority maps an 802.1p priority to the loss class its queue is
// configured with (the paper dedicates fixed priorities to each protocol).
func ClassOfPriority(prio int) pkt.Class {
	switch prio {
	case pkt.PrioLossless:
		return pkt.ClassLossless
	case pkt.PrioControl:
		return pkt.ClassControl
	default:
		return pkt.ClassLossy
	}
}
