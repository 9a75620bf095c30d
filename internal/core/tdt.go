package core

import (
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// TDT reimplements the Traffic-aware Dynamic Threshold policy (Huang, Wang,
// Cui, IEEE/ACM ToN 2022), the second DT variant the paper cites (§II-B,
// §V). TDT classifies each egress queue's instantaneous traffic pattern and
// switches its control factor between three modes:
//
//   - Normal: classic DT with α_n.
//   - Absorption: entered when the queue builds up rapidly while the switch
//     still has plenty of free buffer (a micro-burst); the factor is raised
//     to α_n·tdtAbsorbBoost so the burst fits instead of dropping.
//   - Evacuation: entered from Absorption when the buffer is running out or
//     the burst has passed; the factor is cut to α_n·tdtEvacuateCut until the
//     queue drains below its normal share, pushing the hoarded memory back
//     to the pool.
//
// Like ABM and EDT, TDT manages the egress pool; the ingress pool runs
// classic DT (α = 0.5), and α_n is AlphaEgress.
type TDT struct {
	states map[[2]int]*tdtQueue
}

const (
	// tdtAbsorbBoost multiplies α_n during absorption.
	tdtAbsorbBoost = 4
	// tdtEvacuateCut multiplies α_n during evacuation.
	tdtEvacuateCut = 0.25
	// tdtBurstBytes is the queue growth within tdtBurstWindow that signals
	// a micro-burst.
	tdtBurstBytes = 16 * pkt.MTUBytes
	// tdtBurstWindow is the observation window for burst detection.
	tdtBurstWindow = 20 * sim.Microsecond
	// tdtFreeFraction is the minimum fraction of free buffer required to
	// enter (or stay in) absorption.
	tdtFreeFraction = 0.25
)

// tdtState is one queue's mode.
type tdtState int

const (
	tdtNormal tdtState = iota + 1
	tdtAbsorb
	tdtEvacuate
)

// tdtQueue tracks burst detection state for one egress queue.
type tdtQueue struct {
	state     tdtState
	windowAt  sim.Time
	windowLen int64
	lastLen   int64
}

// NewTDT returns TDT with the evaluation defaults.
func NewTDT() *TDT {
	return &TDT{states: make(map[[2]int]*tdtQueue)}
}

var _ Policy = (*TDT)(nil)

// Name implements Policy.
func (t *TDT) Name() string { return "TDT" }

// IngressThreshold implements Policy: classic DT at the ingress pool.
func (t *TDT) IngressThreshold(s StateView, _, _ int) int64 {
	return ingressDT(s, AlphaDT2)
}

// EgressThreshold implements Policy.
func (t *TDT) EgressThreshold(s StateView, port, prio int) int64 {
	q := t.queue(port, prio)
	t.step(s, q, s.EgressQueueBytes(port, prio), prio)

	alpha := AlphaEgress
	switch q.state {
	case tdtAbsorb:
		alpha *= tdtAbsorbBoost
	case tdtEvacuate:
		alpha *= tdtEvacuateCut
	}
	return egressDT(s, prio, alpha)
}

// step advances the state machine with the current length of the queue of
// priority prio.
func (t *TDT) step(s StateView, q *tdtQueue, qlen int64, prio int) {
	now := s.Now()
	if now-q.windowAt >= tdtBurstWindow {
		q.windowAt = now
		q.windowLen = qlen
	}
	growth := qlen - q.windowLen
	free := s.TotalShared() - s.SharedUsed()
	plenty := float64(free) >= tdtFreeFraction*float64(s.TotalShared())

	switch q.state {
	case tdtNormal:
		if growth >= tdtBurstBytes && plenty {
			q.state = tdtAbsorb
		}
	case tdtAbsorb:
		if !plenty || qlen < q.lastLen {
			// Buffer pressure or the burst has crested: give it back.
			q.state = tdtEvacuate
		}
	case tdtEvacuate:
		// Drained below its normal share: the Normal-mode threshold,
		// over the same class pool.
		if qlen <= egressDT(s, prio, AlphaEgress) {
			q.state = tdtNormal
		}
	}
	q.lastLen = qlen
}

func (t *TDT) queue(port, prio int) *tdtQueue {
	key := [2]int{port, prio}
	q := t.states[key]
	if q == nil {
		q = &tdtQueue{state: tdtNormal}
		t.states[key] = q
	}
	return q
}

// State exposes the queue's current mode for tests.
func (t *TDT) State(port, prio int) string {
	switch t.queue(port, prio).state {
	case tdtAbsorb:
		return "absorb"
	case tdtEvacuate:
		return "evacuate"
	default:
		return "normal"
	}
}

// OnEnqueue implements Policy.
func (t *TDT) OnEnqueue(s StateView, p *pkt.Packet) {
	t.step(s, t.queue(p.OutPort, p.Priority), s.EgressQueueBytes(p.OutPort, p.Priority), p.Priority)
}

// OnDequeue implements Policy.
func (t *TDT) OnDequeue(s StateView, p *pkt.Packet) {
	t.step(s, t.queue(p.OutPort, p.Priority), s.EgressQueueBytes(p.OutPort, p.Priority), p.Priority)
}
