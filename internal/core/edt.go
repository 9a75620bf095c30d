package core

import (
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// EDT reimplements the Enhanced Dynamic Threshold policy (Shan, Jiang, Ren,
// INFOCOM 2015), cited by the paper among the egress-side DT variants
// (§II-B, §V). EDT absorbs micro-bursts by temporarily suspending DT's
// fairness constraint at the egress:
//
//   - Normal: the queue obeys classic DT, T = α·(B − Q_pool).
//   - Absorption: when a queue hits its DT threshold while the buffer still
//     has free space (the situation where DT would drop despite spare
//     memory), the queue is allowed to keep growing — its threshold is
//     relaxed toward the remaining free buffer — for as long as the burst
//     keeps arriving.
//   - Evacuation: once the queue starts draining (its length falls), the
//     relaxed threshold is withdrawn and the queue must shrink back under
//     the DT threshold with a tightened factor before absorbing again.
//
// Like ABM, EDT is an egress-pool design: the ingress pool runs classic DT
// (α = 0.5), so PFC behaviour matches the DT2 baseline. The Normal state
// runs egress DT at AlphaEgress.
type EDT struct {
	states map[[2]int]*edtQueue
}

const (
	// edtEvacuateFactor tightens the threshold during evacuation (T·factor).
	edtEvacuateFactor = 0.5
	// edtFreeReserve is the fraction of free buffer an absorbing queue may
	// not touch, keeping space for other queues' reserves.
	edtFreeReserve = 0.125
)

// edtState is the per-queue mode of EDT's state machine.
type edtState int

const (
	edtNormal edtState = iota + 1
	edtAbsorb
	edtEvacuate
)

// edtQueue carries one egress queue's state-machine position.
type edtQueue struct {
	state    edtState
	lastLen  int64
	lastSeen sim.Time
}

// NewEDT returns EDT with the evaluation defaults.
func NewEDT() *EDT {
	return &EDT{states: make(map[[2]int]*edtQueue)}
}

var _ Policy = (*EDT)(nil)

// Name implements Policy.
func (e *EDT) Name() string { return "EDT" }

// IngressThreshold implements Policy: classic DT at the ingress pool.
func (e *EDT) IngressThreshold(s StateView, _, _ int) int64 {
	return ingressDT(s, AlphaDT2)
}

// EgressThreshold implements Policy: the EDT state machine.
func (e *EDT) EgressThreshold(s StateView, port, prio int) int64 {
	q := e.queue(port, prio)
	qlen := s.EgressQueueBytes(port, prio)
	dt := egressDT(s, prio, AlphaEgress)

	e.step(s, q, qlen, dt)

	switch q.state {
	case edtAbsorb:
		// Relax toward the free buffer, keeping a reserve for others.
		return max(qlen+ingressDT(s, 1-edtFreeReserve), dt)
	case edtEvacuate:
		return int64(edtEvacuateFactor * float64(dt))
	default:
		return dt
	}
}

// step advances the queue's state machine from the latest observation.
func (e *EDT) step(s StateView, q *edtQueue, qlen, dt int64) {
	now := s.Now()
	growing := qlen > q.lastLen
	q.lastLen, q.lastSeen = qlen, now

	switch q.state {
	case edtAbsorb:
		if !growing {
			// The burst stopped arriving: evacuate.
			q.state = edtEvacuate
		}
	case edtEvacuate:
		if qlen <= int64(edtEvacuateFactor*float64(dt)) {
			q.state = edtNormal
		}
	default:
		if qlen >= dt && growing {
			// DT would drop while buffer remains: absorb the burst.
			q.state = edtAbsorb
		}
	}
}

func (e *EDT) queue(port, prio int) *edtQueue {
	key := [2]int{port, prio}
	q := e.states[key]
	if q == nil {
		q = &edtQueue{state: edtNormal}
		e.states[key] = q
	}
	return q
}

// State exposes the queue's current mode for tests.
func (e *EDT) State(port, prio int) string {
	switch e.queue(port, prio).state {
	case edtAbsorb:
		return "absorb"
	case edtEvacuate:
		return "evacuate"
	default:
		return "normal"
	}
}

// OnEnqueue implements Policy.
func (e *EDT) OnEnqueue(s StateView, p *pkt.Packet) {
	// Refresh the state machine on the packet's egress queue so growth is
	// tracked even when EgressThreshold is not consulted (lossless class).
	q := e.queue(p.OutPort, p.Priority)
	e.step(s, q, s.EgressQueueBytes(p.OutPort, p.Priority), egressDT(s, p.Priority, AlphaEgress))
}

// OnDequeue implements Policy.
func (e *EDT) OnDequeue(s StateView, p *pkt.Packet) {
	q := e.queue(p.OutPort, p.Priority)
	e.step(s, q, s.EgressQueueBytes(p.OutPort, p.Priority), egressDT(s, p.Priority, AlphaEgress))
}
