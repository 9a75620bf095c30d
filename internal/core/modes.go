package core

import (
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// queueMode is one egress queue's position in the normal → absorb →
// evacuate cycle that EDT and TDT share.
type queueMode int

const (
	modeNormal queueMode = iota
	modeAbsorb
	modeEvacuate
)

// modeQueue is one egress queue's mode and what its advance rule observed.
type modeQueue struct {
	mode    queueMode
	lastLen int64 // queue length at the latest step
	// TDT's burst-detection window: its start and the length there.
	windowAt  sim.Time
	windowLen int64
}

// modeTable is the skeleton of the two DT variants: a per-(port, prio) mode
// table created on first use, classic DT at the ingress pool, and one step
// of the policy's advance rule whenever a threshold is asked for or a packet
// enters or leaves a queue. The policy maps the mode to its egress
// threshold.
type modeTable struct {
	queues map[[2]int]*modeQueue
	// advance returns q's next mode given the queue's current length; q
	// still holds the previous step's observations.
	advance func(s StateView, q *modeQueue, qlen int64, prio int) queueMode
}

func (m *modeTable) queue(port, prio int) *modeQueue {
	key := [2]int{port, prio}
	q := m.queues[key]
	if q == nil {
		q = &modeQueue{}
		m.queues[key] = q
	}
	return q
}

// step advances the (port, prio) queue from its current length.
func (m *modeTable) step(s StateView, port, prio int) *modeQueue {
	q := m.queue(port, prio)
	qlen := s.EgressQueueBytes(port, prio)
	q.mode = m.advance(s, q, qlen, prio)
	q.lastLen = qlen
	return q
}

// State exposes the queue's current mode for tests.
func (m *modeTable) State(port, prio int) string {
	return [...]string{"normal", "absorb", "evacuate"}[m.queue(port, prio).mode]
}

// IngressThreshold implements Policy: classic DT (α = 0.5) at the ingress
// pool, so PFC behaviour matches the DT2 baseline.
func (m *modeTable) IngressThreshold(s StateView, _, _ int) int64 {
	return ingressDT(s, AlphaDT2)
}

// OnEnqueue implements Policy. Stepping here tracks growth even where
// EgressThreshold is not consulted (the lossless class).
func (m *modeTable) OnEnqueue(s StateView, p *pkt.Packet) {
	m.step(s, p.OutPort, p.Priority)
}

// OnDequeue implements Policy.
func (m *modeTable) OnDequeue(s StateView, p *pkt.Packet) {
	m.step(s, p.OutPort, p.Priority)
}
