package core

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
type EDT struct{ modeTable }

const (
	// edtEvacuateFactor tightens the threshold during evacuation (T·factor).
	edtEvacuateFactor = 0.5
	// edtFreeReserve is the fraction of free buffer an absorbing queue may
	// not touch, keeping space for other queues' reserves.
	edtFreeReserve = 0.125
)

// NewEDT returns EDT with the evaluation defaults.
func NewEDT() *EDT { return &EDT{modeTable{queues: make(map[[2]int]*modeQueue), advance: edtAdvance}} }

// Name implements Policy.
func (e *EDT) Name() string { return "EDT" }

// EgressThreshold implements Policy: the EDT state machine.
func (e *EDT) EgressThreshold(s StateView, port, prio int) int64 {
	q := e.step(s, port, prio)
	dt := egressDT(s, prio, AlphaEgress)
	switch q.mode {
	case modeAbsorb:
		// Relax toward the free buffer, keeping a reserve for others.
		return max(q.lastLen+ingressDT(s, 1-edtFreeReserve), dt)
	case modeEvacuate:
		return int64(edtEvacuateFactor * float64(dt))
	default:
		return dt
	}
}

// edtAdvance is EDT's transition rule.
func edtAdvance(s StateView, q *modeQueue, qlen int64, prio int) queueMode {
	growing := qlen > q.lastLen
	dt := egressDT(s, prio, AlphaEgress)
	switch q.mode {
	case modeAbsorb:
		if !growing {
			// The burst stopped arriving: evacuate.
			return modeEvacuate
		}
	case modeEvacuate:
		if qlen <= int64(edtEvacuateFactor*float64(dt)) {
			return modeNormal
		}
	default:
		if qlen >= dt && growing {
			// DT would drop while buffer remains: absorb the burst.
			return modeAbsorb
		}
	}
	return q.mode
}
