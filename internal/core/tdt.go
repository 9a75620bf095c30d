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
type TDT struct{ modeTable }

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

// NewTDT returns TDT with the evaluation defaults.
func NewTDT() *TDT { return &TDT{modeTable{queues: make(map[[2]int]*modeQueue), advance: tdtAdvance}} }

// Name implements Policy.
func (t *TDT) Name() string { return "TDT" }

// EgressThreshold implements Policy.
func (t *TDT) EgressThreshold(s StateView, port, prio int) int64 {
	alpha := AlphaEgress
	switch t.step(s, port, prio).mode {
	case modeAbsorb:
		alpha *= tdtAbsorbBoost
	case modeEvacuate:
		alpha *= tdtEvacuateCut
	}
	return egressDT(s, prio, alpha)
}

// tdtAdvance is TDT's transition rule.
func tdtAdvance(s StateView, q *modeQueue, qlen int64, prio int) queueMode {
	now := s.Now()
	if now-q.windowAt >= tdtBurstWindow {
		q.windowAt = now
		q.windowLen = qlen
	}
	growth := qlen - q.windowLen
	free := s.TotalShared() - s.SharedUsed()
	plenty := float64(free) >= tdtFreeFraction*float64(s.TotalShared())

	switch q.mode {
	case modeNormal:
		if growth >= tdtBurstBytes && plenty {
			return modeAbsorb
		}
	case modeAbsorb:
		if !plenty || qlen < q.lastLen {
			// Buffer pressure or the burst has crested: give it back.
			return modeEvacuate
		}
	case modeEvacuate:
		// Drained below its normal share: the Normal-mode threshold,
		// over the same class pool.
		if qlen <= egressDT(s, prio, AlphaEgress) {
			return modeNormal
		}
	}
	return q.mode
}
