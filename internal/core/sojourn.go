package core

import (
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// sojournQueue tracks the average remaining sojourn time of the packets
// resident in one ingress queue (port, priority), implementing the paper's
// Algorithm 1 ("sojourn time updating algorithm").
//
// Semantics: total is the sum of the *estimated remaining drain times* of
// the packets currently in the queue, valued as of lastUpdate. On every
// touch the estimate is first advanced: each resident packet's remaining
// time shrinks by the wall time elapsed — excluding, per §III-D, time its
// destination egress priority spent paused by downstream PFC, so pause
// stalls are not misread as congestion. An enqueue then adds the new
// packet's expected drain time Q_out(j,p)/μ(j,p); a dequeue removes the
// departed packet (whose remaining time is ~0 if the estimate was accurate).
type sojournQueue struct {
	prio       int     // fixed priority of this ingress queue
	total      float64 // picoseconds; clamped at 0
	n          int
	lastUpdate sim.Time

	// resident[j] counts this queue's packets sitting at egress port j;
	// pausedSnap[j] is EgressPausedTime(j, prio) as of lastUpdate. Both are
	// sized to the switch's port count on first use.
	resident   []int
	pausedSnap []sim.Duration

	// nzPorts counts egress ports with resident packets; hot is the single
	// such port when nzPorts == 1 (the overwhelmingly common case — an
	// ingress queue usually feeds one egress at a time — which lets advance
	// skip the O(ports) resident scan on the admission fast path).
	nzPorts int
	hot     int

	// activeIdx is this queue's slot in SojournTable.active while n > 0.
	activeIdx int
}

func (q *sojournQueue) ensure(ports int) {
	if q.resident == nil {
		q.resident = make([]int, ports)
		q.pausedSnap = make([]sim.Duration, ports)
	}
}

// advance rolls the estimate forward to now, shrinking each resident
// packet's remaining time by its effective elapsed time. prio is the
// (fixed) priority of this ingress queue; excludePause selects the §III-D
// mitigation.
func (q *sojournQueue) advance(s StateView, prio int, excludePause bool) {
	now := s.Now()
	if q.n == 0 {
		q.total = 0
		q.lastUpdate = now
		return
	}
	elapsed := now - q.lastUpdate
	if elapsed <= 0 {
		return
	}
	if q.nzPorts == 1 {
		// Fast path: exactly one egress port is resident, so the scan
		// would visit one nonzero entry anyway. The arithmetic below is
		// the loop body verbatim for j = q.hot — bit-identical totals.
		j := q.hot
		eff := elapsed
		if excludePause {
			cum := s.EgressPausedTime(j, prio)
			pausedDelta := cum - q.pausedSnap[j]
			q.pausedSnap[j] = cum
			if pausedDelta > elapsed {
				pausedDelta = elapsed
			}
			eff -= pausedDelta
		}
		q.total -= float64(q.resident[j]) * float64(eff)
	} else {
		for j, c := range q.resident {
			if c == 0 {
				continue
			}
			eff := elapsed
			if excludePause {
				cum := s.EgressPausedTime(j, prio)
				pausedDelta := cum - q.pausedSnap[j]
				q.pausedSnap[j] = cum
				if pausedDelta > elapsed {
					pausedDelta = elapsed
				}
				eff -= pausedDelta
			}
			q.total -= float64(c) * float64(eff)
		}
	}
	if q.total < 0 {
		q.total = 0
	}
	q.lastUpdate = now
}

// onEnqueue records a packet admitted to this ingress queue and destined for
// egress port j.
func (q *sojournQueue) onEnqueue(s StateView, j, prio int, excludePause bool) {
	q.ensure(s.NumPorts())
	q.advance(s, prio, excludePause)
	// Expected drain time of the packet: the backlog ahead of it at its
	// output queue divided by that queue's service rate (Algorithm 1 line 8).
	mu := s.EgressDrainRate(j, prio)
	if mu > 0 {
		q.total += float64(sim.TxTime(int(s.EgressQueueBytes(j, prio)), mu))
	} else {
		// μ = 0: the egress priority is paused by downstream PFC. (The
		// pre-fix DrainRate reported a rate/(n+1) share for paused queues,
		// making this term finite for a queue that was not draining at all —
		// underestimating τ exactly when congestion was worst.) Charge the
		// backlog at the post-resume line rate; without §III-D
		// pause-exclusion additionally charge the expected remaining pause,
		// estimated as the elapsed pause so far (memoryless renewal rule).
		// With exclusion on, pause time never counts toward sojourn in the
		// first place (advance does not decay the estimate while paused), so
		// charging it here would double-count.
		expect := sim.TxTime(int(s.EgressQueueBytes(j, prio)), s.EgressLineRate(j))
		if !excludePause {
			expect += s.EgressPausedFor(j, prio)
		}
		q.total += float64(expect)
	}
	q.n++
	if q.resident[j] == 0 {
		q.nzPorts++
		if q.nzPorts == 1 {
			q.hot = j
		}
	}
	q.resident[j]++
	if excludePause {
		q.pausedSnap[j] = s.EgressPausedTime(j, prio)
	}
}

// onDequeue records a packet leaving this ingress queue from egress port j.
func (q *sojournQueue) onDequeue(s StateView, j, prio int, excludePause bool) {
	q.ensure(s.NumPorts())
	q.advance(s, prio, excludePause)
	if q.n > 0 {
		q.n--
	}
	if q.resident[j] > 0 {
		q.resident[j]--
		if q.resident[j] == 0 {
			q.nzPorts--
			if q.nzPorts == 1 {
				// 2 → 1 transition: rescan once for the surviving port.
				for i, c := range q.resident {
					if c > 0 {
						q.hot = i
						break
					}
				}
			}
		}
	}
	if q.n == 0 {
		q.total = 0
	}
}

// tau returns the average remaining sojourn time τ of resident packets as of
// now (advancing first), or 0 for an empty queue.
func (q *sojournQueue) tau(s StateView, prio int, excludePause bool) sim.Duration {
	if q.n == 0 {
		return 0
	}
	q.ensure(s.NumPorts())
	q.advance(s, prio, excludePause)
	return sim.Duration(q.total / float64(q.n))
}

// peekTau computes the τ that tau() would report as of now WITHOUT writing
// the advance back: no field of q is mutated. The trace layer samples
// through this path so that an armed recorder observes the same trajectory
// an unarmed run would produce (the observer-effect guarantee, held by
// construction for any StateView: tau() writes its advance back, and an
// extra write-back is unobservable only while the pausedDelta clamp never
// fires — true of a switch's cumulative pause clock, see L2BM.Weight, but
// not something a read-only path should lean on).
func (q *sojournQueue) peekTau(s StateView, prio int, excludePause bool) sim.Duration {
	if q.n == 0 {
		return 0
	}
	total := q.total
	elapsed := s.Now() - q.lastUpdate
	if elapsed > 0 {
		for j, c := range q.resident {
			if c == 0 {
				continue
			}
			eff := elapsed
			if excludePause {
				pausedDelta := s.EgressPausedTime(j, prio) - q.pausedSnap[j]
				if pausedDelta > elapsed {
					pausedDelta = elapsed
				}
				eff -= pausedDelta
			}
			total -= float64(c) * float64(eff)
		}
		if total < 0 {
			total = 0
		}
	}
	return sim.Duration(total / float64(q.n))
}

// SojournTable is the per-switch congestion-detection module (paper §III-B):
// one sojournQueue per (ingress port, priority). It is exported for tests
// and for the L2BM policy; the MMU drives it through the Policy hooks.
//
// The table sits on the admission fast path, so queues live in a flat slice
// indexed port·NumPriorities+prio, and the queues currently holding packets
// are additionally kept in a dense active set: a wide switch provisions
// hundreds of (port, priority) slots of which one or two are busy at any
// instant, and the aggregate statistics (Σ τ, max τ over active queues) are
// evaluated on almost every admission, so they must cost O(active), not
// O(provisioned).
//
// Invariant: active == {q : q.n > 0}. OnEnqueue is the only creator of
// queues and the only writer that adds to the set (at the 0→1 transition);
// OnDequeue removes at 1→0 by swap-remove. The set's order therefore
// depends on history, which is harmless: Σ and max over sim.Duration
// (int64) are order-independent, and each queue's advance reads only its
// own state and the StateView, so iterating the set in any order yields the
// aggregates — and leaves every queue in the state — a (port, prio)-ordered
// table walk would.
type SojournTable struct {
	queues       []*sojournQueue
	active       []*sojournQueue
	excludePause bool
}

// NewSojournTable returns an empty table. excludePause enables the §III-D
// exclusion of downstream-PFC stall time from the estimate.
func NewSojournTable(excludePause bool) *SojournTable {
	return &SojournTable{excludePause: excludePause}
}

// lookup returns the queue for (port, prio), or nil if no packet was ever
// enqueued there. Reads go through lookup so that they never allocate.
func (t *SojournTable) lookup(port, prio int) *sojournQueue {
	idx := port*pkt.NumPriorities + prio
	if idx >= len(t.queues) {
		return nil
	}
	return t.queues[idx]
}

// OnEnqueue records the admission of p (MMU has stamped InPort/InPrio/OutPort).
func (t *SojournTable) OnEnqueue(s StateView, p *pkt.Packet) {
	idx := p.InPort*pkt.NumPriorities + p.InPrio
	if idx >= len(t.queues) {
		// Grow to the exact size in one append (a one-at-a-time nil append
		// loop re-walked the capacity ladder on every growth step).
		t.queues = append(t.queues, make([]*sojournQueue, idx+1-len(t.queues))...)
	}
	q := t.queues[idx]
	if q == nil {
		q = &sojournQueue{prio: p.InPrio}
		t.queues[idx] = q
	}
	q.onEnqueue(s, p.OutPort, p.InPrio, t.excludePause)
	if q.n == 1 {
		q.activeIdx = len(t.active)
		t.active = append(t.active, q)
	}
}

// OnDequeue records the departure of p from shared memory.
func (t *SojournTable) OnDequeue(s StateView, p *pkt.Packet) {
	q := t.lookup(p.InPort, p.InPrio)
	if q == nil {
		return
	}
	wasActive := q.n > 0
	q.onDequeue(s, p.OutPort, p.InPrio, t.excludePause)
	if wasActive && q.n == 0 {
		last := len(t.active) - 1
		moved := t.active[last]
		t.active[q.activeIdx] = moved
		moved.activeIdx = q.activeIdx
		t.active[last] = nil
		t.active = t.active[:last]
	}
}

// Tau returns the average sojourn time of ingress queue (port, prio).
func (t *SojournTable) Tau(s StateView, port, prio int) sim.Duration {
	q := t.lookup(port, prio)
	if q == nil {
		return 0
	}
	return q.tau(s, prio, t.excludePause)
}

// Resident returns the packet count tracked for ingress queue (port, prio).
func (t *SojournTable) Resident(port, prio int) int {
	q := t.lookup(port, prio)
	if q == nil {
		return 0
	}
	return q.n
}

// flooredTau advances q and returns its τ, at least floor.
func (t *SojournTable) flooredTau(s StateView, q *sojournQueue, floor sim.Duration) sim.Duration {
	if tau := q.tau(s, q.prio, t.excludePause); tau > floor {
		return tau
	}
	return floor
}

// SumActiveTau returns Σ τ over all ingress queues currently holding
// packets, with each τ floored at floor — the paper's normalization constant
// C — together with the number of active queues.
func (t *SojournTable) SumActiveTau(s StateView, floor sim.Duration) (sum sim.Duration, active int) {
	for _, q := range t.active {
		sum += t.flooredTau(s, q, floor)
	}
	return sum, len(t.active)
}

// MaxActiveTau returns max τ over active ingress queues (floored), used by
// the normalization ablation.
func (t *SojournTable) MaxActiveTau(s StateView, floor sim.Duration) (maxTau sim.Duration, active int) {
	for _, q := range t.active {
		if tau := t.flooredTau(s, q, floor); tau > maxTau {
			maxTau = tau
		}
	}
	return maxTau, len(t.active)
}

// ActiveQueue is one active ingress queue's peeked sojourn estimate.
type ActiveQueue struct {
	Port, Prio int
	Tau        sim.Duration
}

// PeekActive returns every ingress queue currently holding packets together
// with its τ as of now, floored at floor, WITHOUT advancing any estimate.
// This is the trace layer's read-only window into the congestion-detection
// module: a run sampled through PeekActive is byte-identical to an unsampled
// run. Queues appear in (port, prio) order — the order is part of the trace
// bytes, which is why this walks the table rather than the active set (it
// runs per sampler tick, not per admission).
//
// PeekActive allocates a fresh slice per call; samplers on a tick should use
// PeekActiveAppend with a reusable scratch buffer instead.
func (t *SojournTable) PeekActive(s StateView, floor sim.Duration) []ActiveQueue {
	return t.PeekActiveAppend(nil, s, floor)
}

// PeekActiveAppend is PeekActive appending into dst (which may be nil or a
// recycled dst[:0]), returning the extended slice. A periodic sampler passes
// the same backing buffer every tick, so steady-state sampling allocates
// nothing.
func (t *SojournTable) PeekActiveAppend(dst []ActiveQueue, s StateView, floor sim.Duration) []ActiveQueue {
	for idx, q := range t.queues {
		if q == nil || q.n == 0 {
			continue
		}
		tau := q.peekTau(s, q.prio, t.excludePause)
		if tau < floor {
			tau = floor
		}
		dst = append(dst, ActiveQueue{Port: idx / pkt.NumPriorities, Prio: q.prio, Tau: tau})
	}
	return dst
}
