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
// enqueue and dequeue the estimate is first advanced (reads compute the same
// advance and write nothing back): each resident packet's remaining
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

	// resident lists the egress ports holding this queue's packets, in no
	// particular order. An ingress queue usually feeds one egress at a
	// time, so reads and advances cost O(resident ports), not O(ports).
	resident []residentPort

	// activeIdx is this queue's slot in SojournTable.active while n > 0.
	activeIdx int
}

// residentPort counts one sojournQueue's packets sitting at egress port
// port; snap is EgressPausedTime(port, prio) as of lastUpdate.
type residentPort struct {
	port int
	n    int
	snap sim.Duration
}

// find returns the index of egress port j in q.resident, or -1.
func (q *sojournQueue) find(j int) int {
	for i := range q.resident {
		if q.resident[i].port == j {
			return i
		}
	}
	return -1
}

// remaining returns the queue's total remaining sojourn as of now: total
// shrunk by each resident packet's effective elapsed time, clamped at 0. It
// writes nothing; excludePause selects the §III-D mitigation.
func (q *sojournQueue) remaining(s StateView, excludePause bool) float64 {
	elapsed := s.Now() - q.lastUpdate
	if q.n == 0 || elapsed <= 0 {
		return q.total
	}
	total := q.total
	for _, r := range q.resident {
		total -= float64(r.n) * float64(q.effective(s, r, elapsed, excludePause))
	}
	return max(total, 0)
}

// effective returns the part of elapsed that counts toward the sojourn of
// the packets at r: all of it, or with pause exclusion the part not spent
// paused since r's snapshot (the paused share clamped to elapsed).
func (q *sojournQueue) effective(s StateView, r residentPort, elapsed sim.Duration, excludePause bool) sim.Duration {
	if !excludePause {
		return elapsed
	}
	return elapsed - min(s.EgressPausedTime(r.port, q.prio)-r.snap, elapsed)
}

// advance stores remaining as of now and re-snapshots the resident ports'
// pause clocks. It is the estimate's one writer, called only by onEnqueue
// and onDequeue.
func (q *sojournQueue) advance(s StateView, excludePause bool) {
	now := s.Now()
	if q.n > 0 && now <= q.lastUpdate {
		return
	}
	q.total = q.remaining(s, excludePause)
	q.lastUpdate = now
	if excludePause {
		for i := range q.resident {
			q.resident[i].snap = s.EgressPausedTime(q.resident[i].port, q.prio)
		}
	}
}

// onEnqueue records a packet admitted to this ingress queue and destined for
// egress port j.
func (q *sojournQueue) onEnqueue(s StateView, j int, excludePause bool) {
	q.advance(s, excludePause)
	prio := q.prio
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
	i := q.find(j)
	if i < 0 {
		i = len(q.resident)
		q.resident = append(q.resident, residentPort{port: j})
	}
	q.resident[i].n++
	if excludePause {
		q.resident[i].snap = s.EgressPausedTime(j, prio)
	}
}

// onDequeue records a packet leaving this ingress queue from egress port j.
func (q *sojournQueue) onDequeue(s StateView, j int, excludePause bool) {
	q.advance(s, excludePause)
	if q.n > 0 {
		q.n--
	}
	if i := q.find(j); i >= 0 {
		q.resident[i].n--
		if q.resident[i].n == 0 {
			last := len(q.resident) - 1
			q.resident[i] = q.resident[last]
			q.resident = q.resident[:last]
		}
	}
	if q.n == 0 {
		q.total = 0
	}
}

// tau returns the average remaining sojourn time τ of resident packets as of
// now, or 0 for an empty queue. It writes nothing.
func (q *sojournQueue) tau(s StateView, excludePause bool) sim.Duration {
	if q.n == 0 {
		return 0
	}
	return sim.Duration(q.remaining(s, excludePause) / float64(q.n))
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
// Invariant: active == {q : q.n > 0}. OnEnqueue and OnDequeue are the
// table's only writers: OnEnqueue creates queues and adds to the set (at the
// 0→1 transition), OnDequeue removes at 1→0 by swap-remove. Every read is a
// pure function of the table and the StateView. The set's order depends on
// history, which is harmless: Σ and max over sim.Duration (int64) are
// order-independent, so iterating the set in any order yields the
// aggregates a (port, prio)-ordered table walk would.
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
	q.onEnqueue(s, p.OutPort, t.excludePause)
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
	q.onDequeue(s, p.OutPort, t.excludePause)
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
	return q.tau(s, t.excludePause)
}

// Resident returns the packet count tracked for ingress queue (port, prio).
func (t *SojournTable) Resident(port, prio int) int {
	q := t.lookup(port, prio)
	if q == nil {
		return 0
	}
	return q.n
}

// flooredTau returns q's τ, at least floor.
func (t *SojournTable) flooredTau(s StateView, q *sojournQueue, floor sim.Duration) sim.Duration {
	return max(q.tau(s, t.excludePause), floor)
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

// ActiveQueue is one active ingress queue's sojourn estimate.
type ActiveQueue struct {
	Port, Prio int
	Tau        sim.Duration
}

// PeekActiveAppend appends every ingress queue currently holding packets,
// with its τ as of now floored at floor, to dst (nil or a recycled dst[:0])
// and returns the extended slice. Queues appear in (port, prio) order — the
// order is part of the trace bytes, which is why this walks the table rather
// than the active set (it runs per sampler tick, not per admission). A
// periodic sampler passes the same backing buffer every tick, so
// steady-state sampling allocates nothing.
func (t *SojournTable) PeekActiveAppend(dst []ActiveQueue, s StateView, floor sim.Duration) []ActiveQueue {
	for idx, q := range t.queues {
		if q == nil || q.n == 0 {
			continue
		}
		dst = append(dst, ActiveQueue{Port: idx / pkt.NumPriorities, Prio: q.prio, Tau: t.flooredTau(s, q, floor)})
	}
	return dst
}
