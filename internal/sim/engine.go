package sim

import (
	"fmt"
	"math"
)

// Callback is the body of a scheduled event. It runs on the engine goroutine
// at the event's timestamp.
type Callback func()

// ArgCallback is the closure-free event body: the engine stores (fn, arg) in
// the pooled event record, so hot paths that would otherwise allocate a
// fresh closure per event (one per packet per hop in the netdev layer)
// instead pre-bind fn once and thread the per-event state through arg. A
// pointer-typed arg rides in the interface word without allocating.
type ArgCallback func(arg any)

// event is one pending entry in the queue. Events with equal timestamps fire
// in scheduling order (seq), which makes runs deterministic. Events are
// pooled; gen distinguishes incarnations so stale EventRefs stay inert.
// Exactly one of fn/afn is non-nil while the event is live; arg is only
// meaningful alongside afn.
type event struct {
	at  Time
	seq uint64
	gen uint64
	fn  Callback
	afn ArgCallback
	arg any

	// idx is the record's slot in Engine.all, stamped once at allocation.
	// Wheel buckets reference events by this index instead of by pointer so
	// the bucket arrays stay pointer-free (see wheelEntry).
	idx uint32
}

// live reports whether the event still has a body to run (not cancelled,
// not yet dispatched).
func (ev *event) live() bool { return ev.fn != nil || ev.afn != nil }

// clear drops every callback reference. Called at each recycle point
// (cancel, dispatch, compaction) so a pooled event record can never keep a
// stale arg — typically a pooled packet — reachable from the free list.
func (ev *event) clear() {
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
}

// EventRef identifies a scheduled event so it can be cancelled. The zero
// value refers to no event and is safe to Cancel.
type EventRef struct {
	eng *Engine
	ev  *event
	gen uint64
}

// Cancel prevents the referenced event from firing. Cancelling an event that
// already fired, was already cancelled, or was never scheduled is a no-op.
// It reports whether the event was actually descheduled.
//
// A cancelled event's slot (in a wheel bucket or the near-heap) is reclaimed
// lazily: either when its tick is flushed or its timestamp pops, or by
// compaction once dead entries outnumber live ones (see Engine.maybeCompact)
// — so rearm-heavy users (DCQCN RTO backoff) keep Pending() proportional to
// the number of *live* timers, not to the rearm rate times the backoff
// horizon.
func (r *EventRef) Cancel() bool {
	if r.ev == nil || r.ev.gen != r.gen || !r.ev.live() {
		r.ev = nil
		return false
	}
	r.ev.clear() // fires as a no-op and recycles; drops any arg reference now
	r.ev = nil
	if r.eng != nil {
		r.eng.cancelled++
		r.eng.maybeCompact()
	}
	return true
}

// Pending reports whether the referenced event is still scheduled.
func (r *EventRef) Pending() bool {
	return r.ev != nil && r.ev.gen == r.gen && r.ev.live()
}

// Engine is a deterministic discrete-event scheduler. Events scheduled a
// fixed delay from now ride delay lines (line.go): sorted rings of value
// entries. Every other event takes a pooled record, which a hierarchical
// timer wheel (wheel.go) parks in O(1) buckets and flushes a tick at a time
// into a 4-ary micro-heap. Each event is dispatched from the heap or a line
// head, whichever orders first, in exact (at, seq) order.
//
// The zero value is not usable; construct with NewEngine or NewEngineWheel.
// All methods must be called from the goroutine running the simulation
// (event callbacks or the caller of Run between runs).
type Engine struct {
	now     Time
	queue   []*event
	free    []*event
	seq     uint64
	stopped bool
	fired   uint64
	rng     *Source

	// cancelled counts events cancelled but still occupying bucket or heap
	// slots (reclaimed lazily on flush/pop or by compaction).
	cancelled int

	// Interrupt polling (SetInterrupt): intrFn is consulted every intrEvery
	// fired events; returning true stops the run like Stop. Event-count
	// based rather than sim-time based so a zero-delay livelock — events
	// firing forever at a frozen clock — still gets interrupted.
	intrFn    func() bool
	intrEvery uint64
	intrCount uint64

	// w is the timer wheel: future events park in its buckets and are
	// flushed into queue a tick at a time, so the heap stays cache-resident
	// no matter how many events are pending.
	w *wheel

	// all registers every event record ever allocated. Records are pooled
	// and never released, so the registry both keeps bucket-resident events
	// reachable and lets buckets refer to them by uint32 index instead of by
	// pointer.
	all []*event

	// lines are the engine's delay lines (line.go); bit i of lineMask is set
	// while lines[i] holds events, and heads[i] is then its head's key.
	// lineFired counts the events dispatched off them. heapOnly marks the
	// reference engine, whose lines spill.
	lines     []delayLine
	lineMask  uint64
	heads     [maxLines]lineKey
	lineFired uint64
	heapOnly  bool
}

// NewEngine returns an engine whose clock starts at zero and whose master
// random source is seeded with seed, on DefaultWheelGranularity ticks.
func NewEngine(seed int64) *Engine { return NewEngineWheel(seed, 0) }

// NewEngineWheel is NewEngine with an explicit wheel tick width (rounded
// down to a power of two of picoseconds): size it from the fabric with
// WheelGranularityFor, or pass <= 0 for DefaultWheelGranularity. The tick
// width never changes the dispatch order, only where pending events wait.
func NewEngineWheel(seed int64, granularity Duration) *Engine {
	return &Engine{rng: NewSource(seed), w: newWheel(granularity)}
}

// NewHeapEngine returns the reference scheduler the production engine is
// held to: one wheel tick spans any run, so every event is dispatched from
// one exact heap, and its delay lines spill, scheduling through ScheduleArg
// and ScheduleArrivalAt. It dispatches exactly as NewEngineWheel does at any
// tick width, only slower; the differential tests compare the two.
func NewHeapEngine(seed int64) *Engine {
	e := NewEngineWheel(seed, 1<<62)
	e.heapOnly = true
	return e
}

// WheelGranularity returns the wheel tick width.
func (e *Engine) WheelGranularity() Duration { return e.w.granularity() }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events executed so far (cancelled events are
// not counted).
func (e *Engine) Events() uint64 { return e.fired }

// Pending returns the number of events still queued — heap, wheel buckets
// and delay lines combined — including cancelled events whose slots have
// not been reclaimed yet (compaction bounds those at roughly the live count
// plus a constant).
func (e *Engine) Pending() int { return e.slots() + e.linePending() }

// slots counts the heap and bucket slots, the ones a cancelled event can
// occupy.
func (e *Engine) slots() int { return len(e.queue) + e.w.count }

// NextEventTime returns the timestamp of the earliest live event still
// queued, or (0, false) when no live event is pending. Cancelled records
// parked at the head of the heap (lazy cancellation) are drained and
// recycled on the way, so the answer is exact even right after a burst of
// cancels or a compaction. The clock does not move and no callback runs —
// this is the conservative-time peek the psim epoch conductor uses to
// compute each barrier window, and it doubles as an idle probe for
// harnesses ("is anything left before the horizon?").
func (e *Engine) NextEventTime() (Time, bool) {
	li, lh := e.lineHead()
	for {
		for len(e.queue) > 0 {
			head := e.queue[0]
			if head.live() {
				if li >= 0 && lh.at < head.at {
					return lh.at, true
				}
				return head.at, true
			}
			// Dead head: reclaim it exactly like Run would have.
			e.pop()
			e.recycleDead(head)
		}
		// Heap dry: unless a line head precedes every bucket, flush the
		// wheel's next bucket into the heap. The flush only re-homes events
		// (order is restored by the heap), so peeking stays observer-free.
		if (li < 0 || !e.w.before(lh.at)) && e.w.advance(e) {
			continue
		}
		if li >= 0 {
			return lh.at, true
		}
		return 0, false
	}
}

// recycleDead reclaims a cancelled event record discovered outside the
// normal dispatch path (heap-head drain, wheel flush): uncount it, clear
// it, invalidate stale EventRefs, and return it to the free list.
func (e *Engine) recycleDead(ev *event) {
	if e.cancelled > 0 {
		e.cancelled--
	}
	ev.clear()
	ev.gen++
	e.free = append(e.free, ev)
}

// Cancelled returns the number of cancelled events still occupying bucket or
// heap slots (observability for the compaction policy).
func (e *Engine) Cancelled() int { return e.cancelled }

// Rand returns a named deterministic random stream derived from the engine
// seed. Equal names yield identical streams across runs.
func (e *Engine) Rand(name string) *Rand { return e.rng.Stream(name) }

// Schedule runs fn after delay. Scheduling into the past panics; a zero
// delay fires after all events already scheduled for the current instant.
func (e *Engine) Schedule(delay Duration, fn Callback) EventRef {
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at the absolute time at.
func (e *Engine) ScheduleAt(at Time, fn Callback) EventRef {
	if fn == nil {
		panic("sim: scheduling a nil callback")
	}
	ev := e.alloc(at)
	ev.fn = fn
	e.w.insert(e, ev)
	return EventRef{eng: e, ev: ev, gen: ev.gen}
}

// ScheduleArg runs fn(arg) after delay without allocating a closure: fn is
// typically pre-bound once per component (a port's transmit-done handler)
// and arg carries the per-event state (the packet in flight). Determinism is
// identical to Schedule — the event takes the next (at, seq) slot and the
// returned EventRef cancels/compacts exactly like a closure event.
func (e *Engine) ScheduleArg(delay Duration, fn ArgCallback, arg any) EventRef {
	return e.ScheduleArgAt(e.now+delay, fn, arg)
}

// ScheduleArgAt runs fn(arg) at the absolute time at.
func (e *Engine) ScheduleArgAt(at Time, fn ArgCallback, arg any) EventRef {
	if fn == nil {
		panic("sim: scheduling a nil callback")
	}
	ev := e.alloc(at)
	ev.afn = fn
	ev.arg = arg
	e.w.insert(e, ev)
	return EventRef{eng: e, ev: ev, gen: ev.gen}
}

// ArrivalKeyBit is set in every explicit ordering key passed to
// ScheduleArrivalAt. Plain Schedule/ScheduleArg events carry the engine's
// monotonically increasing sequence counter as their tie-break key, which
// stays far below 2^63 in any feasible run; keyed arrivals live in the
// upper half of the key space so that, at an equal timestamp, a frame
// arrival always fires after every locally scheduled event of that instant
// — in both the sequential and the sharded engine, which is what makes the
// tie-break mode-invariant.
const ArrivalKeyBit = uint64(1) << 63

// ScheduleArrivalAt runs fn(arg) at the absolute time at, ordered among
// same-timestamp events by the caller-supplied key instead of the engine's
// scheduling sequence. The caller must guarantee keys are unique per
// (at, key) pair — netdev derives them as
// ArrivalKeyBit | portKey<<43 | txSeq, unique by construction. This is the
// primitive that makes cross-shard packet delivery deterministic: the key
// depends only on the wiring (which port sent the frame, and its how-manyth
// transmission it was), never on which engine scheduled the arrival or
// when, so the sequential engine and any shard count dispatch equal-time
// events in exactly the same order.
func (e *Engine) ScheduleArrivalAt(at Time, fn ArgCallback, arg any, key uint64) EventRef {
	if fn == nil {
		panic("sim: scheduling a nil callback")
	}
	if key&ArrivalKeyBit == 0 {
		panic("sim: arrival key missing ArrivalKeyBit")
	}
	ev := e.alloc(at)
	ev.seq = key // override the stamped sequence with the wiring-derived key
	ev.afn = fn
	ev.arg = arg
	e.w.insert(e, ev)
	return EventRef{eng: e, ev: ev, gen: ev.gen}
}

// alloc pops a recycled event record (or heap-allocates one) and stamps the
// (at, seq) ordering key. Recycle points clear fn/afn/arg (see event.clear),
// and alloc re-clears defensively: a record that somehow carried a stale arg
// out of the free list must never leak it into a new incarnation.
func (e *Engine) alloc(at Time) *event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: at=%v now=%v", at, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.clear()
	} else {
		ev = &event{idx: uint32(len(e.all))}
		e.all = append(e.all, ev)
	}
	ev.at = at
	ev.seq = e.seq
	e.seq++
	return ev
}

// Stop makes Run return after the current event completes. Further Run calls
// resume from the stop point.
func (e *Engine) Stop() { e.stopped = true }

// SetInterrupt installs a poll the run loop consults every `every` fired
// events: when fn returns true, the current Run/RunAll stops exactly like
// Stop (resumable). fn(nil) disarms. The poll is counted in executed events,
// not simulated time, so it fires even inside a zero-delay event livelock
// where the clock never advances — the property the per-point wall-clock
// timeout needs. fn runs on the engine goroutine but MUST also be safe to
// call concurrently from other goroutines when the engine is driven by the
// sharded conductor (ctx.Err-style checks qualify). The poll never runs
// simulation code and draws no RNG, so an interrupt that does not fire is
// observer-free: results are byte-identical with or without it armed.
func (e *Engine) SetInterrupt(every uint64, fn func() bool) {
	if fn != nil && every == 0 {
		panic("sim: interrupt poll period must be positive")
	}
	e.intrFn = fn
	e.intrEvery = every
	e.intrCount = 0
}

// Run executes events in timestamp order until the queue empties, the clock
// would pass until, or Stop is called. It returns the simulated time at exit:
// until when the horizon was reached (even if no event fired there), and
// never less than Now() — a horizon the clock already passed executes
// nothing and leaves the clock where it is.
func (e *Engine) Run(until Time) Time {
	e.run(until)
	if !e.stopped && e.now < until {
		e.now = until
	}
	return e.now
}

// RunAll executes events until the queue is empty or Stop is called, with no
// time horizon. It returns the time of the last event.
func (e *Engine) RunAll() Time {
	e.run(math.MaxInt64) // no event can be scheduled past it
	return e.now
}

// run is the dispatch loop behind Run and RunAll: it fires events with
// at <= until in (at, seq) order until none is left, the next one lies past
// until, or Stop (or the interrupt poll) sets stopped.
func (e *Engine) run(until Time) {
	e.stopped = false
	for !e.stopped {
		li, lh := e.lineHead()
		if len(e.queue) == 0 && e.w.count > 0 && (li < 0 || !e.w.before(lh.at)) {
			// Heap dry and the wheel may hold the next event: pull its next
			// bucket in. All wheel events sit at strictly later ticks than
			// anything the heap held, so the flushed bucket's head is the
			// least of the wheel and heap.
			e.w.advance(e)
		}
		if len(e.queue) > 0 && (li < 0 || heapFirst(e.queue[0], lh)) {
			next := e.queue[0]
			if next.at > until {
				return
			}
			e.pop()
			e.dispatch(next)
		} else if li >= 0 {
			if lh.at > until {
				return
			}
			e.dispatchLine(li)
		} else {
			return
		}
		if e.intrFn != nil {
			if e.intrCount++; e.intrCount >= e.intrEvery {
				e.intrCount = 0
				if e.intrFn() {
					e.stopped = true
				}
			}
		}
	}
}

// dispatch fires (or skips, when cancelled) one popped event and recycles it.
func (e *Engine) dispatch(ev *event) {
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	if fn != nil || afn != nil {
		e.now = ev.at
		e.fired++
	} else if e.cancelled > 0 {
		e.cancelled-- // a cancelled slot drained the normal way
	}
	// Clear before recycling AND before running the body: the callback may
	// recycle its packet arg into a pool and hand it to a brand-new event; a
	// stale ev.arg on the free list would alias that new owner (bugfix —
	// pooled-event reuse must never leak a reference to a pooled packet).
	ev.clear()
	ev.gen++
	e.free = append(e.free, ev)
	if fn != nil {
		fn()
	} else if afn != nil {
		afn(arg)
	}
}

// less orders events by (time, sequence).
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts into the 4-ary min-heap (the wheel's near-heap: the current
// tick or two).
func (e *Engine) push(ev *event) {
	q := append(e.queue, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !less(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	e.queue = q
}

// pop removes the minimum element (e.queue[0]).
func (e *Engine) pop() {
	q := e.queue
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	e.queue = q[:n]
	if n == 0 {
		return
	}
	e.siftDown(0)
}

// siftDown restores the heap property below index i.
func (e *Engine) siftDown(i int) {
	q := e.queue
	n := len(q)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if less(q[c], q[min]) {
				min = c
			}
		}
		if !less(q[min], q[i]) {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
}

// compactThreshold is the minimum number of cancelled slots before
// compaction is even considered; below it lazy reclamation on flush and pop
// is cheaper than sweeping the buckets and rebuilding the heap.
const compactThreshold = 64

// maybeCompact drops dead entries from buckets and heap once cancelled slots
// outnumber live ones (and there are enough of them to be worth the O(n)
// pass). This bounds Pending() at ~2× the live event count for rearm-heavy
// users that cancel far-future timers much faster than those timers pop.
func (e *Engine) maybeCompact() {
	if e.cancelled < compactThreshold || 2*e.cancelled < e.slots() {
		return
	}
	e.compact()
}

// compact removes cancelled entries from every bucket and from the heap, and
// re-heapifies. Live events keep firing in exactly the same order: dispatch
// order is the total order (at, seq), which is independent of heap layout
// and bucket residency.
func (e *Engine) compact() {
	e.w.sweep(e)
	old := e.queue
	q := old[:0]
	for _, ev := range old {
		if !ev.live() {
			ev.clear() // defensive: Cancel already dropped fn/afn/arg
			ev.gen++   // invalidate stale EventRefs before recycling
			e.free = append(e.free, ev)
			continue
		}
		q = append(q, ev)
	}
	for i := len(q); i < len(old); i++ {
		old[i] = nil
	}
	e.queue = q
	e.cancelled = 0
	for i := (len(q) - 2) / 4; i >= 0; i-- {
		e.siftDown(i)
	}
}
