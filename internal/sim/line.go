package sim

import (
	"fmt"
	"math/bits"
)

// This file implements Engine's delay lines.
//
// Most of a packet simulation's events are scheduled a fixed delay from
// "now": a frame finishes serializing txTime after it starts, and arrives
// at a same-engine peer one propagation delay after that. Events scheduled
// with one fixed delay are produced in timestamp order, because the clock
// never goes back, so they need a FIFO, not a priority queue. A delay line
// is that FIFO: a power-of-two ring of value entries {at, key, fn, arg},
// with no pooled record and no heap sift. The run loop dispatches the least
// of the heap head and the heads of the non-empty lines (a bitmask names
// them), so the (at, seq | arrival-key) total order, and with it every
// result byte, is exactly the one heap's.
//
// Keys: a plain line event takes the engine's next sequence number, exactly
// as ScheduleArg would; a keyed one takes the caller's arrival key (and
// consumes a sequence number, as ScheduleArrivalAt does). Two pushes at the
// same instant can then arrive out of key order — a keyed arrival before a
// plain event, or two arrivals with descending keys — so a push walks back
// from the tail past the entries of its instant that order after it. The
// walk never crosses an earlier instant, so it is one comparison unless
// instants tie.
//
// Line events cannot be cancelled: their callers discard the refs.

// Line names one of an engine's delay lines (see Engine.DelayLine). It is an
// int32 so a component can keep several for the price of one pointer.
type Line int32

// maxLines is how many lines an engine dispatches from: the non-empty ones
// are one uint64 bitmask. Further delays get lines that spill onto the
// heap (a fabric has a handful of link classes, so this never binds).
const maxLines = 64

// lineKey is a line event's place in the (at, seq | arrival-key) order.
type lineKey struct {
	at  Time
	key uint64
}

func (a lineKey) before(b lineKey) bool { return a.at < b.at || (a.at == b.at && a.key < b.key) }

// lineEntry is one scheduled line event.
type lineEntry struct {
	lineKey
	fn  ArgCallback
	arg any
}

// delayLine is one fixed delay's FIFO: ring[head], ring[head+1], … (mod
// len(ring)) hold n entries in (at, key) order.
type delayLine struct {
	d Duration
	// spill routes the line's events through ScheduleArg/ScheduleArrivalAt
	// instead of the ring: on the reference engine (NewHeapEngine), and for
	// lines past maxLines.
	spill bool
	ring  []lineEntry
	head  int
	n     int
}

// lineRingMin is a ring's first size; it doubles when full and never shrinks,
// so it retains the line's peak in-flight count.
const lineRingMin = 16

// DelayLine returns the engine's line for delay d, creating it on first use;
// equal delays share one line. Callers look their lines up once, at wiring
// time, and schedule on them with ScheduleLine and ScheduleLineKeyed.
func (e *Engine) DelayLine(d Duration) Line {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative line delay %v", d))
	}
	for i := range e.lines {
		if e.lines[i].d == d {
			return Line(i)
		}
	}
	e.lines = append(e.lines, delayLine{d: d, spill: e.heapOnly || len(e.lines) >= maxLines})
	return Line(len(e.lines) - 1)
}

// ScheduleLine runs fn(arg) one line delay from now: exactly the event
// ScheduleArg(delay, fn, arg) would schedule, at the same (at, seq) slot,
// without an EventRef.
func (e *Engine) ScheduleLine(l Line, fn ArgCallback, arg any) {
	ln := &e.lines[l]
	if ln.spill {
		e.ScheduleArg(ln.d, fn, arg)
		return
	}
	if fn == nil {
		panic("sim: scheduling a nil callback")
	}
	e.linePush(l, lineKey{e.now + ln.d, e.seq}, fn, arg)
	e.seq++
}

// ScheduleLineKeyed runs fn(arg) one line delay from now, ordered by key
// among same-instant events: exactly the event ScheduleArrivalAt(now+delay,
// fn, arg, key) would schedule, without an EventRef.
func (e *Engine) ScheduleLineKeyed(l Line, fn ArgCallback, arg any, key uint64) {
	ln := &e.lines[l]
	if ln.spill {
		e.ScheduleArrivalAt(e.now+ln.d, fn, arg, key)
		return
	}
	if fn == nil {
		panic("sim: scheduling a nil callback")
	}
	if key&ArrivalKeyBit == 0 {
		panic("sim: arrival key missing ArrivalKeyBit")
	}
	e.linePush(l, lineKey{e.now + ln.d, key}, fn, arg)
	e.seq++
}

// LineEvents returns how many of the executed events (Events) were
// dispatched off delay lines.
func (e *Engine) LineEvents() uint64 { return e.lineFired }

// linePush files event k in line l: at the tail, or walked back past the
// entries of its instant that order after it.
func (e *Engine) linePush(l Line, k lineKey, fn ArgCallback, arg any) {
	ln := &e.lines[l]
	if ln.n == len(ln.ring) {
		ln.grow()
	}
	mask := len(ln.ring) - 1
	i := ln.head + ln.n
	for i > ln.head {
		prev := &ln.ring[(i-1)&mask]
		if !k.before(prev.lineKey) {
			break
		}
		ln.ring[i&mask] = *prev
		i--
	}
	// Field by field: copying a whole entry built on the stack moves it in
	// 16-byte loads that stall on the 8-byte stores that wrote it.
	s := &ln.ring[i&mask]
	s.at, s.key, s.fn, s.arg = k.at, k.key, fn, arg
	ln.n++
	if i == ln.head {
		e.heads[l&(maxLines-1)] = k
	}
	e.lineMask |= 1 << uint(l)
}

// grow doubles the ring, unrolling it so the head is at index 0.
func (ln *delayLine) grow() {
	ring := make([]lineEntry, max(lineRingMin, 2*len(ln.ring)))
	for i := 0; i < ln.n; i++ {
		ring[i] = ln.ring[(ln.head+i)&(len(ln.ring)-1)]
	}
	ln.ring, ln.head = ring, 0
}

// lineHead returns the non-empty line whose head orders first and that
// head's key, or -1 when every line is empty.
func (e *Engine) lineHead() (int, lineKey) {
	best, h := -1, lineKey{}
	for m := e.lineMask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m) & (maxLines - 1)
		if c := e.heads[i]; best < 0 || c.before(h) {
			best, h = i, c
		}
	}
	return best, h
}

// dispatchLine pops line i's head and runs it. The slot is zeroed before the
// body runs, so the ring never keeps a dispatched arg (a pooled packet)
// reachable.
func (e *Engine) dispatchLine(i int) {
	ln := &e.lines[i]
	slot := &ln.ring[ln.head]
	en := *slot
	*slot = lineEntry{}
	ln.head = (ln.head + 1) & (len(ln.ring) - 1)
	if ln.n--; ln.n == 0 {
		e.lineMask &^= 1 << uint(i)
	} else {
		e.heads[i&(maxLines-1)] = ln.ring[ln.head].lineKey
	}
	e.now = en.at
	e.fired++
	e.lineFired++
	en.fn(en.arg)
}

// linePending counts the events waiting on lines.
func (e *Engine) linePending() int {
	n := 0
	for m := e.lineMask; m != 0; m &= m - 1 {
		n += e.lines[bits.TrailingZeros64(m)].n
	}
	return n
}

// heapFirst reports whether heap event ev orders before line head h.
func heapFirst(ev *event, h lineKey) bool {
	return ev.at < h.at || (ev.at == h.at && ev.seq < h.key)
}
