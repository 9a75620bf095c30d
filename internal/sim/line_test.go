package sim

import (
	"fmt"
	"testing"
)

// TestDelayLineLookup: equal delays share a line, a negative delay is
// refused, and the reference engine's lines dispatch nothing themselves.
func TestDelayLineLookup(t *testing.T) {
	e := NewEngine(1)
	a, b := e.DelayLine(Microsecond), e.DelayLine(0)
	if a == b || e.DelayLine(Microsecond) != a || e.DelayLine(0) != b {
		t.Fatalf("lines %d, %d; looked up again: %d, %d", a, b, e.DelayLine(Microsecond), e.DelayLine(0))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("DelayLine accepted a negative delay")
			}
		}()
		e.DelayLine(-1)
	}()

	// Past maxLines a delay still gets a line; it spills onto the wheel.
	for d := Duration(2); len(e.lines) <= maxLines; d++ {
		e.DelayLine(d)
	}
	var order []int
	e.ScheduleLine(Line(maxLines), func(any) { order = append(order, 2) }, nil)
	e.ScheduleLine(e.DelayLine(2), func(any) { order = append(order, 1) }, nil)
	e.RunAll()
	if fmt.Sprint(order) != "[1 2]" || e.Events() != 2 || e.LineEvents() != 1 {
		t.Fatalf("fired %v, %d events, %d off lines; want [1 2], 2, 1", order, e.Events(), e.LineEvents())
	}

	ref := NewHeapEngine(1)
	l := ref.DelayLine(Microsecond)
	ref.ScheduleLine(l, func(any) {}, nil)
	ref.ScheduleLineKeyed(l, func(any) {}, nil, ArrivalKeyBit|1)
	if ref.Pending() != 2 {
		t.Fatalf("reference engine: Pending() = %d, want 2", ref.Pending())
	}
	ref.RunAll()
	if ref.Events() != 2 || ref.LineEvents() != 0 {
		t.Fatalf("reference engine fired %d events, %d off lines; want 2 and 0", ref.Events(), ref.LineEvents())
	}
}

// TestLineEventsAlonePending: with nothing in the heap or the wheel, the
// events waiting on lines are what NextEventTime, Pending and Run(until)
// report, and the peek never lies before the clock.
func TestLineEventsAlonePending(t *testing.T) {
	e := NewEngine(1)
	us, zero := e.DelayLine(Microsecond), e.DelayLine(0)
	var fired []Time
	note := func(any) { fired = append(fired, e.Now()) }
	e.ScheduleLineKeyed(us, note, nil, ArrivalKeyBit|1)
	e.ScheduleLine(us, note, nil)
	e.ScheduleLine(zero, note, nil)
	if n := e.Pending(); n != 3 {
		t.Fatalf("Pending() = %d, want 3", n)
	}
	if at, ok := e.NextEventTime(); !ok || at != 0 {
		t.Fatalf("peek = (%v, %v), want (0, true)", at, ok)
	}
	if now := e.Run(0); now != 0 || len(fired) != 1 {
		t.Fatalf("Run(0) ended at %v having fired %v, want the zero-delay event only", now, fired)
	}
	if now := e.Run(Time(500 * Nanosecond)); now != Time(500*Nanosecond) || len(fired) != 1 || e.Pending() != 2 {
		t.Fatalf("Run(500ns) ended at %v with %v fired and %d pending, want 1 fired and 2 pending", now, fired, e.Pending())
	}
	if at, ok := e.NextEventTime(); !ok || at != Time(Microsecond) {
		t.Fatalf("peek = (%v, %v), want (1µs, true)", at, ok)
	}
	e.ScheduleLine(us, note, nil) // from 500 ns: lands at 1.5 µs
	e.Schedule(Microsecond, func() { fired = append(fired, -e.Now()) })
	e.RunAll()
	want := []Time{0, Time(Microsecond), Time(Microsecond), Time(1500 * Nanosecond), -Time(1500 * Nanosecond)}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if e.Events() != 5 || e.LineEvents() != 4 || e.Pending() != 0 {
		t.Fatalf("%d events, %d off lines, %d pending; want 5, 4, 0", e.Events(), e.LineEvents(), e.Pending())
	}
	if at, ok := e.NextEventTime(); ok {
		t.Fatalf("drained engine reported an event at %v", at)
	}
}

// orderDriver replays FuzzEngineOrder's operations on one engine and logs
// every dispatch and peek.
type orderDriver struct {
	e     *Engine
	lines []Line
	refs  []EventRef
	log   []record
	id    int
	fire  ArgCallback
}

// orderDelays are the delays the fuzzer picks from: ties with the lines
// (multiples of 40 ns), sub-tick, and every wheel level.
var orderDelays = [8]Duration{0, 1, 40 * Nanosecond, 80 * Nanosecond, 120 * Nanosecond, 3 * Microsecond, 700 * Microsecond, 40 * Millisecond}

func newOrderDriver(e *Engine) *orderDriver {
	d := &orderDriver{e: e}
	for _, delay := range orderDelays[:5] {
		d.lines = append(d.lines, e.DelayLine(delay))
	}
	d.fire = func(arg any) {
		id := arg.(int)
		d.log = append(d.log, record{id, d.e.Now()})
		// Every third event sets off one more on the zero-delay line, a
		// bounded storm at a frozen clock.
		if id%3 == 0 && d.id < 4096 {
			d.id++
			d.e.ScheduleLine(d.lines[0], d.fire, d.id)
		}
	}
	return d
}

// step applies operation op with argument a.
func (d *orderDriver) step(op, a byte) {
	delay := orderDelays[a%8] * Duration(1+a>>6)
	switch op % 7 {
	case 0:
		d.id++
		d.refs = append(d.refs, d.e.ScheduleArg(delay, d.fire, d.id))
	case 1:
		d.id++
		d.e.ScheduleArrivalAt(d.e.Now()+delay, d.fire, d.id, ArrivalKeyBit|uint64(a)<<32|uint64(d.id))
	case 2:
		d.id++
		d.e.ScheduleLine(d.lines[int(a)%len(d.lines)], d.fire, d.id)
	case 3:
		d.id++
		// The high bits of the key come from the input, so same-instant
		// arrivals reach a line in any key order.
		d.e.ScheduleLineKeyed(d.lines[int(a)%len(d.lines)], d.fire, d.id, ArrivalKeyBit|uint64(a>>3)<<32|uint64(d.id))
	case 4:
		if len(d.refs) > 0 {
			d.refs[int(a)%len(d.refs)].Cancel()
		}
	case 5:
		d.e.Run(d.e.Now() + delay)
		d.log = append(d.log, record{-1, d.e.Now()})
	case 6:
		at, ok := d.e.NextEventTime()
		if ok && at < d.e.Now() {
			panic(fmt.Sprintf("NextEventTime %v before now %v", at, d.e.Now()))
		}
		if !ok {
			at = -1
		}
		d.log = append(d.log, record{-2, at})
	}
}

// FuzzEngineOrder decodes a byte string into schedule, keyed-arrival, line,
// keyed-line, cancel, Run(until) and NextEventTime operations (two bytes
// each; the first byte picks the tick width) and requires the production
// engine and the line-free reference heap to log the same dispatches and
// peeks after every operation, and the same tail after RunAll.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 2, 1, 3, 9, 2, 2, 3, 200, 6, 0, 5, 4})
	f.Add([]byte{1, 3, 0, 3, 255, 2, 0, 0, 2, 4, 0, 6, 0, 5, 5, 3, 8, 3, 16, 5, 130})
	f.Add([]byte{2, 0, 7, 0, 6, 4, 1, 2, 3, 2, 4, 6, 0, 5, 71, 1, 2, 3, 3, 5, 7})
	f.Add([]byte{3, 2, 0, 2, 0, 3, 7, 3, 15, 1, 0, 6, 0, 5, 0, 6, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		prod := newOrderDriver(NewEngineWheel(1, wheelTestGranularities[int(in[0])%len(wheelTestGranularities)]))
		ref := newOrderDriver(NewHeapEngine(1))
		for i := 1; i+1 < len(in); i += 2 {
			prod.step(in[i], in[i+1])
			ref.step(in[i], in[i+1])
			if len(prod.log) != len(ref.log) || prod.e.Now() != ref.e.Now() ||
				(len(prod.log) > 0 && prod.log[len(prod.log)-1] != ref.log[len(ref.log)-1]) {
				t.Fatalf("operation %d (%d, %d): production logged %v at %v, reference %v at %v",
					i/2, in[i], in[i+1], prod.log, prod.e.Now(), ref.log, ref.e.Now())
			}
		}
		prod.e.RunAll()
		ref.e.RunAll()
		if fmt.Sprint(prod.log) != fmt.Sprint(ref.log) || prod.e.Events() != ref.e.Events() {
			t.Fatalf("after RunAll: production %v (%d events), reference %v (%d events)",
				prod.log, prod.e.Events(), ref.log, ref.e.Events())
		}
	})
}
