package sim

import "testing"

// The engine once had a timer-wheel backend. Its constructor survives as the
// deprecated NewEngineWheel, which the benchmark ledger still calls; these
// tests hold that shim to the reference heap, whatever tick width is passed.

// wheelTestGranularities are tick widths a caller might still pass: 1 ps, a
// fabric-sized tick, a microsecond, and a tick coarser than most runs.
var wheelTestGranularities = []Duration{1, 8 * Nanosecond, Microsecond, Millisecond}

// TestWheelByteIdenticalToHeap: for the same workload, an engine from
// NewEngineWheel dispatches exactly the same events at exactly the same times
// in exactly the same order as the reference heap, at every tick width.
func TestWheelByteIdenticalToHeap(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		want := driveRandomWorkload(NewHeapEngine(99), seed)
		for _, g := range wheelTestGranularities {
			e := NewEngineWheel(99, g)
			got := driveRandomWorkload(e, seed)
			if len(got) != len(want) {
				t.Fatalf("seed %d gran %v: dispatched %d events, heap dispatched %d",
					seed, g, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d gran %v: dispatch %d = %+v, heap dispatched %+v",
						seed, g, i, got[i], want[i])
				}
			}
			checkFreeListClean(t, e, "after wheel-constructor workload")
			if n := e.Pending(); n != 0 {
				t.Fatalf("seed %d gran %v: %d events pending after RunAll", seed, g, n)
			}
		}
	}
}

// TestWheelCountersMatchHeap checks the observable accounting (events fired,
// final clock) agrees between NewEngineWheel and the reference heap.
func TestWheelCountersMatchHeap(t *testing.T) {
	h := NewHeapEngine(3)
	driveRandomWorkload(h, 11)
	w := NewEngineWheel(3, WheelGranularityFor(Microsecond))
	driveRandomWorkload(w, 11)
	if h.Events() != w.Events() {
		t.Fatalf("fired: heap %d, wheel constructor %d", h.Events(), w.Events())
	}
	if h.Now() != w.Now() {
		t.Fatalf("final clock: heap %v, wheel constructor %v", h.Now(), w.Now())
	}
}

// TestWheelRunHorizon checks Run(until) parks exactly at the horizon with
// events still pending, on the heap and on a delay line, and resumes across
// calls.
func TestWheelRunHorizon(t *testing.T) {
	e := NewEngineWheel(2, 0)
	var fired []Time
	note := func() { fired = append(fired, e.Now()) }
	for _, d := range []Duration{Microsecond, Millisecond, Second} {
		e.Schedule(d, note)
	}
	line := e.DelayLine(40 * Microsecond)
	e.Schedule(20*Microsecond, func() {
		note()
		e.ScheduleLine(line, func(any) { note() }, nil)
	})
	if now := e.Run(Time(50 * Microsecond)); now != Time(50*Microsecond) {
		t.Fatalf("Run returned %v, want horizon", now)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events before 50µs, want 2", len(fired))
	}
	if n := e.Pending(); n != 3 {
		t.Fatalf("Pending() = %d at the horizon, want 3 (one on the line)", n)
	}
	e.RunAll()
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
	if fired[2] != Time(60*Microsecond) {
		t.Fatalf("line event fired at %v, want 60µs", fired[2])
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after RunAll", e.Pending())
	}
}
