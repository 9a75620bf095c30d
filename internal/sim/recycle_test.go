package sim

import "testing"

// checkFreeListClean asserts the pooled-event recycle invariant: every record
// on the engine's free list must carry no callback and no argument, so a
// recycled event can never keep a stale reference — typically a pooled
// packet — reachable (the satellite bugfix this file regresses).
func checkFreeListClean(t *testing.T, e *Engine, when string) {
	t.Helper()
	for i, ev := range e.free {
		if ev.fn != nil || ev.afn != nil || ev.arg != nil {
			t.Fatalf("%s: free list record %d carries stale state: fn=%v afn=%v arg=%v",
				when, i, ev.fn != nil, ev.afn != nil, ev.arg)
		}
	}
}

// TestScheduleArgDeliversInOrder pins the closure-free scheduling contract:
// ScheduleArg events interleave with plain Schedule events in strict
// (time, sequence) order and each receives exactly the argument it was
// scheduled with.
func TestScheduleArgDeliversInOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	push := func(arg any) { got = append(got, arg.(int)) }
	e.ScheduleArg(20, push, 2)
	e.Schedule(10, func() { got = append(got, 1) })
	e.ScheduleArg(10, push, 10) // same instant as the closure above: FIFO by seq
	e.ScheduleArg(30, push, 3)
	e.RunAll()
	want := []int{1, 10, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestRecycledEventsDropArgsOnDispatch: after an arg-carrying event fires,
// its record goes to the free list with fn/afn/arg cleared — BEFORE the body
// runs, so a callback that recycles its packet into a pool and immediately
// schedules it onto a new event cannot alias the old record.
func TestRecycledEventsDropArgsOnDispatch(t *testing.T) {
	e := NewEngine(1)
	type payload struct{ n int }
	fired := 0
	var fn ArgCallback
	fn = func(arg any) {
		fired++
		// Mid-callback, the record that carried us must already be clean on
		// the free list (cleared before dispatch ran the body).
		checkFreeListClean(t, e, "mid-callback")
		if fired < 3 {
			e.ScheduleArg(5, fn, &payload{n: fired})
		}
	}
	e.ScheduleArg(1, fn, &payload{n: 0})
	e.RunAll()
	if fired != 3 {
		t.Fatalf("fired %d events, want 3", fired)
	}
	checkFreeListClean(t, e, "after run")
}

// TestCancelledArgEventsDropArgs: Cancel must clear the stored argument
// immediately (not at compaction or dispatch), so a cancelled retransmit
// timer cannot pin a recycled packet.
func TestCancelledArgEventsDropArgs(t *testing.T) {
	e := NewEngine(1)
	arg := &struct{ x int }{x: 7}
	ref := e.ScheduleArg(10, func(any) { t.Fatal("cancelled event fired") }, arg)
	if !ref.Cancel() {
		t.Fatal("Cancel returned false for a live event")
	}
	for _, ev := range e.all {
		if ev.arg != nil || ev.fn != nil || ev.afn != nil {
			t.Fatal("cancelled event still holds its callback or argument")
		}
	}
	e.RunAll()
	checkFreeListClean(t, e, "after draining cancelled event")
}

// TestCompactionRecyclesCleanRecords drives enough cancellations to trigger
// heap compaction and asserts the records compaction recycles reach the free
// list clean, with generations bumped so stale EventRefs cannot cancel a new
// incarnation.
func TestCompactionRecyclesCleanRecords(t *testing.T) {
	e := NewEngine(1)
	// Keep one live far-future event so the queue never empties.
	e.Schedule(1_000_000, func() {})
	var refs []EventRef
	for i := 0; i < 3*compactThreshold; i++ {
		refs = append(refs, e.ScheduleArg(500_000, func(any) {
			t.Fatal("cancelled event fired")
		}, &struct{ i int }{i}))
	}
	for _, r := range refs {
		if !r.Cancel() {
			t.Fatal("Cancel failed")
		}
	}
	if len(e.free) == 0 {
		t.Fatal("compaction never recycled any records")
	}
	checkFreeListClean(t, e, "after compaction")
	// A stale ref into a recycled record must be a no-op even after the
	// record is reissued.
	e.ScheduleArg(600_000, func(any) {}, nil)
	if refs[0].Cancel() {
		t.Fatal("stale EventRef cancelled a recycled event")
	}
	e.RunAll()
	checkFreeListClean(t, e, "after full drain")
}

// TestAllocReissuesRecycledRecordsZeroed: the Get side of the event pool — a
// record popped off the free list starts from a clean slate even if a bug
// elsewhere left state on it.
func TestAllocReissuesRecycledRecordsZeroed(t *testing.T) {
	e := NewEngine(1)
	e.ScheduleArg(1, func(any) {}, "payload")
	e.RunAll()
	if len(e.free) != 1 {
		t.Fatalf("free list has %d records, want 1", len(e.free))
	}
	// Simulate a corrupted recycle point leaving a stale arg behind.
	e.free[0].arg = "stale"
	ev := e.alloc(e.Now() + 1)
	if ev.arg != nil || ev.fn != nil || ev.afn != nil {
		t.Fatal("alloc reissued a record without re-clearing it")
	}
	// Hand the record back via a normal schedule/dispatch cycle.
	ev.fn = func() {}
	e.push(ev)
	e.RunAll()
	checkFreeListClean(t, e, "after defensive realloc")
}
