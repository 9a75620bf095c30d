package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInOrder(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, d := range []Duration{5 * Microsecond, Microsecond, 3 * Microsecond} {
		d := d
		e.Schedule(d, func() { got = append(got, e.Now()) })
	}
	e.RunAll()

	want := []Time{Microsecond, 3 * Microsecond, 5 * Microsecond}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(Microsecond, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events fired out of scheduling order: pos %d got %d", i, v)
		}
	}
}

func TestEngineRunHorizon(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.Schedule(Millisecond, func() { fired++ })
	e.Schedule(3*Millisecond, func() { fired++ })

	end := e.Run(2 * Millisecond)
	if end != 2*Millisecond {
		t.Errorf("Run returned %v, want clock parked at horizon 2ms", end)
	}
	if fired != 1 {
		t.Errorf("fired %d events before horizon, want 1", fired)
	}
	if e.Pending() != 1 {
		t.Errorf("pending %d, want 1", e.Pending())
	}

	e.RunAll()
	if fired != 2 || e.Pending() != 0 {
		t.Errorf("fired %d with %d pending after RunAll, want 2 and 0", fired, e.Pending())
	}
}

func TestEngineZeroDelayFiresAfterCurrentInstant(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Schedule(Microsecond, func() {
		e.Schedule(0, func() { order = append(order, "child") })
		order = append(order, "parent")
	})
	e.Schedule(Microsecond, func() { order = append(order, "sibling") })
	e.RunAll()

	want := []string{"parent", "sibling", "child"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ref := e.Schedule(Microsecond, func() { fired = true })
	if !ref.Pending() {
		t.Fatal("event should be pending after scheduling")
	}
	if !ref.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if ref.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	e.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineCancelAfterFire(t *testing.T) {
	e := NewEngine(1)
	var ref EventRef
	ref = e.Schedule(Microsecond, func() {})
	e.RunAll()
	if ref.Cancel() {
		t.Fatal("cancelling a fired event should report false")
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.Schedule(Microsecond, func() { fired++; e.Stop() })
	e.Schedule(2*Microsecond, func() { fired++ })
	e.Run(Second)
	if fired != 1 {
		t.Fatalf("fired %d, want 1 (Stop should halt the loop)", fired)
	}
	e.Run(Second)
	if fired != 2 {
		t.Fatalf("fired %d after resume, want 2", fired)
	}
}

// TestEngineRunNeverRewinds: a horizon behind the clock executes nothing
// and leaves the clock where it is — for Run and for RunAll's shared loop —
// so time the engine already executed stays closed to ScheduleAt.
func TestEngineRunNeverRewinds(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.ScheduleAt(10, func() { fired++ })
	e.Run(10)
	e.ScheduleAt(20, func() { fired++ })
	if got := e.Run(5); got != 10 || e.Now() != 10 {
		t.Fatalf("Run(5) at 10 ps returned %v, Now() = %v; want 10 ps for both", got, e.Now())
	}
	if fired != 1 {
		t.Fatalf("Run(5) fired %d events, want only the one at 10 ps", fired)
	}
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "into the past") {
				t.Errorf("ScheduleAt(7) after Run(5): recover() = %v, want an \"into the past\" panic", r)
			}
		}()
		e.ScheduleAt(7, func() {})
	}()
	if got := e.RunAll(); got != 20 || fired != 2 {
		t.Fatalf("RunAll ended at %v with %d events fired, want 20 ps and 2", got, fired)
	}
	if got := e.Run(15); got != 20 || e.Now() != 20 {
		t.Fatalf("Run(15) after RunAll returned %v, Now() = %v; want 20 ps for both", got, e.Now())
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past should panic")
			}
		}()
		e.ScheduleAt(0, func() {})
	})
	e.RunAll()
}

// Property: for any set of delays, events fire in nondecreasing time order
// and every non-cancelled event fires exactly once.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(delays []uint32) bool {
		if len(delays) > 2000 {
			delays = delays[:2000]
		}
		e := NewEngine(7)
		var fireTimes []Time
		for _, d := range delays {
			e.Schedule(Duration(d), func() { fireTimes = append(fireTimes, e.Now()) })
		}
		e.RunAll()
		if len(fireTimes) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] }) {
			return false
		}
		want := make([]Time, len(delays))
		for i, d := range delays {
			want[i] = Duration(d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fireTimes[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: random interleavings of schedule/cancel never fire cancelled
// events and always fire the rest.
func TestEngineCancelProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(seed)
		type tracked struct {
			ref       EventRef
			cancelled bool
			fired     bool
		}
		evs := make([]*tracked, 200)
		for i := range evs {
			tr := &tracked{}
			tr.ref = e.Schedule(Duration(rng.Intn(1000)), func() { tr.fired = true })
			evs[i] = tr
		}
		for _, tr := range evs {
			if rng.Intn(2) == 0 {
				tr.ref.Cancel()
				tr.cancelled = true
			}
		}
		e.RunAll()
		for _, tr := range evs {
			if tr.cancelled == tr.fired {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine(1)
	var next func()
	i := 0
	next = func() {
		i++
		if i < b.N {
			e.Schedule(Nanosecond, next)
		}
	}
	b.ResetTimer()
	e.Schedule(Nanosecond, next)
	e.RunAll()
}

func BenchmarkEngineChurn1k(b *testing.B) {
	// Keeps a 1k-deep queue while cycling events: the switch-fabric steady
	// state the simulator lives in.
	e := NewEngine(1)
	depth := 1000
	var reschedule func()
	fired := 0
	reschedule = func() {
		fired++
		if fired < b.N {
			e.Schedule(Duration(1+fired%97)*Nanosecond, reschedule)
		}
	}
	for i := 0; i < depth; i++ {
		e.Schedule(Duration(i)*Nanosecond, reschedule)
	}
	b.ResetTimer()
	e.RunAll()
}

func TestEngineCompactionBoundsPendingUnderRearm(t *testing.T) {
	// Models a DCQCN-style retransmission timer: every "packet" arms a
	// far-future RTO and immediately cancels it when the "ack" arrives a
	// tick later. Without compaction the heap holds every dead slot until
	// its far-future timestamp pops, so Pending() grows with the rearm
	// rate times the backoff horizon; with compaction it stays bounded by
	// the live count plus a constant.
	e := NewEngine(7)
	const rounds = 50_000
	const rto = Duration(10) * Second // far beyond the run horizon

	maxPending := 0
	var prev EventRef
	var tick func()
	i := 0
	tick = func() {
		if prev.Pending() {
			if !prev.Cancel() {
				t.Fatal("cancel of pending timer failed")
			}
		}
		if i >= rounds {
			return
		}
		i++
		prev = e.Schedule(rto, func() { t.Error("cancelled RTO fired") })
		if p := e.Pending(); p > maxPending {
			maxPending = p
		}
		e.Schedule(Microsecond, tick)
	}
	e.Schedule(Microsecond, tick)
	e.Run(Duration(rounds+10) * Microsecond)

	// Live events at any instant: one RTO + one tick (+ transient slack
	// around the compaction trigger). Anything near `rounds` means dead
	// slots accumulated.
	const bound = 4*compactThreshold + 16
	if maxPending > bound {
		t.Fatalf("Pending() peaked at %d; want <= %d (compaction not bounding dead slots)", maxPending, bound)
	}
	if e.Cancelled() > 2*compactThreshold {
		t.Fatalf("Cancelled() = %d at end of run; want small residue", e.Cancelled())
	}
	if i != rounds {
		t.Fatalf("ran %d rounds, want %d", i, rounds)
	}
}

func TestEngineCompactionPreservesOrder(t *testing.T) {
	// Interleaves live events with heavy cancellation and checks the live
	// events still fire in exact (time, seq) order.
	e := NewEngine(3)
	var got []int
	for i := 0; i < 2000; i++ {
		i := i
		e.Schedule(Duration(i)*Microsecond, func() { got = append(got, i) })
		// Two far-future victims per live event, cancelled immediately —
		// enough pressure to trigger several compactions.
		a := e.Schedule(Second+Duration(i)*Microsecond, func() { t.Error("victim fired") })
		b := e.Schedule(2*Second+Duration(i)*Microsecond, func() { t.Error("victim fired") })
		a.Cancel()
		b.Cancel()
	}
	e.RunAll()
	if len(got) != 2000 {
		t.Fatalf("fired %d live events, want 2000", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken at %d: got %d", i, v)
		}
	}
}

// record is one observed dispatch for order comparison.
type record struct {
	id int
	at Time
}

// driveRandomWorkload runs an identical randomized schedule/cancel/rearm
// mix on the given engine and returns the exact dispatch order. The mix
// spans delays from picoseconds to tens of seconds, plus keyed arrivals,
// zero-delay storms, and horizon-bounded Run calls. A quarter of the events
// ride four delay lines (0, 40, 80 and 120 ns), plain and keyed, and some
// heap events take multiples of 40 ns, so line heads tie each other and the
// heap at equal instants; a zero-delay line event may set off more at its
// own instant.
func driveRandomWorkload(e *Engine, seed int64) []record {
	rng := rand.New(rand.NewSource(seed))
	var got []record
	id := 0
	var refs []EventRef
	lines := []Line{e.DelayLine(0), e.DelayLine(40 * Nanosecond), e.DelayLine(80 * Nanosecond), e.DelayLine(120 * Nanosecond)}

	schedule := func(depth int) {}
	var onLine func(depth, li int)
	onLine = func(depth, li int) {
		id++
		myID := id
		body := func(arg any) {
			got = append(got, record{arg.(int), e.Now()})
			if depth >= 3 {
				return
			}
			if li == 0 {
				for k := rng.Intn(4); k > 0; k-- {
					onLine(depth+1, 0)
				}
			}
			if rng.Intn(3) > 0 {
				schedule(depth + 1)
			}
		}
		if rng.Intn(3) == 0 {
			e.ScheduleLineKeyed(lines[li], body, myID, ArrivalKeyBit|uint64(myID)<<20|uint64(rng.Intn(1000)))
		} else {
			e.ScheduleLine(lines[li], body, myID)
		}
	}
	schedule = func(depth int) {
		var delay Duration
		switch rng.Intn(8) {
		case 0:
			delay = 0 // same-instant tie-breaks
		case 1:
			delay = Duration(rng.Int63n(int64(100 * Nanosecond)))
		case 2:
			delay = Duration(rng.Int63n(int64(10 * Microsecond)))
		case 3:
			delay = Duration(rng.Int63n(int64(5 * Millisecond)))
		case 4:
			delay = Duration(rng.Int63n(int64(800 * Millisecond)))
		case 5:
			delay = Duration(rng.Int63n(int64(30 * Second)))
		case 6:
			delay = Duration(rng.Intn(4)) * 40 * Nanosecond // ties with the lines
		default:
			onLine(depth, rng.Intn(len(lines)))
			return
		}
		id++
		myID := id
		if rng.Intn(4) == 0 {
			key := ArrivalKeyBit | uint64(myID)<<20 | uint64(rng.Intn(1000))
			e.ScheduleArrivalAt(e.Now()+delay, func(arg any) {
				got = append(got, record{arg.(int), e.Now()})
				if depth < 3 && rng.Intn(3) > 0 {
					schedule(depth + 1)
				}
			}, myID, key)
			return
		}
		ref := e.Schedule(delay, func() {
			got = append(got, record{myID, e.Now()})
			if depth < 3 && rng.Intn(3) > 0 {
				schedule(depth + 1)
			}
		})
		if rng.Intn(5) == 0 {
			refs = append(refs, ref)
		}
	}

	for i := 0; i < 400; i++ {
		schedule(0)
	}
	// Cancel a random subset before anything runs.
	for _, ref := range refs {
		if rng.Intn(2) == 0 {
			r := ref
			r.Cancel()
		}
	}
	refs = refs[:0]

	// Interleave horizon-bounded runs, peeks, and more scheduling.
	horizon := Time(0)
	for round := 0; round < 12; round++ {
		horizon += Duration(rng.Int63n(int64(2 * Second)))
		e.Run(horizon)
		if at, ok := e.NextEventTime(); ok && at < horizon {
			panic("NextEventTime returned a past event")
		}
		for i := 0; i < 40; i++ {
			schedule(0)
		}
		for _, ref := range refs {
			if rng.Intn(2) == 0 {
				r := ref
				r.Cancel()
			}
		}
		refs = refs[:0]
	}
	e.RunAll()
	return got
}

// TestEngineMatchesHeapEngine is the scheduler's core contract: for the
// same workload, the production engine dispatches exactly the same events at
// exactly the same times in exactly the same order as the line-free
// reference heap, and agrees with it on the events fired and the final
// clock.
func TestEngineMatchesHeapEngine(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		ref := NewHeapEngine(99)
		want := driveRandomWorkload(ref, seed)
		e := NewEngine(99)
		got := driveRandomWorkload(e, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: dispatched %d events, reference dispatched %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: dispatch %d = %+v, reference dispatched %+v", seed, i, got[i], want[i])
			}
		}
		if e.Events() != ref.Events() || e.Now() != ref.Now() {
			t.Fatalf("seed %d: %d events, clock %v; reference %d events, clock %v",
				seed, e.Events(), e.Now(), ref.Events(), ref.Now())
		}
		if e.LineEvents() == 0 || ref.LineEvents() != 0 {
			t.Fatalf("seed %d: %d events off lines, reference %d; want some and none", seed, e.LineEvents(), ref.LineEvents())
		}
		checkFreeListClean(t, e, "after the random workload")
		if n := e.Pending(); n != 0 {
			t.Fatalf("seed %d: %d events pending after RunAll", seed, n)
		}
	}
}

// TestEngineNextEventTime: the conservative-time peek answers the earliest
// live event whatever its distance, skips cancelled ones, and does not
// disturb dispatch.
func TestEngineNextEventTime(t *testing.T) {
	e := NewEngine(5)
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("empty engine reported a next event")
	}
	var fired []Time
	note := func() { fired = append(fired, e.Now()) }
	far := e.Schedule(20*Second, note)
	e.Schedule(3*Millisecond, note)
	near := e.Schedule(10*Microsecond, note)
	if at, ok := e.NextEventTime(); !ok || at != Time(10*Microsecond) {
		t.Fatalf("peek = %v,%v, want 10µs", at, ok)
	}
	near.Cancel()
	if at, ok := e.NextEventTime(); !ok || at != Time(3*Millisecond) {
		t.Fatalf("peek after cancel = %v,%v, want 3ms", at, ok)
	}
	far.Cancel()
	e.RunAll()
	if len(fired) != 1 || fired[0] != Time(3*Millisecond) {
		t.Fatalf("fired = %v, want exactly [3ms]", fired)
	}
	if at, ok := e.NextEventTime(); ok {
		t.Fatalf("drained engine reported next event at %v", at)
	}
}
