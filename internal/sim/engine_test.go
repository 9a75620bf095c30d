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
	if fired != 2 {
		t.Errorf("fired %d after RunAll, want 2", fired)
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
