package psim

import (
	"testing"

	"l2bm/internal/sim"
)

// TestEpochBoundTable pins the conservative epoch-bound arithmetic —
// bound = min(horizon, nextTask, minEvent + lookahead − 1) with each clamp
// gated on its have-flag — across the off-by-one surface the hybrid
// fast-forward leans on (it steps packet segments in EpochBound-sized
// slices).
func TestEpochBoundTable(t *testing.T) {
	cases := []struct {
		name                string
		horizon, task, ev   sim.Time
		haveTask, haveEvent bool
		lookahead           sim.Duration
		want                sim.Time
	}{
		// No clamps: idle fabric, no tasks — jump straight to the horizon.
		{"horizon-only", 1000, 0, 0, false, false, 50, 1000},
		// Task strictly before horizon lowers the bound to the task instant.
		{"task-before-horizon", 1000, 400, 0, true, false, 0, 400},
		// Task exactly at the horizon: min is idempotent, no overshoot.
		{"task-at-horizon", 1000, 1000, 0, true, false, 0, 1000},
		// Task beyond the horizon never drags the bound past it.
		{"task-after-horizon", 1000, 1500, 0, true, false, 0, 1000},
		// The lookahead clamp: pending event at 100 with lookahead 50 bounds
		// the epoch at 149 — a cross-shard frame sent at ≥ 100 arrives at
		// ≥ 150, strictly beyond the epoch, so no shard can observe it late.
		{"event-clamp", 1000, 0, 100, false, true, 50, 149},
		// Lookahead of exactly one tick: bound = minEvent + 1 − 1 = the
		// event instant itself. The epoch executes the event but nothing
		// after it — the tightest legal epoch, and the degenerate case the
		// −1 exists for (a zero-width link delay may deliver "now", so the
		// epoch must not advance past the sender's instant).
		{"one-tick-lookahead", 1000, 0, 100, false, true, 1, 100},
		// Event bound vs task: the earlier wins.
		{"task-beats-event", 1000, 120, 100, true, true, 50, 120},
		{"event-beats-task", 1000, 300, 100, true, true, 50, 149},
		// Barrier task landing exactly on the event bound: still one epoch,
		// the task fires at a barrier where no event ≤ bound is in flight.
		{"task-on-event-bound", 1000, 149, 100, true, true, 50, 149},
		// Event bound beyond the horizon: horizon wins.
		{"event-bound-past-horizon", 120, 0, 100, false, true, 50, 120},
		// NextEventTime exactly at the would-be bound (event at horizon):
		// engines execute events at exactly the bound, so no lowering is
		// needed or done.
		{"event-at-horizon", 100, 0, 100, false, true, 50, 100},
		// lookahead ≤ 0 skips the clamp even with a pending event
		// (single-shard mode: no cross-shard deliveries to protect).
		{"zero-lookahead-skips-clamp", 1000, 0, 100, false, true, 0, 1000},
		{"negative-lookahead-skips-clamp", 1000, 0, 100, false, true, -5, 1000},
		// haveEvent == false skips the clamp (idle fabric: empty lanes).
		{"no-event-skips-clamp", 1000, 0, 100, false, false, 50, 1000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := EpochBound(tc.horizon, tc.task, tc.ev, tc.haveTask, tc.haveEvent, tc.lookahead)
			if got != tc.want {
				t.Errorf("EpochBound(h=%d task=%d ev=%d haveTask=%v haveEvent=%v la=%d) = %d, want %d",
					tc.horizon, tc.task, tc.ev, tc.haveTask, tc.haveEvent, tc.lookahead, got, tc.want)
			}
		})
	}
}

// TestBarrierTaskOnBound drives a two-shard conductor whose barrier task
// period makes firings land exactly on lookahead-clamped epoch bounds: the
// task must observe barrier state (both clocks equal, no event at or before
// the firing instant still pending) at every firing, and fire exactly
// horizon/period times.
func TestBarrierTaskOnBound(t *testing.T) {
	a, b := sim.NewEngine(1), sim.NewEngine(2)
	const horizon = sim.Time(1000)
	const period = sim.Duration(100)

	// A self-rescheduling event chain on each shard, offset so the global
	// min-event time keeps moving between barriers.
	var tick func(e *sim.Engine, step sim.Duration) func()
	tick = func(e *sim.Engine, step sim.Duration) func() {
		return func() {
			if e.Now() < horizon {
				e.Schedule(step, tick(e, step))
			}
		}
	}
	a.Schedule(7, tick(a, 7))
	b.Schedule(13, tick(b, 13))

	c := New([]*sim.Engine{a, b}, nil, 25)
	defer c.Close()
	var firings []sim.Time
	c.AddTask(period, func(now sim.Time) {
		if a.Now() != now || b.Now() != now {
			t.Errorf("task at %d did not run at a barrier: clocks a=%d b=%d", now, a.Now(), b.Now())
		}
		if ta, ok := a.NextEventTime(); ok && ta <= now {
			t.Errorf("task at %d fired with shard-a event still pending at %d", now, ta)
		}
		if tb, ok := b.NextEventTime(); ok && tb <= now {
			t.Errorf("task at %d fired with shard-b event still pending at %d", now, tb)
		}
		firings = append(firings, now)
	})
	c.Run(horizon)

	want := int(horizon / sim.Time(period))
	if len(firings) != want {
		t.Fatalf("task fired %d times, want %d (firings: %v)", len(firings), want, firings)
	}
	for i, at := range firings {
		if exp := sim.Time(period) * sim.Time(i+1); at != exp {
			t.Errorf("firing %d at %d, want %d", i, at, exp)
		}
	}
	if a.Now() != horizon || b.Now() != horizon {
		t.Errorf("run ended with clocks a=%d b=%d, want both at %d", a.Now(), b.Now(), horizon)
	}
}

// TestEventAtEpochBound pins the "engines execute events at exactly the
// bound" half of the −1 argument: an event scheduled precisely at an
// epoch's lookahead-clamped bound runs inside that epoch, and an event one
// tick past the horizon stays pending after Run.
func TestEventAtEpochBound(t *testing.T) {
	a, b := sim.NewEngine(1), sim.NewEngine(2)
	const la = sim.Duration(10)

	// Per-shard records: epochs run shards on concurrent workers, so a
	// shared slice would race.
	var ranA, ranB []sim.Time
	// Shard a holds the global min event at t=5, so the first epoch's bound
	// is 5 + 10 − 1 = 14. Shard b's event at exactly 14 must execute in the
	// same epoch; its event at 15 must wait for the next one.
	a.Schedule(5, func() { ranA = append(ranA, a.Now()) })
	b.Schedule(14, func() { ranB = append(ranB, b.Now()) })
	b.Schedule(15, func() { ranB = append(ranB, b.Now()) })

	if got := EpochBound(1000, 0, 5, false, true, la); got != 14 {
		t.Fatalf("first epoch bound = %d, want 14", got)
	}

	c := New([]*sim.Engine{a, b}, nil, la)
	defer c.Close()

	// Run to exactly the first epoch's bound: both due events execute, the
	// one past the bound does not.
	c.Run(14)
	if len(ranA) != 1 || ranA[0] != 5 {
		t.Fatalf("after Run(14): shard a executed %v, want [5]", ranA)
	}
	if len(ranB) != 1 || ranB[0] != 14 {
		t.Fatalf("after Run(14): shard b executed %v, want [14]", ranB)
	}
	if next, ok := b.NextEventTime(); !ok || next != 15 {
		t.Fatalf("event at 15 should still be pending, got (%d, %v)", next, ok)
	}

	// An event exactly at the horizon executes; Run leaves nothing ≤ horizon.
	c.Run(15)
	if len(ranB) != 2 || ranB[1] != 15 {
		t.Fatalf("after Run(15): shard b executed %v, want the t=15 event to have run", ranB)
	}
	if _, ok := b.NextEventTime(); ok {
		t.Fatal("no events should remain")
	}
}
