// Package psim is the sharded conservative-time parallel simulation core: a
// conductor that runs N per-shard engines (one goroutine each) in barrier
// epochs whose length never exceeds the cluster's lookahead — the minimum
// propagation delay over cross-shard links (Chandy–Misra–Bryant style
// conservative synchronization).
//
// Soundness. Let T be the global minimum next-event time and L > 0 the
// lookahead. During an epoch bounded at T+L−1, a shard can only transmit
// frames at times ≥ T, which arrive at the peer shard at ≥ T+L — strictly
// after the bound (engines execute events at exactly the bound, hence the
// −1). Cross-shard frames therefore never need to be inserted into a peer's
// past: they sit in single-producer mailboxes (netdev.Outbox) the conductor
// drains at the barrier, when every shard is parked. Each epoch executes at
// least the event at T, so the bound strictly increases and the run
// terminates.
//
// Determinism. Results are byte-identical for every shard count because the
// dispatch order of same-tick frame arrivals is a mode-invariant function of
// the wiring: every port carries a global wiring-order arrival key, and the
// engine orders keyed arrivals after plain same-tick events and among
// themselves by key (see sim.ScheduleArrivalAt). Mailbox drain order is
// immaterial — the receiving heap's (time, key) total order decides — and
// everything else that could diverge (workload generators, fault processes)
// is replicated per shard on identically-seeded engines.
//
// Global observers that read state across shards (auditor sweeps, deadlock
// detector scans, the no-progress watchdog) cannot run as one shard's engine
// events; they register as barrier tasks, executed by the conductor at exact
// multiples of their period when all shard clocks agree and no events are in
// flight — at every shard count, one engine included.
package psim

import (
	"fmt"

	"l2bm/internal/netdev"
	"l2bm/internal/sim"
	"l2bm/internal/topo"
)

// Task is a global barrier task: Fn runs at every multiple of Every, after
// all events up to (and including) that instant have executed on every
// shard and all mailboxes are drained. Fn must not schedule events in the
// past and must not touch engines concurrently — it runs on the conductor's
// goroutine while every shard is parked.
type Task struct {
	Every sim.Duration
	Fn    func(now sim.Time)

	next sim.Time
}

// Stats counts conductor activity over a run.
type Stats struct {
	// Epochs is the number of barrier intervals executed.
	Epochs uint64
	// Delivered is the number of cross-shard frames drained from mailboxes.
	Delivered uint64
	// TaskFirings counts barrier-task executions.
	TaskFirings uint64
}

// Conductor synchronizes a set of per-shard engines. Build one per run with
// New or ForCluster, register barrier tasks, then Run to a horizon. The
// zero value is not usable.
type Conductor struct {
	engines   []*sim.Engine
	boxes     []*netdev.Outbox
	lookahead sim.Duration
	tasks     []*Task
	stats     Stats

	// worker plumbing: one persistent goroutine per shard when sharded.
	start []chan sim.Time
	done  chan int

	// intr, when set, is polled between epochs (and inside each shard's
	// engine loop); returning true abandons the run early.
	intr func() bool
}

// New builds a conductor over the given engines and cross-shard mailboxes.
// lookahead must be positive when more than one engine is supplied; with a
// single engine it is ignored (epochs span to the next task or the horizon).
func New(engines []*sim.Engine, boxes []*netdev.Outbox, lookahead sim.Duration) *Conductor {
	if len(engines) == 0 {
		panic("psim: no engines")
	}
	if len(engines) > 1 && lookahead <= 0 {
		panic(fmt.Sprintf("psim: %d shards need positive lookahead, got %v", len(engines), lookahead))
	}
	c := &Conductor{engines: engines, boxes: boxes, lookahead: lookahead}
	if len(engines) > 1 {
		c.done = make(chan int, len(engines))
		for i := range engines {
			ch := make(chan sim.Time, 1)
			c.start = append(c.start, ch)
			go c.worker(i, ch)
		}
	}
	return c
}

// ForCluster builds a conductor for a sharded topo build, wiring in its
// engines, mailboxes and computed lookahead.
func ForCluster(cl *topo.Cluster) *Conductor {
	la := cl.Lookahead
	if len(cl.Engines) == 1 {
		la = 0
	}
	return New(cl.Engines, cl.Outboxes(), la)
}

// AddTask registers a global barrier task firing at every multiple of every
// (first firing one period after the current time). Register tasks before
// Run.
func (c *Conductor) AddTask(every sim.Duration, fn func(now sim.Time)) {
	if every <= 0 {
		panic("psim: task period must be positive")
	}
	c.tasks = append(c.tasks, &Task{Every: every, Fn: fn, next: c.engines[0].Now() + sim.Time(every)})
}

// SetInterrupt installs an abandon-the-run poll: fn is checked between
// epochs on the conductor goroutine AND every `every` fired events inside
// each shard engine's run loop (so a livelocked epoch is interrupted too,
// not just the barrier). When fn returns true, Run returns early with the
// fabric in a torn mid-run state — callers must discard results, which is
// exactly what a context-cancelled experiment point does. fn MUST be safe
// for concurrent use (shard workers poll it in parallel); context.Err-style
// checks qualify. Pass fn == nil to disarm. Like the engine-level
// SetInterrupt, an armed poll that never fires is observer-free.
func (c *Conductor) SetInterrupt(every uint64, fn func() bool) {
	c.intr = fn
	for _, e := range c.engines {
		e.SetInterrupt(every, fn)
	}
}

// Stats returns a snapshot of the conductor counters.
func (c *Conductor) Stats() Stats { return c.stats }

// Events sums executed events across all shard engines.
func (c *Conductor) Events() uint64 {
	var n uint64
	for _, e := range c.engines {
		n += e.Events()
	}
	return n
}

// Now returns the common shard clock (valid between epochs).
func (c *Conductor) Now() sim.Time { return c.engines[0].Now() }

// worker is one shard's run loop: it executes epochs on demand until its
// start channel closes.
func (c *Conductor) worker(i int, start <-chan sim.Time) {
	for bound := range start {
		c.engines[i].Run(bound)
		c.done <- i
	}
}

// Close releases the worker goroutines. The conductor must not be used
// afterwards. Safe to call once, even if Run was never called.
func (c *Conductor) Close() {
	for _, ch := range c.start {
		close(ch)
	}
	c.start = nil
}

// EpochBound is the conservative epoch-bound arithmetic, factored out so it
// can be unit-tested and reused by drivers that step engines in
// barrier-sized slices (the hybrid-fidelity packet segments): the horizon,
// lowered to the earliest due barrier task (the task must observe a state
// with no events in flight at its instant), and — when a lookahead applies
// and an event is pending at minEvent — lowered to minEvent + lookahead − 1.
// With T the global minimum next-event time, every cross-shard frame sent
// during such an epoch arrives at ≥ T+L > T+L−1, so bounding at T+L−1 keeps
// all deliveries in every shard's future (engines execute events at exactly
// the bound, hence the −1). Pass lookahead ≤ 0 or haveEvent == false to
// skip the lookahead clamp (single-shard mode, or an idle fabric where
// jumping straight to the next task or the horizon is safe: no pending
// event anywhere means the mailboxes are empty too).
func EpochBound(horizon, nextTask, minEvent sim.Time, haveTask, haveEvent bool, lookahead sim.Duration) sim.Time {
	bound := horizon
	if haveTask && nextTask < bound {
		bound = nextTask
	}
	if haveEvent && lookahead > 0 {
		if eb := minEvent + sim.Time(lookahead) - 1; eb < bound {
			bound = eb
		}
	}
	return bound
}

// Run executes the simulation up to and including horizon: repeated barrier
// epochs of engine execution, mailbox drains and due barrier tasks. On
// return every shard clock reads horizon and no event at or before horizon
// remains (events scheduled beyond the horizon stay pending, exactly like
// sim.Engine.Run).
func (c *Conductor) Run(horizon sim.Time) {
	for {
		if c.intr != nil && c.intr() {
			return
		}

		var nextTask sim.Time
		haveTask := false
		for _, t := range c.tasks {
			if !haveTask || t.next < nextTask {
				haveTask, nextTask = true, t.next
			}
		}

		var minT sim.Time
		haveEvent := false
		la := sim.Duration(0)
		if len(c.engines) > 1 {
			la = c.lookahead
			for _, e := range c.engines {
				if t, ok := e.NextEventTime(); ok && (!haveEvent || t < minT) {
					haveEvent, minT = true, t
				}
			}
		}

		bound := EpochBound(horizon, nextTask, minT, haveTask, haveEvent, la)

		c.runEpoch(bound)
		c.stats.Epochs++
		for _, b := range c.boxes {
			c.stats.Delivered += uint64(b.Drain())
		}
		for _, t := range c.tasks {
			if t.next == bound {
				t.Fn(bound)
				t.next += sim.Time(t.Every)
				c.stats.TaskFirings++
			}
		}
		if bound >= horizon {
			return
		}
	}
}

// runEpoch advances every engine to bound, in parallel when sharded.
func (c *Conductor) runEpoch(bound sim.Time) {
	if c.start == nil {
		c.engines[0].Run(bound)
		return
	}
	for _, ch := range c.start {
		ch <- bound
	}
	for range c.start {
		<-c.done
	}
}
