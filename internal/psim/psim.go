// Package psim is the sharded conservative-time parallel simulation core: a
// conductor that runs N per-shard engines in barrier epochs whose length
// never exceeds the cluster's lookahead — the minimum propagation delay over
// cross-shard links (Chandy–Misra–Bryant style conservative synchronization).
//
// Soundness. Let T be the global minimum next-event time and L > 0 the
// lookahead. During an epoch bounded at T+L−1, a shard can only transmit
// frames at times ≥ T, which arrive at the peer shard at ≥ T+L — strictly
// after the bound (engines execute events at exactly the bound, hence the
// −1). Cross-shard frames therefore never need to be inserted into a peer's
// past: they sit in single-producer lanes (netdev.Lane) the conductor seals
// at the barrier, when every shard is parked, and the receiving shard
// delivers at the start of its next epoch. A sealed frame is a pending event
// like any other: its arrival time enters T. Each epoch executes at least
// the event at T, so the bound strictly increases and the run terminates.
//
// Determinism. Results are byte-identical for every shard count because the
// dispatch order of same-tick frame arrivals is a mode-invariant function of
// the wiring: every port carries a global wiring-order arrival key, and the
// engine orders keyed arrivals after plain same-tick events and among
// themselves by key (see sim.ScheduleArrivalAt). Lane delivery order is
// immaterial — the receiving queue's (time, key) total order decides — and
// everything else that could diverge (workload generators, fault processes)
// is replicated per shard on identically-seeded engines. Which thread ran an
// epoch never matters either: the conductor's choice between running the
// shards side by side or one after another (below) moves wall time only.
//
// Global observers that read state across shards (auditor sweeps, deadlock
// detector scans, the no-progress watchdog) cannot run as one shard's engine
// events; they register as barrier tasks, executed by the conductor at exact
// multiples of their period when all shard clocks agree and no events are in
// flight — at every shard count, one engine included.
//
// Execution. The partition is the simulation's, the threads are the
// machine's: a run on N shards granted C cores uses min(C, N) threads. Thread
// 0 is the goroutine that called Run; threads 1…T−1 each get one worker
// goroutine, started the first time an epoch is worth running in parallel
// and joined by Close. Conductor and workers stay on their OS threads
// (runtime.LockOSThread) and hand each epoch over through one generation word
// per direction, waiting by a bounded spin and then parking (gate). With a
// thread per shard each thread runs its own shard every epoch, so a shard's
// working set stays in one core's cache; with more shards than threads every
// thread claims the shards it ran last, busiest first by the last epoch's
// events, then the busiest the other threads have not reached, until none
// are left (claim). Epochs too quiet to be worth a hand-over — the drain tail
// of every run — and epochs on a machine whose cores are taken run inline
// instead: the conductor steps every engine itself with the workers parked
// (see steer).
package psim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"l2bm/internal/netdev"
	"l2bm/internal/sim"
)

// spinBound is how long either side of a hand-over polls the other's
// generation word before it parks on a channel. A parked pinned thread takes
// 50–100 µs to wake (two futex round trips: the runtime wakes a thread to
// wake the locked one), and the lighter shard of a 64/36 event split finishes
// ~150 µs before the heavier one every epoch, so the bound has to sit well
// above that: on the two fig7_packet points ISSUE 24's prototype read 540 ms
// at ~100 µs (the whole gain gone: one engine reads 470–520), 420 ms at
// ~300 µs, 400 ms at ~1 ms. It must still be a bound: an unbounded spin
// showed a 22 ms stop-the-world in gctrace, and on an oversubscribed machine
// the thread being waited for may need this very core.
const spinBound = time.Millisecond

// spinPoll is how many polls of the word pass between reads of the clock.
const spinPoll = 64

// The steering constants (see steer). Set from the 10k-host smoke (8,604
// epochs, 7,173 of them its drain tail) and the fig7_packet points (3,424
// epochs; held-out seeds 6,000–8,300): a hand-over is ≈ 1–2 µs of spinning
// when both sides are on core, and an epoch whose shards other than the
// busiest run fewer than ~100 events (≈ 10–20 µs of work) has nothing to
// overlap with it; the gap up to 300 is hysteresis, which kept every run
// measured to 1–5 mode switches.
const (
	inlineBelow   = 100 // smoothed events/epoch under which epochs run inline
	parallelAbove = 300 // … and over which they go back to parallel
	// overflowRun consecutive epochs in which a worker was not done within
	// the conductor's spin bound mean its thread is not getting a core — the
	// vCPU is oversubscribed or descheduled, or the collector is marking on
	// it (20–40 ms a cycle on the 10k fabric, where a cycle used to park 60
	// epochs in a row) — and every such epoch costs at least spinBound, up to
	// two scheduler quanta (10 ms each) when it is a Go proc the two lack,
	// so stop paying at the second.
	overflowRun = 2
)

// The conductor then stays inline for reprobeMin before it probes parallel
// again (a collector cycle is usually over by then), and after every probe
// that ends the same way twice as long, up to reprobeMax, until one works:
// cleanRun epochs in a row without an outwaited one. On a box where a worker
// is late in one epoch in three (a two-vCPU VM in the first seconds after it
// sat idle read 469 of 1,424) that many in a row do not happen by luck, while
// an isolated late epoch (1 in 100 on the same box once warm) neither ends a
// parallel stretch nor keeps the hold from shrinking back. Four self-sized
// runs sharing two procs read 1.6–1.7× four one-engine runs when a probe was
// four epochs and the next came 32 epochs later, 1.15–1.3× with this schedule.
const (
	reprobeMin = 20 * time.Millisecond
	reprobeMax = 2 * time.Second
	cleanRun   = 16
)

// Task is a global barrier task: Fn runs at every multiple of Every, after
// all events up to (and including) that instant have executed on every
// shard and every cross-shard frame is scheduled on its receiving engine.
// Fn must not schedule events in the past and must not touch engines
// concurrently — it runs on the conductor's goroutine while every shard is
// parked.
type Task struct {
	Every sim.Duration
	Fn    func(now sim.Time)

	next sim.Time
}

// Stats counts conductor activity over a run. Shards, Epochs, Delivered,
// TaskFirings, LineEvents and HeapPeak are functions of the simulation and
// its shard count alone; the rest say how the machine let it be executed and
// vary run to run — none of them enter a Result's bytes. Add is the one rule
// by which runs combine.
type Stats struct {
	// Shards is the engine count the run executed on.
	Shards int
	// Epochs is the number of barrier intervals executed.
	Epochs uint64
	// Delivered is the number of cross-shard frames handed over.
	Delivered uint64
	// TaskFirings counts barrier-task executions.
	TaskFirings uint64
	// LineEvents counts the events the engines dispatched off their delay
	// lines (sim.Engine.LineEvents), summed over the engines.
	LineEvents uint64
	// HeapPeak is the most events any one engine's heap held at once
	// (sim.Engine.HeapPeak).
	HeapPeak int
	// InlineEpochs counts the epochs the conductor's goroutine ran every
	// engine itself (all of them with one engine); the rest ran in parallel.
	InlineEpochs uint64
	// Parks counts waits that outlasted the spin bound and slept, on either
	// side of a hand-over. A handful per run is mode switching; one per
	// epoch means the shards were fighting over a core.
	Parks uint64
	// ModeSwitches counts changes between parallel and inline execution.
	ModeSwitches uint64
	// Threads is how many threads parallel epochs run the shards on:
	// min(cores granted, shards), 1 when every epoch must run inline.
	Threads int
	// Busy and Idle split the thread-time inside parallel epochs: Busy is
	// spent running shards, Idle waiting — a worker to be woken and after
	// its last claim, the conductor in its wait for the workers.
	Busy, Idle time.Duration
}

// Conductor synchronizes a set of per-shard engines. Build one per run with
// New, register barrier tasks, then Run to a horizon and Close.
// The zero value is not usable.
type Conductor struct {
	engines   []*sim.Engine
	lanes     []*netdev.Lane   // every cross-shard lane
	inbound   [][]*netdev.Lane // inbound[s]: the lanes shard s receives on
	slots     []shardSlot      // slots[s]: written by whichever thread runs shard s
	lookahead sim.Duration
	tasks     []*Task
	stats     Stats

	// sealedAt is the earliest arrival among sealed, undelivered frames.
	sealedAt   sim.Time
	haveSealed bool

	// Parallel execution (see steer). threads is min(cores granted, shards):
	// with one there is no second core and epochs always run inline.
	threads  int
	spin     time.Duration  // spinBound; a test zeroes it so every wait parks
	workers  []*worker      // thread t+1's worker; nil until first needed
	exited   sync.WaitGroup // the workers' goroutines
	gen      uint64         // hand-over generation
	parallel bool
	density  float64       // smoothed events/epoch not on the busiest shard
	seen     []uint64      // engine event counts at the last barrier
	ran      []uint64      // events each shard executed in the last epoch
	overflow int           // consecutive parallel epochs a worker outwaited the spin bound
	clean    int           // consecutive parallel epochs none did
	held     time.Time     // when not zero: no parallel epoch before this instant
	backoff  time.Duration // the hold the next overflow will impose

	// With more shards than threads (nil order otherwise; see claim): the
	// shards grouped by the thread that ran them last, busiest-first by ran
	// within a group — thread t's at order[from[t]:from[t+1]] — and the
	// cursor per group that t and then any thread out of shards claims by.
	order []int
	from  []int
	next  []claimCursor

	// intr, when set, is polled between epochs (and inside each shard's
	// engine loop); returning true abandons the run early.
	intr func() bool
}

// shardSlot is what a shard's thread writes during an epoch, on a cache line
// of its own: shards run side by side on different cores.
type shardSlot struct {
	delivered uint64 // cross-shard frames the shard delivered
	thread    int    // the thread that ran the shard last
	_         [48]byte
}

// claimCursor is the next index into one thread's group of the claim order,
// on a cache line of its own: the owner and thieves add to it.
type claimCursor struct {
	atomic.Int64
	_ [56]byte
}

// New builds a conductor over the given engines; inbound[s] lists the lanes
// shard s receives cross-shard frames on (nil with one engine). lookahead
// must be positive when more than one engine is supplied; with a single
// engine it is ignored (epochs span to the next task or the horizon). cores
// is how many cores the run may occupy: parallel epochs use min(cores,
// shards) threads, and with one every epoch runs inline.
func New(engines []*sim.Engine, inbound [][]*netdev.Lane, lookahead sim.Duration, cores int) *Conductor {
	if len(engines) == 0 {
		panic("psim: no engines")
	}
	if len(engines) > 1 && lookahead <= 0 {
		panic(fmt.Sprintf("psim: %d shards need positive lookahead, got %v", len(engines), lookahead))
	}
	n := len(engines)
	c := &Conductor{
		engines: engines, lookahead: lookahead,
		inbound: make([][]*netdev.Lane, n), slots: make([]shardSlot, n),
		seen: make([]uint64, n), ran: make([]uint64, n),
		threads: max(1, min(cores, n)), spin: spinBound, backoff: reprobeMin,
	}
	if c.threads > 1 && n > c.threads {
		c.order, c.from, c.next = make([]int, n), make([]int, c.threads+1), make([]claimCursor, c.threads)
		// Contiguous blocks to start; steer groups them before the first
		// parallel epoch.
		for s := range c.order {
			c.order[s], c.slots[s].thread = s, s*c.threads/n
		}
	}
	copy(c.inbound, inbound)
	for _, in := range inbound {
		c.lanes = append(c.lanes, in...)
	}
	return c
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

// Stats returns a snapshot of the conductor counters (valid between epochs).
func (c *Conductor) Stats() Stats {
	st := c.stats
	st.Shards, st.Threads = len(c.engines), c.threads
	for i := range c.slots {
		st.Delivered += c.slots[i].delivered
		st.LineEvents += c.engines[i].LineEvents()
		st.HeapPeak = max(st.HeapPeak, c.engines[i].HeapPeak())
	}
	return st
}

// Add folds o into s: Shards, Threads and HeapPeak take the widest, every
// other field is summed — a hybrid run's packet segments, a grid's points.
func (s *Stats) Add(o Stats) {
	s.Shards, s.Threads, s.HeapPeak = max(s.Shards, o.Shards), max(s.Threads, o.Threads), max(s.HeapPeak, o.HeapPeak)
	s.Epochs += o.Epochs
	s.Delivered += o.Delivered
	s.TaskFirings += o.TaskFirings
	s.LineEvents += o.LineEvents
	s.InlineEpochs += o.InlineEpochs
	s.Parks += o.Parks
	s.ModeSwitches += o.ModeSwitches
	s.Busy += o.Busy
	s.Idle += o.Idle
}

// String renders the timing-trailer note, "" unless a run was sharded; the
// idle share is of the thread-time inside parallel epochs.
func (s Stats) String() string {
	if s.Shards <= 1 {
		return ""
	}
	idle := 0.0
	if s.Busy+s.Idle > 0 {
		idle = 100 * s.Idle.Seconds() / (s.Busy + s.Idle).Seconds()
	}
	return fmt.Sprintf(", %d shards on %d threads, %d epochs (%d inline, %d parks, idle %.0f %%)",
		s.Shards, s.Threads, s.Epochs, s.InlineEpochs, s.Parks, idle)
}

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

// gate is one direction of a hand-over: a generation word one side sets and
// the other awaits, by a bounded spin and then a park. It fills a cache line
// so the two directions of a worker never share one.
type gate struct {
	word   atomic.Uint64
	asleep atomic.Uint32 // 1 while the awaiting side is (about to be) parked
	wake   chan struct{} // capacity 1: a token outlives the set that sent it
	_      [40]byte
}

// set publishes v and reports whether the awaiting side had to be woken.
func (g *gate) set(v uint64) (woke bool) {
	g.word.Store(v)
	if !g.asleep.CompareAndSwap(1, 0) {
		return false
	}
	select {
	case g.wake <- struct{}{}:
	default: // an unconsumed token is already there and will do
	}
	return true
}

// await returns once the word reads want, reporting whether it had to park.
// The park is the usual announce-then-recheck: either the recheck sees the
// new word or set sees asleep and sends a token. A token left over from a
// recheck that won the race wakes a later park early; the loop re-checks.
func (g *gate) await(want uint64, spin time.Duration) (parked bool) {
	if g.word.Load() == want {
		return false
	}
	if spin > 0 {
		deadline := time.Now().Add(spin)
		for i := 1; g.word.Load() != want; i++ {
			if i%spinPoll == 0 && !time.Now().Before(deadline) {
				break
			}
		}
	}
	for g.word.Load() != want {
		g.asleep.Store(1)
		if g.word.Load() == want {
			g.asleep.Store(0)
			break
		}
		<-g.wake
		parked = true
	}
	return parked
}

// worker runs one thread's share of each parallel epoch on its own pinned
// thread.
type worker struct {
	start gate // conductor → worker: epoch generation to run
	done  gate // worker → conductor: epoch generation finished

	// Written by the conductor before start.set publishes them.
	bound sim.Time
	quit  bool

	// Written by the worker before done.set publishes it: how long its
	// claims ran.
	busy time.Duration
}

// loop is the one worker loop: await a generation, run thread t's claims,
// report them, until Close publishes quit. The thread stays locked for the
// goroutine's lifetime and dies with it.
func (c *Conductor) loop(t int, w *worker) {
	runtime.LockOSThread()
	defer c.exited.Done()
	for gen := uint64(1); ; gen++ {
		w.start.await(gen, c.spin)
		if w.quit {
			return
		}
		began := time.Now()
		c.claim(t, w.bound)
		w.busy = time.Since(began)
		w.done.set(gen)
	}
}

// startWorkers launches one worker per thread beyond the conductor's own.
func (c *Conductor) startWorkers() {
	for t := 1; t < c.threads; t++ {
		w := new(worker)
		w.start.wake = make(chan struct{}, 1)
		w.done.wake = make(chan struct{}, 1)
		c.workers = append(c.workers, w)
		c.exited.Add(1)
		go c.loop(t, w)
	}
}

// claim runs thread t's shards of a parallel epoch. With a thread per shard
// that is shard t. Otherwise the thread claims, busiest first, the shards it
// ran last epoch, then — out of its own — the busiest left in the other
// threads' groups, until none is left: the heavy shards start first and the
// light ones fill in around them (longest-first scheduling), and a shard
// changes thread only when its thread fell behind. A stolen shard stays with
// its thief, so a lasting imbalance is paid for once. One cursor over all
// the shards balanced as well but moved half of them to the other core every
// epoch: on the 10k-host point the threads were busy 1,008 ms against 909
// and the point took 599 ms against 553 (medians of five alternations, two
// vCPUs). Each shard is claimed by exactly one thread.
func (c *Conductor) claim(t int, bound sim.Time) {
	if c.order == nil {
		c.runShard(t, bound)
		return
	}
	for k := range c.next {
		g := (t + k) % len(c.next)
		for i := int(c.next[g].Add(1)) - 1; i < c.from[g+1]; i = int(c.next[g].Add(1)) - 1 {
			s := c.order[i]
			c.slots[s].thread = t
			c.runShard(s, bound)
		}
	}
}

// Close stops the workers and returns once every one of them has exited, so
// nothing of the fabric stays reachable from a worker's stack after the run.
// The conductor must not be used afterwards. Safe to call once, even if Run
// was never called.
func (c *Conductor) Close() {
	c.gen++
	for _, w := range c.workers {
		w.quit = true
		w.start.set(c.gen)
	}
	c.exited.Wait()
	c.workers = nil
}

// EpochBound is the conservative epoch-bound arithmetic, factored out of Run
// so it can be unit-tested: the horizon, lowered to the earliest due barrier
// task (the task must observe a state with no events in flight at its
// instant), and — when a lookahead applies and an event is pending at
// minEvent — lowered to minEvent + lookahead − 1.
// With T the global minimum next-event time, every cross-shard frame sent
// during such an epoch arrives at ≥ T+L > T+L−1, so bounding at T+L−1 keeps
// all deliveries in every shard's future (engines execute events at exactly
// the bound, hence the −1). Pass lookahead ≤ 0 or haveEvent == false to
// skip the lookahead clamp (single-shard mode, or an idle fabric where
// jumping straight to the next task or the horizon is safe: no pending
// event anywhere, sealed frames included).
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
// epochs of engine execution, lane hand-overs and due barrier tasks. On
// return every shard clock reads horizon, no event at or before horizon
// remains (events scheduled beyond the horizon stay pending, exactly like
// sim.Engine.Run) and every cross-shard frame is scheduled on its receiving
// engine.
func (c *Conductor) Run(horizon sim.Time) {
	steered := c.threads > 1
	if steered {
		// Thread 0 stays on this OS thread for the whole run. With only the
		// workers pinned, the first 10k-host sweep of a process read
		// 1.2–1.6 s against 0.6 in 3 of 8 processes of ISSUE 24's prototype
		// (both threads time-sliced on one vCPU, every hand-over a
		// timeslice); with the conductor pinned too, 0 of 36 sweeps did.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
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

		minT, haveEvent := c.sealedAt, c.haveSealed
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

		outwaited := c.runEpoch(bound)
		c.stats.Epochs++
		c.seal()
		if bound >= horizon || haveTask && nextTask == bound {
			c.deliver() // tasks and callers see no frame between pools
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
		if steered {
			c.steer(outwaited)
		}
	}
}

// seal closes every lane's epoch and notes the earliest frame now waiting.
func (c *Conductor) seal() {
	c.haveSealed = false
	for _, l := range c.lanes {
		if at, ok := l.Seal(); ok && (!c.haveSealed || at < c.sealedAt) {
			c.haveSealed, c.sealedAt = true, at
		}
	}
}

// deliver hands every sealed frame over on the conductor's thread, for the
// barriers where someone is about to look: a due task, or Run returning.
func (c *Conductor) deliver() {
	for _, l := range c.lanes {
		c.stats.Delivered += uint64(l.Deliver())
	}
	c.haveSealed = false
}

// runShard is one shard's epoch, on whichever thread owns the shard for it:
// schedule the frames the last epoch sent it, then execute up to bound.
func (c *Conductor) runShard(s int, bound sim.Time) {
	for _, l := range c.inbound[s] {
		c.slots[s].delivered += uint64(l.Deliver())
	}
	c.engines[s].Run(bound)
}

// runEpoch advances every engine to bound — side by side on the threads when
// parallel, one after another on this goroutine otherwise (the one inline
// loop, which is all a single engine ever runs) — and reports whether a
// worker outwaited the conductor's spin bound.
func (c *Conductor) runEpoch(bound sim.Time) (outwaited bool) {
	if !c.parallel {
		for s := range c.engines {
			c.runShard(s, bound)
		}
		c.stats.InlineEpochs++
		return false
	}
	c.gen++
	for g := range c.next { // every claim of the last epoch happened before its done.set
		c.next[g].Store(int64(c.from[g]))
	}
	began := time.Now()
	for _, w := range c.workers {
		w.bound = bound
		if w.start.set(c.gen) {
			c.stats.Parks++ // the worker's: it outwaited its own bound
		}
	}
	c.claim(0, bound)
	busy := time.Since(began)
	for _, w := range c.workers {
		if w.done.await(c.gen, c.spin) {
			c.stats.Parks++
			outwaited = true
		}
		busy += w.busy
	}
	c.stats.Busy += busy
	c.stats.Idle += time.Duration(c.threads)*time.Since(began) - busy
	return outwaited
}

// steer picks the next epoch's mode from what the last one did, and the
// claim order. One mechanism, two triggers:
//
//   - Density. An epoch is worth a hand-over only if there is work to
//     overlap, and what can overlap is what the busiest shard does not run,
//     so the conductor smooths that count (EWMA, α = 1/8) and runs inline
//     while it is under inlineBelow, parallel again once it is over
//     parallelAbove. 60–85 % of a run's epochs are its drain tail, where
//     only the barrier would be paid.
//   - Overflow. overflowRun parallel epochs in a row in which a worker
//     outwaited the conductor's spin bound mean a shard's thread is not on a
//     core; the conductor drops inline and holds there before it probes
//     again, reprobeMin at first and twice as long after each failed probe.
//
// Mode is invisible to the simulation: both run the same runShard per shard
// per epoch. So is the claim order steer regroups from what the shards ran.
func (c *Conductor) steer(outwaited bool) {
	var total, top uint64
	for s, e := range c.engines {
		n := e.Events()
		c.ran[s], c.seen[s] = n-c.seen[s], n
		total += c.ran[s]
		top = max(top, c.ran[s])
	}
	c.density += (float64(total-top) - c.density) / 8
	if c.order != nil {
		c.group()
	}

	was := c.parallel
	switch {
	case c.parallel:
		if outwaited {
			c.overflow, c.clean = c.overflow+1, 0
		} else if c.overflow, c.clean = 0, c.clean+1; c.clean == cleanRun {
			c.backoff = reprobeMin // the cores are there
		}
		if c.overflow >= overflowRun {
			c.parallel, c.overflow = false, 0
			c.held = time.Now().Add(c.backoff)
			c.backoff = min(2*c.backoff, reprobeMax)
		} else if c.density < inlineBelow {
			c.parallel, c.overflow = false, 0
		}
	case !c.held.IsZero():
		if !time.Now().Before(c.held) {
			c.held = time.Time{}
		}
	case c.density > parallelAbove:
		c.parallel = true
		if c.workers == nil {
			c.startWorkers()
		}
	}
	if c.parallel != was {
		c.stats.ModeSwitches++
	}
}

// group sorts the claim order by the thread that ran each shard last, then
// busiest first, ties by shard, and marks where each thread's group starts.
// It is an insertion sort in place, so the claim path allocates nothing
// (sort.Slice would allocate its closure), and near linear on the last
// epoch's order, which the next epoch rarely moves far.
func (c *Conductor) group() {
	for i := 1; i < len(c.order); i++ {
		s, j := c.order[i], i
		for ; j > 0 && c.claimsBefore(s, c.order[j-1]); j-- {
			c.order[j] = c.order[j-1]
		}
		c.order[j] = s
	}
	g := 0 // from[g] is the first position whose shard's thread is >= g
	for i, s := range c.order {
		for ; g <= c.slots[s].thread; g++ {
			c.from[g] = i
		}
	}
	for ; g <= c.threads; g++ {
		c.from[g] = len(c.order)
	}
}

// claimsBefore is group's order: by last thread, then busiest, then shard.
func (c *Conductor) claimsBefore(a, b int) bool {
	ta, tb := c.slots[a].thread, c.slots[b].thread
	return ta < tb || ta == tb && (c.ran[a] > c.ran[b] || c.ran[a] == c.ran[b] && a < b)
}
