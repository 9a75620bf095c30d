package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// wheelTestGranularities covers the interesting tick widths: 1 ps (every
// event gets its own tick), a fabric-sized tick, and a tick so coarse that
// whole runs share one bucket (the wheel degenerates to the heap).
var wheelTestGranularities = []Duration{1, 8 * Nanosecond, DefaultWheelGranularity, Millisecond}

// record is one observed dispatch for order comparison.
type record struct {
	id int
	at Time
}

// driveRandomWorkload runs an identical randomized schedule/cancel/rearm
// mix on the given engine and returns the exact dispatch order. The mix
// deliberately spans every wheel level: sub-tick delays, level-0/1/2 block
// distances, and far-overflow timers beyond the 2^24-tick block, plus keyed
// arrivals, zero-delay storms, and horizon-bounded Run calls. A quarter of
// the events ride four delay lines (0, 40, 80 and 120 ns), plain and keyed,
// and some wheel events take multiples of 40 ns, so line heads tie each
// other and the heap at equal instants; a zero-delay line event may set off
// more at its own instant.
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
			delay = Duration(rng.Int63n(int64(30 * Second))) // far overflow
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

// TestWheelByteIdenticalToHeap is the scheduler's core contract: for the
// same workload, the wheel backend dispatches exactly the same events at
// exactly the same times in exactly the same order as the heap, at every
// granularity.
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
			checkFreeListClean(t, e, "after wheel workload")
			if n := e.Pending(); n != 0 {
				t.Fatalf("seed %d gran %v: %d events pending after RunAll", seed, g, n)
			}
		}
	}
}

// TestWheelCountersMatchHeap checks the observable accounting (events
// fired, final clock) agrees between backends.
func TestWheelCountersMatchHeap(t *testing.T) {
	h := NewHeapEngine(3)
	driveRandomWorkload(h, 11)
	w := NewEngineWheel(3, 0)
	driveRandomWorkload(w, 11)
	if h.Events() != w.Events() {
		t.Fatalf("fired: heap %d, wheel %d", h.Events(), w.Events())
	}
	if h.Now() != w.Now() {
		t.Fatalf("final clock: heap %v, wheel %v", h.Now(), w.Now())
	}
}

// TestWheelNextEventTime exercises the conservative-time peek across bucket
// boundaries: the answer must match the heap's even when the next live
// event is parked levels away, and peeking must not disturb dispatch.
func TestWheelNextEventTime(t *testing.T) {
	e := NewEngineWheel(5, 8*Nanosecond)
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

// TestWheelFarRebase plants events many level-2 blocks apart so every
// dispatch crosses the far-overflow rebase path, and checks order.
func TestWheelFarRebase(t *testing.T) {
	e := NewEngineWheel(1, 1) // 1 ps ticks: 2^24 ticks is only ~17 µs
	var got []Time
	// Schedule in reverse so the far list is maximally unsorted.
	for i := 20; i >= 1; i-- {
		e.Schedule(Duration(i)*100*Microsecond, func() { got = append(got, e.Now()) })
	}
	e.RunAll()
	if len(got) != 20 {
		t.Fatalf("fired %d events, want 20", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("out of order at %d: %v after %v", i, got[i], got[i-1])
		}
	}
	checkFreeListClean(t, e, "after far rebase")
}

// TestWheelCompactionSweepsBuckets cancels far-future timers much faster
// than they would pop (the DCQCN rearm pattern) and checks compaction keeps
// Pending() bounded by the live count, with clean recycled records.
func TestWheelCompactionSweepsBuckets(t *testing.T) {
	e := NewEngineWheel(17, 0)
	live := 0
	e.Schedule(0, func() { live++ })
	for i := 0; i < 100_000; i++ {
		ref := e.ScheduleArg(Second+Duration(i)*Microsecond, func(any) { live++ }, nil)
		ref.Cancel()
	}
	if n := e.Pending(); n > 2*compactThreshold+8 {
		t.Fatalf("Pending() = %d after rearm storm, want compaction to bound it", n)
	}
	checkFreeListClean(t, e, "after bucket sweep")
	e.RunAll()
	if live != 1 {
		t.Fatalf("fired %d live events, want 1", live)
	}
}

// TestWheelRunHorizon checks Run(until) parks exactly at the horizon with
// events still in wheel buckets, and resumes across calls.
func TestWheelRunHorizon(t *testing.T) {
	e := NewEngineWheel(2, 0)
	var fired []Time
	for _, d := range []Duration{Microsecond, Millisecond, Second} {
		e.Schedule(d, func() { fired = append(fired, e.Now()) })
	}
	if now := e.Run(Time(50 * Microsecond)); now != Time(50*Microsecond) {
		t.Fatalf("Run returned %v, want horizon", now)
	}
	if len(fired) != 1 {
		t.Fatalf("fired %d events before 50µs, want 1", len(fired))
	}
	e.RunAll()
	if len(fired) != 3 {
		t.Fatalf("fired %d events total, want 3", len(fired))
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after RunAll", e.Pending())
	}
}

// TestWheelGranularityReporting pins the constructor's rounding contract.
func TestWheelGranularityReporting(t *testing.T) {
	if g := NewEngineWheel(1, 0).WheelGranularity(); g != DefaultWheelGranularity {
		t.Fatalf("default granularity = %v, want %v", g, DefaultWheelGranularity)
	}
	if g := NewEngineWheel(1, 1000).WheelGranularity(); g != 512 {
		t.Fatalf("granularity 1000 rounded to %v, want 512 (power of two)", g)
	}
	if g := NewEngineWheel(1, Microsecond/64).WheelGranularity(); g != 8192 {
		t.Fatalf("fabric-sized granularity rounded to %v, want 8192 ps", g)
	}
	if g := WheelGranularityFor(Microsecond); g != Microsecond/64 {
		t.Fatalf("WheelGranularityFor(1µs) = %v, want %v", g, Microsecond/64)
	}
	if g := WheelGranularityFor(0); g != DefaultWheelGranularity {
		t.Fatalf("WheelGranularityFor(0) = %v, want default", g)
	}
}

// TestWheelBlockRolloverOrder pins the covering-slot merge: flushing the
// last tick of a block moves floor into the next block, where earlier
// events may already be filed one level up (or in far). A fresh insert for
// the new block then lands straight in level 0 — and must NOT be
// dispatched before the older, earlier event still parked higher. One case
// per boundary: level-0 block (l1 covering slot), level-1 block (l2
// covering slot), and level-2 block (far filter).
func TestWheelBlockRolloverOrder(t *testing.T) {
	cases := []struct {
		name                string
		tickB, tickA, tickC uint64 // B fires first and schedules C; A must beat C
	}{
		{"l1-covering", 0xFF, 0x105, 0x108},
		{"l2-covering", 0xFFFF, 0x10500, 0x10800},
		{"far-filter", 0xFFFFFF, 0x1000500, 0x1000800},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(e *Engine) []Time {
				var got []Time
				note := func() { got = append(got, e.Now()) }
				// B sits at the last tick of its block; firing it rolls
				// floor into A's block while A is still filed above.
				e.ScheduleAt(Time(tc.tickB), func() {
					note()
					e.ScheduleAt(Time(tc.tickC), note)
				})
				e.ScheduleAt(Time(tc.tickA), note)
				e.RunAll()
				return got
			}
			want := run(NewHeapEngine(7))
			got := run(NewEngineWheel(7, 1)) // 1 ps ticks: tick == timestamp
			if len(got) != 3 || len(want) != 3 {
				t.Fatalf("fired wheel=%v heap=%v, want 3 events each", got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("dispatch %d: wheel fired at %v, heap at %v (wheel order %v)",
						i, got[i], want[i], got)
				}
			}
			if got[1] != Time(tc.tickA) {
				t.Fatalf("second dispatch at %v, want the parked event at %v", got[1], Time(tc.tickA))
			}
		})
	}
}

// bucketLen walks a level-1/2 bucket and returns how many entries and
// chunks it holds.
func bucketLen(w *wheel, head int32) (entries, chunks int) {
	for id := head; id != 0; id = w.arena.at(id).next {
		entries += int(w.arena.at(id).n)
		chunks++
	}
	return entries, chunks
}

// freeChunks counts the arena's free list.
func freeChunks(w *wheel) int {
	n := 0
	for id := w.arena.free; id != 0; id = w.arena.at(id).next {
		n++
	}
	return n
}

// TestWheelFootprintFollowsPending: the wheel's bucket memory must follow
// how many events are pending at once, not how many slots have ever been
// busy. Two equal waves of events, each pending all at once across many
// level-1 and level-2 slots, land in disjoint sets of slots; the second wave
// must be filed in the chunks the first one gave back. A wheel whose slots
// each kept their own high-water backing array would retain twice the
// memory after the second wave.
func TestWheelFootprintFollowsPending(t *testing.T) {
	e := NewEngineWheel(1, 1) // 1 ps ticks: tick == timestamp
	w := e.w
	fired := 0
	note := func(any) { fired++ }
	// A wave files perSlot[i%len] events in each of 100 level-1 slots from
	// l1From and 40 level-2 slots from l2From of the level-2 block at base.
	perSlot := []int{1, 63, 64, 127, 200, 10}
	wave := func(base uint64, l1From, l2From int) (events, slots int) {
		for i := 0; i < 100; i++ {
			for k := 0; k < perSlot[i%len(perSlot)]; k++ {
				e.ScheduleArgAt(Time(base+uint64(l1From+i)<<wheelBits+uint64(k%wheelSlots)), note, nil)
				events++
			}
		}
		for i := 0; i < 40; i++ {
			for k := 0; k < 3*perSlot[i%len(perSlot)]; k++ {
				e.ScheduleArgAt(Time(base+uint64(l2From+i)<<(2*wheelBits)+uint64(k*97)), note, nil)
				events++
			}
		}
		return events, 140
	}

	n1, _ := wave(0, 1, 1)
	if w.count != n1 {
		t.Fatalf("first wave: %d events in buckets, scheduled %d", w.count, n1)
	}
	if entries, chunks := bucketLen(w, w.l1[3]); entries != 64 || chunks != 2 {
		t.Fatalf("a 64-event slot holds %d entries in %d chunks, want 64 in 2", entries, chunks)
	}
	if filed, min := int(w.arena.used), (n1+chunkEntries-1)/chunkEntries; filed < min || filed > min+140 {
		t.Fatalf("first wave of %d events took %d chunks, want %d plus at most one per slot", n1, filed, min)
	}
	e.RunAll()
	// The high-water mark of one wave, cascades included (a level-2 slot
	// re-files into level-1 chunks before its own are all released).
	first := int(w.arena.used)
	if fired != n1 || e.Pending() != 0 || freeChunks(w) != first {
		t.Fatalf("after the first wave: fired %d of %d, %d pending, %d of %d chunks back in the arena",
			fired, n1, e.Pending(), freeChunks(w), first)
	}

	// Floor now sits in level-2 slot 40; the second wave uses level-2 slots
	// 60..99 and, once floor reaches their block, level-1 slots 128..227 of
	// the level-1 block at 50<<16 — indices the first wave never touched.
	e.ScheduleArgAt(Time(50<<(2*wheelBits)), note, nil)
	e.RunAll()
	before := fired
	n2, touched := wave(50<<(2*wheelBits), 128, 10) // l2 slots 60..99
	if n2 != n1 {
		t.Fatalf("the waves differ: %d vs %d events", n1, n2)
	}
	if got := int(w.arena.used); got > first+touched {
		t.Fatalf("second wave grew the arena from %d to %d chunks: bucket memory follows busy slots, not pending events", first, got)
	}
	e.RunAll()
	if fired-before != n2 || e.Pending() != 0 || freeChunks(w) != int(w.arena.used) {
		t.Fatalf("after the second wave: fired %d of %d, %d pending, %d of %d chunks back in the arena",
			fired-before, n2, e.Pending(), freeChunks(w), w.arena.used)
	}
}

// driveChunkBoundaryWorkload is a randomized schedule / cancel / compact /
// NextEventTime script aimed at the chunked buckets: each round fills
// level-1 and level-2 slots of one level-2 block with exactly 0, 1, 63, 64
// and 127 entries (an empty bucket, one chunk, a chunk filled to its last
// entry, the first entry of a second chunk, one short of a third), cancels
// enough of them to force compaction sweeps, peeks, and lets callbacks file
// more events into the half-drained slots. Rounds 0, 1 and 3 place directly
// (the odd ones are the heavily cancelled ones, so the sweeps run over
// chunked buckets); round 2 lands in far and reaches its slots through a
// rebase. With fill set, it is called once the first round is scheduled. The engine must run on
// 1 ps ticks for the slots to be the ones aimed at (any engine gives the
// same dispatch order).
func driveChunkBoundaryWorkload(e *Engine, seed int64, fill func()) []record {
	rng := rand.New(rand.NewSource(seed))
	var got []record
	id := 0
	var refs []EventRef
	var at func(t Time, depth int)
	at = func(t Time, depth int) {
		id++
		myID := id
		refs = append(refs, e.ScheduleAt(t, func() {
			got = append(got, record{myID, e.Now()})
			if depth < 2 && rng.Intn(4) == 0 {
				// Into the heap, level 0, or a later slot of this block.
				at(e.Now()+Duration(rng.Int63n(1<<uint(1+rng.Intn(20)))), depth+1)
			}
		}))
	}
	counts := []int{0, 1, 63, 64, 127}
	for round := 0; round < 4; round++ {
		base := uint64(round) << (3 * wheelBits)
		if round%2 == 1 {
			// Bring floor into the block first, so this round is filed in
			// its slots directly — and swept there by the cancels below.
			at(Time(base), 0)
			e.Run(Time(base))
		}
		refs = refs[:0]
		for i, k := range rng.Perm(len(counts)) {
			s1 := uint64(2 + 3*i) // level-1 slots 2, 5, 8, 11, 14 of the block's first level-1 block
			for n := 0; n < counts[k]; n++ {
				at(Time(base+s1<<wheelBits+uint64(rng.Intn(wheelSlots))), 0)
			}
		}
		for i, k := range rng.Perm(len(counts)) {
			// Level-2 slots 1..5, each aimed at one level-1 slot below it so
			// the cascade re-files the same counts one level down.
			s2, s1 := uint64(1+i), uint64(rng.Intn(wheelSlots))
			for n := 0; n < counts[k]; n++ {
				at(Time(base+s2<<(2*wheelBits)+s1<<wheelBits+uint64(rng.Intn(wheelSlots))), 0)
			}
		}
		if round == 0 && fill != nil {
			fill()
		}
		// Cancel most of the round on odd rounds (dead entries outnumber
		// live ones: compaction sweeps the buckets), a few on even ones.
		for _, ref := range refs {
			if rng.Intn(8) < 1+5*(round%2) {
				r := ref
				r.Cancel()
			}
		}
		// Drain the block in random strides, peeking in between.
		for now := base; now < base+7<<(2*wheelBits); {
			now += uint64(rng.Int63n(3 << (2 * wheelBits)))
			e.Run(Time(now))
			if next, ok := e.NextEventTime(); ok && next < Time(now) {
				panic("NextEventTime returned a past event")
			}
		}
	}
	e.RunAll()
	return got
}

// TestWheelChunkBoundariesMatchHeap: the script above dispatches exactly as
// on the reference heap engine, the slots it aims at hold the counts it aims
// for, and every chunk is back in the arena when the queue is empty.
func TestWheelChunkBoundariesMatchHeap(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		want := driveChunkBoundaryWorkload(NewHeapEngine(9), seed, nil)
		e := NewEngineWheel(9, 1)
		got := driveChunkBoundaryWorkload(e, seed, func() {
			var l1, l2 []int
			for _, s := range []int{2, 5, 8, 11, 14} {
				n, _ := bucketLen(e.w, e.w.l1[s])
				l1 = append(l1, n)
			}
			for s := 1; s <= 5; s++ {
				n, _ := bucketLen(e.w, e.w.l2[s])
				l2 = append(l2, n)
			}
			sort.Ints(l1)
			sort.Ints(l2)
			if fmt.Sprint(l1) != "[0 1 63 64 127]" || fmt.Sprint(l2) != "[0 1 63 64 127]" {
				t.Fatalf("seed %d: slots hold %v and %v entries, want [0 1 63 64 127] on both levels", seed, l1, l2)
			}
		})
		if len(got) != len(want) || len(got) < 1000 {
			t.Fatalf("seed %d: dispatched %d events, heap dispatched %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: dispatch %d = %+v, heap dispatched %+v", seed, i, got[i], want[i])
			}
		}
		checkFreeListClean(t, e, "after the chunk-boundary script")
		if e.Pending() != 0 || freeChunks(e.w) != int(e.w.arena.used) {
			t.Fatalf("seed %d: %d events pending, %d of %d chunks back in the arena", seed, e.Pending(), freeChunks(e.w), e.w.arena.used)
		}
	}
}
