package sim

import "math/bits"

// This file implements Engine's hierarchical timer wheel.
//
// The wheel is an overflow structure in front of the engine's exact 4-ary
// near-heap: every event that does not ride a delay line (line.go) is
// dispatched FROM the heap, in the total (at, seq | arrival-key) order the
// run loop keeps across heap and lines. Time is quantised into ticks of
// 2^shift picoseconds, and the engine maintains one invariant:
//
//	events with tick(at) <  floor  live in the heap (exactly ordered),
//	events with tick(at) >= floor  live in wheel buckets (unsorted).
//
// Ticks are strict buckets of time, so every heap event's timestamp is
// strictly below every wheel event's timestamp — the heap head is always
// the global minimum. When the heap runs dry, advance() flushes the next
// occupied bucket (one tick's worth of events) into the heap in one go and
// moves floor past it; because a bucket is emptied *entirely* before any of
// its events can run, same-instant ties are re-ordered by the heap exactly
// as a heap holding every pending event would have, and results are
// byte-identical at every tick width. A tick spanning the whole run, with
// delay lines that spill into it, is that all-heap reference
// (NewHeapEngine): the identity tests hold every production tick width to
// it.
//
// Why it is fast: the heap only ever holds the current tick or two (a
// handful of events), so push/pop touch a cache-resident micro-heap instead
// of sifting through hundreds of thousands of pointers. Inserts are O(1)
// appends into a level picked by block equality against floor:
//
//	level 0: same 256-tick block as floor, one slot per tick
//	level 1: same 65536-tick block, one slot per 256 ticks
//	level 2: same 2^24-tick block, one slot per 65536 ticks
//	far:     beyond floor's 2^24-tick block (unsorted, lazily rebased)
//
// Block equality (rather than distance) sidesteps slot wraparound entirely:
// a slot can only ever hold ticks from a single block, so cascading a
// level-k slot moves floor to the start of that block and re-places its
// events one level down without ambiguity.
//
// What a bucket is. Order inside a bucket is free — the heap re-orders every
// flushed tick — so a bucket is whatever bag is cheapest to fill and empty.
// Levels 1 and 2 hold the bulk of the pending events for a long time and
// hand them all back at once, so their buckets are linked lists of fixed-size
// chunks drawn from one arena (chunkArena) and returned to it the moment the
// slot cascades or is swept: the wheel then retains memory for the peak
// number of events pending at once, not for the sum of every slot's
// high-water mark (on the 10,240-host smoke: capacity for 733k entries
// against a peak of 29k pending). Level 0 stays one plain slice per tick, a
// second representation: a tick's slice is a few dozen hot bytes where a
// chunk is a 1 KiB line-set per occupied tick. That choice was measured when
// every event still passed through level 0 (chunking it read +6 … +10 %
// wall time on the two fig7_packet points); since hop events moved to delay
// lines, level 0 carries only timers, odd-sized frames and cross-shard
// arrivals, and the ~0.3 MB its 256 slices retain is the price of not
// re-measuring.

const (
	wheelBits  = 8
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64
)

// DefaultWheelGranularity is NewEngine's tick width, and NewEngineWheel's
// for a non-positive granularity: ~16 ns (2^14 ps, already a power of
// two) spreads microsecond-scale fabric events over ~64 ticks per
// propagation delay, keeping the near-heap tiny.
const DefaultWheelGranularity = Duration(1) << 14 * Picosecond

// WheelGranularityFor sizes the wheel tick from a fabric's minimum
// propagation delay: 1/64th of the shortest hop (rounded down to a power of
// two by the engine) spreads the in-flight events of even a single hop over
// many buckets. A non-positive delay falls back to DefaultWheelGranularity.
func WheelGranularityFor(minPropDelay Duration) Duration {
	if minPropDelay <= 0 {
		return DefaultWheelGranularity
	}
	g := minPropDelay / 64
	if g < 1 {
		g = 1
	}
	return g
}

// wheelEntry pairs a bucketed event with its precomputed tick so cascades
// and rebases route entries without touching the (cache-cold) event struct.
// The event rides as its registry index (Engine.all), not a pointer: bucket
// arrays are then pointer-free, so appends skip the write barrier and the
// GC never scans the (potentially many-megabyte) wheel — the single biggest
// win at 1M pending events. Pooled event records live forever in the
// registry, so an index can never dangle.
type wheelEntry struct {
	t   uint64
	idx uint32
}

// chunkEntries is how many entries one bucket chunk holds: 63 16-byte
// entries and the 8-byte link make a chunk just under 1 KiB — large enough
// that following links is rare, small enough that a slot holding one event
// wastes little.
const chunkEntries = 63

// slabChunks is how many chunks the arena grows by (a 64 KiB slab). Growth
// adds a slab and never moves one, so growing costs no copy — a doubling
// slice would hold old and new at once, which at 100k hosts hands back part
// of what the arena saves — and chunk pointers stay valid across growth.
const (
	slabBits   = 6
	slabChunks = 1 << slabBits
)

// wheelChunk is one link of a level-1/2 bucket: pointer-free, like the
// entries it holds.
type wheelChunk struct {
	ent [chunkEntries]wheelEntry
	n   int32
	// next is the id of the next chunk of the same bucket (or, for a chunk
	// on the free list, of the free list); 0 ends the list.
	next int32
}

// chunkArena owns every chunk of one wheel. Chunks are named by 1-based id
// (0 = none, so a zero bucket head is an empty bucket); released chunks go
// to a free list threaded through next and are handed out again before the
// arena grows.
type chunkArena struct {
	slabs [][]wheelChunk
	used  int32 // chunks ever handed out: ids 1..used exist
	free  int32 // head of the free list
}

func (a *chunkArena) at(id int32) *wheelChunk {
	i := id - 1
	return &a.slabs[i>>slabBits][i&(slabChunks-1)]
}

// get hands out an empty chunk linked in front of next.
func (a *chunkArena) get(next int32) int32 {
	id := a.free
	if id != 0 {
		a.free = a.at(id).next
	} else {
		if int(a.used) == len(a.slabs)*slabChunks {
			a.slabs = append(a.slabs, make([]wheelChunk, slabChunks))
		}
		a.used++
		id = a.used
	}
	c := a.at(id)
	c.n, c.next = 0, next
	return id
}

// release returns chunk id to the free list and reports the chunk that
// followed it in its bucket. A bucket is emptied by detaching its head and
// walking `for id != 0 { ...entries of at(id)...; id = release(id) }`:
// each chunk is released only after its entries were visited, so re-filing
// them (which may take chunks from the free list) cannot overwrite them.
func (a *chunkArena) release(id int32) int32 {
	c := a.at(id)
	next := c.next
	c.next = a.free
	a.free = id
	return next
}

// add files en in the bucket whose head chunk is *head.
func (a *chunkArena) add(head *int32, en wheelEntry) {
	var c *wheelChunk
	if *head != 0 {
		c = a.at(*head)
	}
	if c == nil || c.n == chunkEntries {
		*head = a.get(*head)
		c = a.at(*head)
	}
	c.ent[c.n] = en
	c.n++
}

type wheel struct {
	shift uint   // tick width = 2^shift picoseconds
	floor uint64 // first tick that may still live in a bucket
	count int    // events resident in buckets (live + cancelled)

	l0         [wheelSlots][]wheelEntry
	l1, l2     [wheelSlots]int32 // head chunk of each bucket, 0 = empty
	arena      chunkArena
	b0, b1, b2 [wheelWords]uint64 // slot-occupancy bitmaps
	far        []wheelEntry
	// farBlock is the level-2 block far has been filtered against: far
	// holds no entries inside it. advance refilters when floor's block
	// moves (an l0 flush of a block's last tick can cross any boundary).
	farBlock uint64
}

func newWheel(granularity Duration) *wheel {
	if granularity <= 0 {
		granularity = DefaultWheelGranularity
	}
	// Round down to a power of two so tick extraction is a shift.
	return &wheel{shift: uint(bits.Len64(uint64(granularity)) - 1)}
}

// Granularity returns the wheel's tick width in simulated time.
func (w *wheel) granularity() Duration { return Duration(1) << w.shift }

func (w *wheel) tick(at Time) uint64 { return uint64(at) >> w.shift }

// before reports whether at lies at a tick below floor, so strictly before
// every event in the buckets.
func (w *wheel) before(at Time) bool { return w.tick(at) < w.floor }

// insert routes a freshly scheduled event: past-or-current ticks go to the
// exact heap, future ticks into the bucket picked by block equality.
func (w *wheel) insert(e *Engine, ev *event) {
	t := w.tick(ev.at)
	if t < w.floor {
		e.push(ev)
		return
	}
	w.place(wheelEntry{t, ev.idx})
	w.count++
}

// place files an event with tick >= floor into its bucket. Callers
// redistributing a cascaded slot rely on place never appending to w.far for
// events inside floor's level-2 block — true by construction, since the far
// branch is exactly the "outside the level-2 block" case.
func (w *wheel) place(en wheelEntry) {
	t := en.t
	switch {
	case t>>wheelBits == w.floor>>wheelBits:
		i := t & wheelMask
		w.l0[i] = append(w.l0[i], en)
		w.b0[i>>6] |= 1 << (i & 63)
	case t>>(2*wheelBits) == w.floor>>(2*wheelBits):
		i := (t >> wheelBits) & wheelMask
		w.arena.add(&w.l1[i], en)
		w.b1[i>>6] |= 1 << (i & 63)
	case t>>(3*wheelBits) == w.floor>>(3*wheelBits):
		i := (t >> (2 * wheelBits)) & wheelMask
		w.arena.add(&w.l2[i], en)
		w.b2[i>>6] |= 1 << (i & 63)
	default:
		w.far = append(w.far, en)
	}
}

// scanBits returns the lowest set bit index across the bitmap words.
func scanBits(b *[wheelWords]uint64) (uint64, bool) {
	for wi, word := range b {
		if word != 0 {
			return uint64(wi*64 + bits.TrailingZeros64(word)), true
		}
	}
	return 0, false
}

// advance is called when the heap is empty: it flushes buckets (cascading
// higher levels down as needed) until at least one live event lands in the
// heap, and reports whether it did. Cancelled events discovered on the way
// are recycled without ever touching the heap.
func (w *wheel) advance(e *Engine) bool {
	for w.count > 0 {
		// An l0 flush of a block's last tick advances floor across a block
		// boundary without cascading: events filed for the new block at a
		// higher level (or in far) would then lose races against newer,
		// later inserts that go straight to level 0. Merge every slot that
		// covers floor's current blocks down first, so the l0 scan below
		// always sees the true minimum.
		if w.syncCovering(e) {
			return true
		}
		// Level 0: one tick per slot — flush it straight into the heap.
		if i, ok := scanBits(&w.b0); ok {
			slot := w.l0[i]
			w.l0[i] = slot[:0]
			w.b0[i>>6] &^= 1 << (i & 63)
			w.count -= len(slot)
			tick := (w.floor>>wheelBits)<<wheelBits | i
			w.floor = tick + 1
			pushed := false
			for _, en := range slot {
				ev := e.all[en.idx]
				if ev.live() {
					e.push(ev)
					pushed = true
				} else {
					e.recycleDead(ev)
				}
			}
			if pushed {
				return true
			}
			continue
		}
		// Level 1: slot covers one level-0 block; move floor to its start
		// and re-place its events one level down.
		if i, ok := scanBits(&w.b1); ok {
			w.cascade(e, &w.l1[i], &w.b1, i,
				((w.floor>>(2*wheelBits))<<wheelBits|i)<<wheelBits)
			continue
		}
		// Level 2: slot covers one level-1 block.
		if i, ok := scanBits(&w.b2); ok {
			w.cascade(e, &w.l2[i], &w.b2, i,
				((w.floor>>(3*wheelBits))<<wheelBits|i)<<(2*wheelBits))
			continue
		}
		// Far overflow: rebase floor to the earliest far event's level-2
		// block, then re-place everything that entered the block. Events in
		// later blocks stay put, touched at most once per block they span.
		if !w.rebase(e) {
			return false
		}
	}
	return false
}

// syncCovering merges down the higher-level slots (and far entries) that
// cover floor's current blocks: the level-1 slot for floor's level-0 block,
// the level-2 slot for floor's level-1 block, and far entries inside
// floor's level-2 block. floor does not move — these events were filed
// before floor reached their block and now belong at a lower level (or, as
// a safety that cannot arise by construction, in the heap when their tick
// already dropped below floor). Reports whether a live event reached the
// heap, in which case the caller must return it before flushing anything.
func (w *wheel) syncCovering(e *Engine) bool {
	pushed := false
	if fb := w.floor >> (3 * wheelBits); fb != w.farBlock {
		w.farBlock = fb
		if len(w.far) > 0 {
			keep := w.far[:0]
			for _, en := range w.far {
				if en.t>>(3*wheelBits) == fb {
					pushed = w.mergeDown(e, en) || pushed
				} else {
					keep = append(keep, en)
				}
			}
			w.far = keep
		}
	}
	if i := (w.floor >> (2 * wheelBits)) & wheelMask; w.b2[i>>6]&(1<<(i&63)) != 0 {
		pushed = w.mergeSlot(e, &w.l2[i], &w.b2, i) || pushed
	}
	if i := (w.floor >> wheelBits) & wheelMask; w.b1[i>>6]&(1<<(i&63)) != 0 {
		pushed = w.mergeSlot(e, &w.l1[i], &w.b1, i) || pushed
	}
	return pushed
}

// mergeSlot empties one level-1/2 slot through mergeDown, reading its
// entries straight out of the chunks they sit in (see chunkArena.release).
func (w *wheel) mergeSlot(e *Engine, slot *int32, bitmap *[wheelWords]uint64, i uint64) bool {
	id := *slot
	*slot = 0
	bitmap[i>>6] &^= 1 << (i & 63)
	pushed := false
	for id != 0 {
		c := w.arena.at(id)
		for _, en := range c.ent[:c.n] {
			pushed = w.mergeDown(e, en) || pushed
		}
		id = w.arena.release(id)
	}
	return pushed
}

// mergeDown re-files one covering-slot entry: back into the bucket its tick
// now selects, or into the heap when floor already passed it. Reports
// whether a live event was pushed to the heap.
func (w *wheel) mergeDown(e *Engine, en wheelEntry) bool {
	if en.t >= w.floor {
		w.place(en)
		return false
	}
	w.count--
	ev := e.all[en.idx]
	if ev.live() {
		e.push(ev)
		return true
	}
	e.recycleDead(ev)
	return false
}

// cascade empties one higher-level slot: floor jumps to blockStart (every
// resident tick is >= blockStart, so the heap/bucket invariant holds and
// mergeDown only ever re-places), and the slot's events re-file into lower
// levels.
func (w *wheel) cascade(e *Engine, slot *int32, bitmap *[wheelWords]uint64, i, blockStart uint64) {
	w.floor = blockStart
	w.mergeSlot(e, slot, bitmap, i)
}

// rebase advances floor to the earliest far event's level-2 block and
// re-places the events that fall inside it. Reports false when there is
// nothing in far (the wheel is truly empty at this point).
func (w *wheel) rebase(e *Engine) bool {
	if len(w.far) == 0 {
		return false
	}
	min := w.far[0].t
	for _, en := range w.far[1:] {
		if en.t < min {
			min = en.t
		}
	}
	if b := min >> (3 * wheelBits); b > w.floor>>(3*wheelBits) {
		w.floor = b << (3 * wheelBits)
	}
	w.farBlock = w.floor >> (3 * wheelBits)
	keep := w.far[:0]
	for _, en := range w.far {
		if en.t>>(3*wheelBits) == w.farBlock {
			w.place(en) // cannot re-append to far: same level-2 block
			continue
		}
		keep = append(keep, en)
	}
	w.far = keep
	return true
}

// sweep drops cancelled events from every bucket (the wheel half of
// Engine.compact), so rearm-heavy users that cancel far-future timers keep
// Pending() proportional to the live count. The engine resets its
// cancelled counter after compaction, so sweep recycles without touching it.
// A chunked bucket is rebuilt from its live entries, so the chunks the dead
// ones occupied go back to the arena.
func (w *wheel) sweep(e *Engine) {
	// keep reports whether en is still live, recycling its record if not.
	keep := func(en wheelEntry) bool {
		ev := e.all[en.idx]
		if ev.live() {
			return true
		}
		w.count--
		ev.clear()
		ev.gen++
		e.free = append(e.free, ev)
		return false
	}
	filter := func(s []wheelEntry) []wheelEntry {
		kept := s[:0]
		for _, en := range s {
			if keep(en) {
				kept = append(kept, en)
			}
		}
		return kept
	}
	for i := range w.l0 {
		if len(w.l0[i]) == 0 {
			continue
		}
		if w.l0[i] = filter(w.l0[i]); len(w.l0[i]) == 0 {
			w.b0[i>>6] &^= 1 << (uint(i) & 63)
		}
	}
	sweepChunked := func(slots *[wheelSlots]int32, bitmap *[wheelWords]uint64) {
		for i := range slots {
			id := slots[i]
			if id == 0 {
				continue
			}
			slots[i] = 0
			for id != 0 {
				c := w.arena.at(id)
				for _, en := range c.ent[:c.n] {
					if keep(en) {
						w.arena.add(&slots[i], en)
					}
				}
				id = w.arena.release(id)
			}
			if slots[i] == 0 {
				bitmap[i>>6] &^= 1 << (uint(i) & 63)
			}
		}
	}
	sweepChunked(&w.l1, &w.b1)
	sweepChunked(&w.l2, &w.b2)
	w.far = filter(w.far)
}
