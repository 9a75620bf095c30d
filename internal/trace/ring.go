package trace

// ring is a bounded FIFO that overwrites its oldest entry once full — the
// flight-recorder storage discipline: a run can emit an unbounded event
// stream, memory stays O(capacity), and the *most recent* window survives,
// which is the window a post-mortem wants.
//
// Rows live in fixed-size chunks allocated as the ring fills, up to its
// capacity: an armed-but-quiet channel costs a few words, and a growing one
// never copies what it holds or leaves a discarded buffer behind — memory
// follows the rows recorded, not the cost of growing a slice.
type ring[T any] struct {
	chunks  [][]T // chunk c holds positions [c*chunkLen, c*chunkLen+len(chunks[c]))
	n       int   // retained entries
	cap     int
	start   int    // position of the oldest entry once full
	evicted uint64 // entries overwritten since the recorder was armed
}

// chunkLen is the rows per chunk, a power of two so a position splits into
// chunk and offset by shift and mask. The last chunk is cut to the capacity.
const (
	chunkBits = 8
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

func newRing[T any](capacity int) ring[T] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return ring[T]{cap: capacity}
}

// adoptRing returns a ring holding buf's rows at capacity max(len(buf), 1)
// whose storage is buf itself: its chunks are views of buf, so a caller that
// built the rows in one buffer hands them over without a copy.
func adoptRing[T any](buf []T) ring[T] {
	r := ring[T]{cap: max(len(buf), 1), n: len(buf), chunks: make([][]T, 0, (len(buf)+chunkMask)>>chunkBits)}
	for lo := 0; lo < len(buf); lo += chunkLen {
		hi := min(lo+chunkLen, len(buf))
		r.chunks = append(r.chunks, buf[lo:hi:hi])
	}
	return r
}

// push appends v, evicting the oldest entry when full.
func (r *ring[T]) push(v T) {
	if r.n < r.cap {
		c := r.n >> chunkBits
		if c == len(r.chunks) {
			r.chunks = append(r.chunks, make([]T, min(chunkLen, r.cap-r.n)))
		}
		r.chunks[c][r.n&chunkMask] = v
		r.n++
		return
	}
	r.chunks[r.start>>chunkBits][r.start&chunkMask] = v
	r.start++
	if r.start == r.cap {
		r.start = 0
	}
	r.evicted++
}

// len returns the number of retained entries.
func (r *ring[T]) len() int { return r.n }

// walk calls fn on the retained entries oldest-first, as consecutive runs of
// the ring's own storage: no copy is made, and fn must not keep the slices.
func (r *ring[T]) walk(fn func([]T)) {
	if r.n < r.cap {
		r.span(0, r.n, fn)
		return
	}
	r.span(r.start, r.cap, fn)
	r.span(0, r.start, fn)
}

// span calls fn on positions [from, to), one chunk at a time.
func (r *ring[T]) span(from, to int, fn func([]T)) {
	for from < to {
		c, off := from>>chunkBits, from&chunkMask
		end := min(len(r.chunks[c]), off+to-from)
		fn(r.chunks[c][off:end])
		from += end - off
	}
}

// slice returns the retained entries oldest-first. The result is a fresh
// slice; mutating it does not disturb the ring.
func (r *ring[T]) slice() []T {
	if r.n == 0 {
		return nil
	}
	out := make([]T, 0, r.n)
	r.walk(func(rows []T) { out = append(out, rows...) })
	return out
}
