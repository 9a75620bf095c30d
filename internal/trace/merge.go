// Canonical trace merging: a run gives every shard its own Recorder (rings
// are single-threaded like the engine that feeds them), so its trace arrives
// as N per-shard recorders. Merge folds them into one canonically-ordered
// recorder; a one-engine run routes its single recorder through the same
// function so exported trace files are byte-identical across shard counts.
package trace

import (
	"cmp"
	"slices"
	"strings"

	"l2bm/internal/sim"
)

// row is what merging needs of a channel's row type: its (time, switch)
// sort key and a copy re-based by a time shift.
type row[T any] interface {
	stamp() (sim.Time, string)
	shifted(sim.Time) T
}

func (s OccSample) stamp() (sim.Time, string)          { return s.At, s.Switch }
func (s OccSample) shifted(d sim.Time) OccSample       { s.At += d; return s }
func (e PFCEvent) stamp() (sim.Time, string)           { return e.At, e.Switch }
func (e PFCEvent) shifted(d sim.Time) PFCEvent         { e.At += d; return e }
func (s WeightSample) stamp() (sim.Time, string)       { return s.At, s.Switch }
func (s WeightSample) shifted(d sim.Time) WeightSample { s.At += d; return s }
func (e pktRow) stamp() (sim.Time, string)             { return e.At, e.Switch }
func (e pktRow) shifted(d sim.Time) pktRow             { e.At += d; return e }

// Merge combines the retained events of the given recorders into one new
// recorder in canonical order: each channel is stably sorted by (time,
// switch name). Every switch lives on exactly one shard, so its events
// arrive already time-ordered within one input and the stable sort
// preserves that per-switch order while fixing a deterministic interleave
// across switches — the result depends only on what was recorded, never on
// how the recording was split across shards. Nil inputs are skipped. Each
// channel is written into one buffer sized to hold every input row (no
// eviction during the merge), sorted there and adopted as the output's
// storage; it carries the inputs' summed eviction counts, so Stats on the
// result still says how much history the run lost. Note that per-shard rings
// only hold identical content for every shard count as long as no input ring
// evicted history; size capacities accordingly when byte-identical traces
// matter.
func Merge(recorders ...*Recorder) *Recorder {
	return &Recorder{
		occ:     merged(recorders, func(r *Recorder) *ring[OccSample] { return &r.occ }),
		pfc:     merged(recorders, func(r *Recorder) *ring[PFCEvent] { return &r.pfc }),
		weights: merged(recorders, func(r *Recorder) *ring[WeightSample] { return &r.weights }),
		pkts:    merged(recorders, func(r *Recorder) *ring[pktRow] { return &r.pkts }),
	}
}

// merged is one channel of Merge: the channel's rows of every non-nil
// recorder, read in place from its ring into one exactly-sized buffer,
// sorted there, and adopted as the result's storage.
func merged[T row[T]](recorders []*Recorder, channel func(*Recorder) *ring[T]) ring[T] {
	n := 0
	var evicted uint64
	for _, r := range recorders {
		if r != nil {
			n += channel(r).len()
			evicted += channel(r).evicted
		}
	}
	buf := make([]T, 0, n)
	for _, r := range recorders {
		if r != nil {
			channel(r).walk(func(rows []T) { buf = append(buf, rows...) })
		}
	}
	sortRows(buf)
	out := adoptRing(buf)
	out.evicted = evicted
	return out
}

// sortRows stably sorts rows by (time, switch name).
func sortRows[T row[T]](rows []T) {
	slices.SortStableFunc(rows, func(a, b T) int {
		at, as := a.stamp()
		bt, bs := b.stamp()
		if c := cmp.Compare(at, bt); c != 0 {
			return c
		}
		return strings.Compare(as, bs)
	})
}

// Absorb appends seg's retained rows to r with their timestamps shifted by
// shift — how the hybrid driver re-bases a packet segment's recording onto
// the run's clock — and adds what seg's rings had already evicted to r's
// counts, so rows lost inside a segment are still reported. A nil r or seg
// is a no-op.
func (r *Recorder) Absorb(seg *Recorder, shift sim.Time) {
	if r == nil || seg == nil {
		return
	}
	absorb(&r.occ, &seg.occ, shift)
	absorb(&r.pfc, &seg.pfc, shift)
	absorb(&r.weights, &seg.weights, shift)
	absorb(&r.pkts, &seg.pkts, shift)
}

// absorb pushes src's retained rows, oldest first and shifted, onto dst and
// counts src's evictions as dst's.
func absorb[T row[T]](dst, src *ring[T], shift sim.Time) {
	src.walk(func(rows []T) {
		for _, v := range rows {
			dst.push(v.shifted(shift))
		}
	})
	dst.evicted += src.evicted
}
