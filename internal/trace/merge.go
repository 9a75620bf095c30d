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
func (e PacketEvent) stamp() (sim.Time, string)        { return e.At, e.Switch }
func (e PacketEvent) shifted(d sim.Time) PacketEvent   { e.At += d; return e }

// Merge combines the retained events of the given recorders into one new
// recorder in canonical order: each channel is stably sorted by (time,
// switch name). Every switch lives on exactly one shard, so its events
// arrive already time-ordered within one input and the stable sort
// preserves that per-switch order while fixing a deterministic interleave
// across switches — the result depends only on what was recorded, never on
// how the recording was split across shards. Nil inputs are skipped; the
// output's channels are sized to hold everything (no eviction during the
// merge) and carry the inputs' summed eviction counts, so Stats on the
// result still says how much history the run lost. Note that per-shard rings
// only hold identical content for every shard count as long as no input ring
// evicted history; size capacities accordingly when byte-identical traces
// matter.
func Merge(recorders ...*Recorder) *Recorder {
	var n Stats
	for _, r := range recorders {
		st := r.Stats()
		n.OccSamples += st.OccSamples
		n.PFCEvents += st.PFCEvents
		n.WeightSamples += st.WeightSamples
		n.PacketEvents += st.PacketEvents
	}
	out := &Recorder{
		occ:     newRing[OccSample](max(int(n.OccSamples), 1)),
		pfc:     newRing[PFCEvent](max(int(n.PFCEvents), 1)),
		weights: newRing[WeightSample](max(int(n.WeightSamples), 1)),
		pkts:    newRing[PacketEvent](max(int(n.PacketEvents), 1)),
	}
	for _, r := range recorders {
		out.Absorb(r, 0)
	}
	// Nothing was evicted, so every buffer is oldest-first from index 0.
	sortRows(out.occ.buf)
	sortRows(out.pfc.buf)
	sortRows(out.weights.buf)
	sortRows(out.pkts.buf)
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
	for _, v := range src.slice() {
		dst.push(v.shifted(shift))
	}
	dst.evicted += src.evicted
}
