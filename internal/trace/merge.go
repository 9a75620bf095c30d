// Canonical trace merging: a run gives every shard its own Recorder (rings
// are single-threaded like the engine that feeds them), so its trace arrives
// as N per-shard recorders. Merge folds them into one canonically-ordered
// recorder; a one-engine run routes its single recorder through the same
// function so exported trace files are byte-identical across shard counts.
package trace

import (
	"sort"

	"l2bm/internal/sim"
)

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
	var occ []OccSample
	var pfc []PFCEvent
	var weights []WeightSample
	var pkts []PacketEvent
	for _, r := range recorders {
		if r == nil {
			continue
		}
		occ = append(occ, r.OccSamples()...)
		pfc = append(pfc, r.PFCEvents()...)
		weights = append(weights, r.WeightSamples()...)
		pkts = append(pkts, r.PacketEvents()...)
	}
	sort.SliceStable(occ, func(i, j int) bool {
		if occ[i].At != occ[j].At {
			return occ[i].At < occ[j].At
		}
		return occ[i].Switch < occ[j].Switch
	})
	sort.SliceStable(pfc, func(i, j int) bool {
		if pfc[i].At != pfc[j].At {
			return pfc[i].At < pfc[j].At
		}
		return pfc[i].Switch < pfc[j].Switch
	})
	sort.SliceStable(weights, func(i, j int) bool {
		if weights[i].At != weights[j].At {
			return weights[i].At < weights[j].At
		}
		return weights[i].Switch < weights[j].Switch
	})
	sort.SliceStable(pkts, func(i, j int) bool {
		if pkts[i].At != pkts[j].At {
			return pkts[i].At < pkts[j].At
		}
		return pkts[i].Switch < pkts[j].Switch
	})

	maxLen := len(occ)
	for _, n := range []int{len(pfc), len(weights), len(pkts)} {
		if n > maxLen {
			maxLen = n
		}
	}
	if maxLen == 0 {
		maxLen = 1
	}
	out := NewRecorder(maxLen)
	for _, s := range occ {
		out.RecordOcc(s)
	}
	for _, e := range pfc {
		out.RecordPFC(e)
	}
	for _, s := range weights {
		out.RecordWeight(s)
	}
	for _, e := range pkts {
		out.RecordPacketEvent(e)
	}
	for _, r := range recorders {
		if r != nil {
			out.addEvictions(r)
		}
	}
	return out
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
	for _, s := range seg.occ.slice() {
		s.At += shift
		r.occ.push(s)
	}
	for _, e := range seg.pfc.slice() {
		e.At += shift
		r.pfc.push(e)
	}
	for _, s := range seg.weights.slice() {
		s.At += shift
		r.weights.push(s)
	}
	for _, e := range seg.pkts.slice() {
		e.At += shift
		r.pkts.push(e)
	}
	r.addEvictions(seg)
}

// addEvictions counts what from's rings discarded as discarded by r too.
func (r *Recorder) addEvictions(from *Recorder) {
	r.occ.evicted += from.occ.evicted
	r.pfc.evicted += from.pfc.evicted
	r.weights.evicted += from.weights.evicted
	r.pkts.evicted += from.pkts.evicted
}
