// Package metrics collects and summarizes what the paper's evaluation
// reports: flow completion times normalized to an ideal baseline (FCT
// slowdown), percentiles and CDFs, periodic buffer-occupancy traces, and
// query-latency summaries with the error-bar statistics of Fig. 10(b).
package metrics

import (
	"fmt"
	"math"
	"sort"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/transport"
)

// FlowRecord is one flow's lifecycle.
type FlowRecord struct {
	Flow  transport.Flow
	Ideal sim.Duration
	End   sim.Time
	Done  bool
}

// FCT returns the measured completion time (valid when Done).
func (r *FlowRecord) FCT() sim.Duration { return r.End - r.Flow.Start }

// Slowdown returns FCT normalized by the ideal FCT on an empty network.
func (r *FlowRecord) Slowdown() float64 {
	if r.Ideal <= 0 {
		return math.NaN()
	}
	return float64(r.FCT()) / float64(r.Ideal)
}

// FCTRecorder matches flow starts with completions. It is single-threaded
// like the engine.
type FCTRecorder struct {
	flows map[pkt.FlowID]*FlowRecord

	// orphans holds completions that arrived before (or without) a Started
	// record. In a sequential run these are flows of an unobserved traffic
	// class; in a sharded run a flow Started on its source host's shard
	// recorder while its completion fires on the destination's, so the
	// orphan is matched to its start when the per-shard recorders are
	// Merged. Only the first completion per ID is retained.
	orphans map[pkt.FlowID]sim.Time
}

// NewFCTRecorder returns an empty recorder.
func NewFCTRecorder() *FCTRecorder {
	return &FCTRecorder{
		flows:   make(map[pkt.FlowID]*FlowRecord),
		orphans: make(map[pkt.FlowID]sim.Time),
	}
}

// Started records a flow at launch with its precomputed ideal FCT.
func (r *FCTRecorder) Started(f *transport.Flow, ideal sim.Duration) {
	r.flows[f.ID] = &FlowRecord{Flow: *f, Ideal: ideal}
}

// Completed records the flow's last-byte arrival. A completion for a flow
// this recorder never saw start is parked as an orphan so a later Merge
// can match it with the start recorded on another shard.
func (r *FCTRecorder) Completed(id pkt.FlowID, at sim.Time) {
	rec, ok := r.flows[id]
	if !ok {
		if _, dup := r.orphans[id]; !dup {
			r.orphans[id] = at
		}
		return
	}
	if rec.Done {
		return
	}
	// Started may run before the host stamps Flow.Start; both happen at
	// the same instant, so backfill defensively.
	rec.End = at
	rec.Done = true
}

// Orphans returns the number of completions still unmatched with a start.
func (r *FCTRecorder) Orphans() int { return len(r.orphans) }

// sortedFlowIDs returns the recorder's started-flow IDs ascending.
func (r *FCTRecorder) sortedFlowIDs() []pkt.FlowID {
	ids := make([]pkt.FlowID, 0, len(r.flows))
	for id := range r.flows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// sortedOrphanIDs returns the recorder's orphaned-completion IDs ascending.
func (r *FCTRecorder) sortedOrphanIDs() []pkt.FlowID {
	ids := make([]pkt.FlowID, 0, len(r.orphans))
	for id := range r.orphans {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Merge returns a new recorder holding the union of r and every other
// recorder: flow records are unioned by pkt.FlowID (two recorders claiming
// the same started flow is a wiring bug, so a duplicate ID panics — IDs
// are visited in sorted order, making the panic deterministic), and orphan
// completions from any input are matched against starts from any other, so
// per-shard recorders — where a flow starts on the source host's shard and
// completes on the destination's — collate into exactly the record set a
// sequential run produces. Inputs are not mutated; records are copied.
func (r *FCTRecorder) Merge(others ...*FCTRecorder) *FCTRecorder {
	out := NewFCTRecorder()
	all := make([]*FCTRecorder, 0, 1+len(others))
	all = append(all, r)
	all = append(all, others...)
	for _, src := range all {
		if src == nil {
			continue
		}
		for _, id := range src.sortedFlowIDs() {
			if _, dup := out.flows[id]; dup {
				panic(fmt.Sprintf("metrics: flow %d started in two recorders passed to Merge", id))
			}
			rec := *src.flows[id]
			out.flows[id] = &rec
		}
	}
	for _, src := range all {
		if src == nil {
			continue
		}
		for _, id := range src.sortedOrphanIDs() {
			at := src.orphans[id]
			if rec, ok := out.flows[id]; ok {
				if !rec.Done {
					rec.End = at
					rec.Done = true
				}
				continue
			}
			if _, dup := out.orphans[id]; !dup {
				out.orphans[id] = at
			}
		}
	}
	return out
}

// Counts returns (started, completed) totals.
func (r *FCTRecorder) Counts() (started, completed int) {
	for _, rec := range r.flows {
		started++
		if rec.Done {
			completed++
		}
	}
	return started, completed
}

// Slowdowns returns the slowdown of every completed flow of class c
// (any class if c == 0), sorted ascending.
func (r *FCTRecorder) Slowdowns(c pkt.Class) []float64 {
	var out []float64
	for _, rec := range r.flows {
		if rec.Done && (c == 0 || rec.Flow.Class == c) {
			out = append(out, rec.Slowdown())
		}
	}
	sort.Float64s(out)
	return out
}

// FCTs returns the completion times of completed flows of class c (any
// class if c == 0), sorted ascending.
func (r *FCTRecorder) FCTs(c pkt.Class) []sim.Duration {
	var out []sim.Duration
	for _, rec := range r.flows {
		if rec.Done && (c == 0 || rec.Flow.Class == c) {
			out = append(out, rec.FCT())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Records returns completed flow records of class c (any class if c == 0).
func (r *FCTRecorder) Records(c pkt.Class) []*FlowRecord {
	var out []*FlowRecord
	for _, rec := range r.flows {
		if rec.Done && (c == 0 || rec.Flow.Class == c) {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Flow.ID < out[j].Flow.ID })
	return out
}

// IncompleteRecords returns records of flows that started but never
// completed, sorted by flow ID. Empty in a healthy run; under fault
// injection it identifies exactly which transfers were lost.
func (r *FCTRecorder) IncompleteRecords() []*FlowRecord {
	var out []*FlowRecord
	for _, rec := range r.flows {
		if !rec.Done {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Flow.ID < out[j].Flow.ID })
	return out
}

// sortedCopy returns an ascending copy of xs, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return sorted
}

// Percentile returns the p-th percentile (0–100) of sorted-or-not xs by
// linear interpolation between the two closest order statistics (the
// rank is p/100·(n−1); numpy's default convention — not nearest-rank).
// p outside [0, 100] clamps to min/max; 0 for empty input — an empty
// sample set (e.g. an arena cell where a policy dropped every flow of
// one class) must yield a zero-valued statistic, never NaN, because NaN
// compares false against everything and silently poisons ranked sorts.
// xs is copied, never mutated. Callers holding an already-sorted sample
// set should use PercentileSorted to skip the copy and re-sort.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return PercentileSorted(sortedCopy(xs), p)
}

// PercentileSorted is Percentile over an already ascending-sorted sample
// set, avoiding the defensive copy-and-sort. The input must be sorted;
// behavior on unsorted input is undefined. Like Percentile, empty input
// yields 0, never NaN.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Summary condenses a sample set into the statistics Fig. 10(b) plots.
type Summary struct {
	N                int
	Mean, Std        float64
	Min, Max         float64
	P25, Median, P75 float64
}

// Summarize computes a Summary; zero value for empty input. The sample
// set is sorted once and all three quartiles are read from the sorted
// copy (previously each percentile re-copied and re-sorted the input).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs)}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	s.Mean = sum / float64(len(xs))
	variance := sq/float64(len(xs)) - s.Mean*s.Mean
	if variance > 0 {
		s.Std = math.Sqrt(variance)
	}
	sorted := sortedCopy(xs)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.P25 = PercentileSorted(sorted, 25)
	s.Median = PercentileSorted(sorted, 50)
	s.P75 = PercentileSorted(sorted, 75)
	return s
}

// Sampler polls a gauge on a fixed period — the paper records switch
// occupancy every 1 ms (Fig. 8).
type Sampler struct {
	eng      *sim.Engine
	interval sim.Duration
	gauge    func() int64
	stopped  bool

	// Samples accumulates readings in time order.
	Samples []Reading
}

// Reading is one timestamped gauge value.
type Reading struct {
	At    sim.Time
	Value int64
}

// NewSampler builds a sampler polling gauge every interval once started.
func NewSampler(eng *sim.Engine, interval sim.Duration, gauge func() int64) *Sampler {
	if interval <= 0 {
		panic("metrics: sampler interval must be positive")
	}
	return &Sampler{eng: eng, interval: interval, gauge: gauge}
}

// Start begins sampling until the horizon (exclusive) or Stop.
func (s *Sampler) Start(until sim.Time) {
	var tick func()
	tick = func() {
		if s.stopped || s.eng.Now() > until {
			return
		}
		s.Samples = append(s.Samples, Reading{At: s.eng.Now(), Value: s.gauge()})
		s.eng.Schedule(s.interval, tick)
	}
	s.eng.Schedule(s.interval, tick)
}

// Stop halts sampling.
func (s *Sampler) Stop() { s.stopped = true }

// Values extracts the samples as float64s.
func (s *Sampler) Values() []float64 {
	out := make([]float64, len(s.Samples))
	for i, r := range s.Samples {
		out[i] = float64(r.Value)
	}
	return out
}
