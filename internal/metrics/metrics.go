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
}

// NewFCTRecorder returns an empty recorder.
func NewFCTRecorder() *FCTRecorder {
	return &FCTRecorder{flows: make(map[pkt.FlowID]*FlowRecord)}
}

// Started records a flow at launch with its precomputed ideal FCT. A flow
// started twice is a wiring bug (two generators, or two shards, claiming one
// flow), so a duplicate ID panics rather than silently replacing the record.
func (r *FCTRecorder) Started(f *transport.Flow, ideal sim.Duration) {
	if _, dup := r.flows[f.ID]; dup {
		panic(fmt.Sprintf("metrics: flow %d started twice", f.ID))
	}
	r.flows[f.ID] = &FlowRecord{Flow: *f, Ideal: ideal}
}

// Completed records the flow's last-byte arrival; the first completion of a
// flow wins. A completion of a flow this recorder never saw start (an
// unobserved traffic class) is ignored.
func (r *FCTRecorder) Completed(id pkt.FlowID, at sim.Time) {
	rec, ok := r.flows[id]
	if !ok || rec.Done {
		return
	}
	rec.End = at
	rec.Done = true
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

// Start begins sampling until the horizon (inclusive).
func (s *Sampler) Start(until sim.Time) {
	var tick func()
	tick = func() {
		if s.eng.Now() > until {
			return
		}
		s.Samples = append(s.Samples, Reading{At: s.eng.Now(), Value: s.gauge()})
		s.eng.Schedule(s.interval, tick)
	}
	s.eng.Schedule(s.interval, tick)
}
