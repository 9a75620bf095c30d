package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/transport"
)

func mkFlow(id pkt.FlowID, class pkt.Class, start sim.Time) *transport.Flow {
	return &transport.Flow{ID: id, Src: 0, Dst: 1, Size: 1000, Class: class, Start: start}
}

func TestFCTRecorderLifecycle(t *testing.T) {
	r := NewFCTRecorder()
	f := mkFlow(1, pkt.ClassLossless, 10*sim.Microsecond)
	r.Started(f, 5*sim.Microsecond)
	r.Completed(1, 30*sim.Microsecond)

	started, completed := r.Counts()
	if started != 1 || completed != 1 {
		t.Fatalf("counts = %d/%d, want 1/1", started, completed)
	}
	recs := r.Records(pkt.ClassLossless)
	if len(recs) != 1 {
		t.Fatal("no record")
	}
	if recs[0].FCT() != 20*sim.Microsecond {
		t.Errorf("FCT = %v, want 20us", recs[0].FCT())
	}
	if got := recs[0].Slowdown(); got != 4 {
		t.Errorf("slowdown = %v, want 4", got)
	}
}

func TestFCTRecorderClassFiltering(t *testing.T) {
	r := NewFCTRecorder()
	for i := pkt.FlowID(1); i <= 4; i++ {
		class := pkt.ClassLossless
		if i%2 == 0 {
			class = pkt.ClassLossy
		}
		f := mkFlow(i, class, 0)
		r.Started(f, sim.Microsecond)
		r.Completed(i, sim.Time(i)*sim.Microsecond)
	}
	if got := len(r.Slowdowns(pkt.ClassLossless)); got != 2 {
		t.Errorf("lossless slowdowns = %d, want 2", got)
	}
	if got := len(r.Slowdowns(pkt.ClassLossy)); got != 2 {
		t.Errorf("lossy slowdowns = %d, want 2", got)
	}
	if got := len(r.Slowdowns(0)); got != 4 {
		t.Errorf("all slowdowns = %d, want 4", got)
	}
	if got := len(r.Records(0)); got != 4 {
		t.Errorf("all records = %d, want 4", got)
	}
}

func TestFCTRecorderIgnoresUnknownAndDuplicate(t *testing.T) {
	r := NewFCTRecorder()
	r.Completed(99, sim.Microsecond) // unknown: no panic
	f := mkFlow(1, pkt.ClassLossy, 0)
	r.Started(f, sim.Microsecond)
	r.Completed(1, 2*sim.Microsecond)
	r.Completed(1, 99*sim.Microsecond) // duplicate: first wins
	if got := r.Records(0)[0].FCT(); got != 2*sim.Microsecond {
		t.Errorf("FCT = %v, duplicate completion overwrote", got)
	}
	if s, c := r.Counts(); s != 1 || c != 1 {
		t.Errorf("counts = %d/%d, want 1/1: the unknown completion became a record", s, c)
	}
}

// TestFCTRecorderRecordsSortedByID: the record accessors come back in flow-ID
// order whatever order the flows started in, the incomplete ones included.
func TestFCTRecorderRecordsSortedByID(t *testing.T) {
	r := NewFCTRecorder()
	for _, id := range []pkt.FlowID{3, 1, 4, 2} {
		r.Started(mkFlow(id, pkt.ClassLossy, 0), sim.Microsecond)
	}
	r.Completed(3, 5*sim.Microsecond)
	r.Completed(1, 5*sim.Microsecond)
	if recs := r.Records(0); len(recs) != 2 || recs[0].Flow.ID != 1 || recs[1].Flow.ID != 3 {
		t.Errorf("completed records out of order: %+v", recs)
	}
	if inc := r.IncompleteRecords(); len(inc) != 2 || inc[0].Flow.ID != 2 || inc[1].Flow.ID != 4 {
		t.Errorf("incomplete records out of order: %+v", inc)
	}
}

// TestFCTRecorderPanicsOnDuplicateStart: the same flow started twice is a
// wiring bug (two generators or two shards claiming it) and must panic
// loudly, naming the flow, not silently replace the first record.
func TestFCTRecorderPanicsOnDuplicateStart(t *testing.T) {
	r := NewFCTRecorder()
	r.Started(mkFlow(4, pkt.ClassLossy, 0), sim.Microsecond)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "flow 4") {
			t.Fatalf("duplicate start: panic %q, want one naming flow 4", msg)
		}
	}()
	r.Started(mkFlow(4, pkt.ClassLossy, 0), sim.Microsecond)
}

func TestFCTRecorderIncompleteExcluded(t *testing.T) {
	r := NewFCTRecorder()
	r.Started(mkFlow(1, pkt.ClassLossy, 0), sim.Microsecond)
	if len(r.Slowdowns(0)) != 0 {
		t.Error("incomplete flow leaked into slowdowns")
	}
	_, completed := r.Counts()
	if completed != 0 {
		t.Error("incomplete counted as completed")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1},
		{100, 10},
		{50, 5.5},
		{25, 3.25},
		{99, 9.91},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", tt.p, got, tt.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v, want 0 (never NaN)", got)
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("singleton P99 = %v, want 7", got)
	}
}

// TestPercentileEdgeCases pins the documented linear-interpolation
// convention (rank = p/100·(n−1), interpolating between the two closest
// order statistics — not nearest-rank) and the zero-on-empty contract:
// an empty series must never produce NaN, because NaN poisons any
// downstream ranked sort (every comparison is false).
func TestPercentileEdgeCases(t *testing.T) {
	for _, p := range []float64{-5, 0, 50, 99, 100, 250} {
		if got := Percentile(nil, p); got != 0 || math.IsNaN(got) {
			t.Errorf("empty Percentile(nil, %v) = %v, want 0", p, got)
		}
		if got := Percentile([]float64{}, p); got != 0 || math.IsNaN(got) {
			t.Errorf("empty Percentile([], %v) = %v, want 0", p, got)
		}
		if got := PercentileSorted(nil, p); got != 0 || math.IsNaN(got) {
			t.Errorf("empty PercentileSorted(nil, %v) = %v, want 0", p, got)
		}
	}
	// Single element: every p returns it.
	for _, p := range []float64{-5, 0, 37, 50, 100, 250} {
		if got := Percentile([]float64{42}, p); got != 42 {
			t.Errorf("singleton P%v = %v, want 42", p, got)
		}
	}
	// Two elements: p interpolates linearly between them.
	two := []float64{10, 20}
	for _, tt := range []struct{ p, want float64 }{
		{0, 10}, {25, 12.5}, {50, 15}, {75, 17.5}, {100, 20},
		{-1, 10}, {101, 20}, // out-of-range clamps
	} {
		if got := Percentile(two, tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("two-element P%v = %v, want %v", tt.p, got, tt.want)
		}
	}
}

// TestPercentileSortedMatchesPercentile: the sorted fast path and the
// copying path must agree exactly on sorted input.
func TestPercentileSortedMatchesPercentile(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 3, 7, 2, 8}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for p := 0.0; p <= 100; p += 12.5 {
		if a, b := Percentile(xs, p), PercentileSorted(sorted, p); a != b {
			t.Errorf("P%v: Percentile=%v PercentileSorted=%v", p, a, b)
		}
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		va, vb := Percentile(xs, pa), Percentile(xs, pb)
		lo, hi := Percentile(xs, 0), Percentile(xs, 100)
		return va <= vb && lo <= va && vb <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Errorf("N = %d", s.N)
	}
	if s.Mean != 5 {
		t.Errorf("mean = %v, want 5", s.Mean)
	}
	if math.Abs(s.Std-2) > 1e-9 {
		t.Errorf("std = %v, want 2", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.Median != 4.5 {
		t.Errorf("median = %v, want 4.5", s.Median)
	}
	empty := Summarize(nil)
	if empty != (Summary{}) {
		t.Errorf("empty summary should be the zero value, got %+v", empty)
	}
}

// TestSummarizeEdgeCases: empty and single-sample series must produce a
// fully zero-valued (empty) or NaN-free (singleton) Summary — every field
// finite so downstream scorecard sorts stay total orders.
func TestSummarizeEdgeCases(t *testing.T) {
	checkFinite := func(name string, s Summary) {
		t.Helper()
		for field, v := range map[string]float64{
			"Mean": s.Mean, "Std": s.Std, "Min": s.Min, "Max": s.Max,
			"P25": s.P25, "Median": s.Median, "P75": s.P75,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want finite", name, field, v)
			}
		}
	}
	checkFinite("empty", Summarize(nil))
	checkFinite("empty-nonnil", Summarize([]float64{}))

	one := Summarize([]float64{42})
	checkFinite("singleton", one)
	if one.N != 1 || one.Mean != 42 || one.Std != 0 ||
		one.Min != 42 || one.Max != 42 ||
		one.P25 != 42 || one.Median != 42 || one.P75 != 42 {
		t.Errorf("singleton summary wrong: %+v", one)
	}
}

// TestSummarizeSingleSortEquivalence: the single-sort quartile path must
// agree with computing each percentile independently, without mutating the
// input.
func TestSummarizeSingleSortEquivalence(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7, 2, 8, 6, 4}
	orig := append([]float64(nil), xs...)
	s := Summarize(xs)
	for i := range xs {
		if xs[i] != orig[i] {
			t.Fatal("Summarize mutated its input")
		}
	}
	if s.P25 != Percentile(xs, 25) || s.Median != Percentile(xs, 50) || s.P75 != Percentile(xs, 75) {
		t.Errorf("quartiles diverge from Percentile: %+v", s)
	}
	if s.Min != 1 || s.Max != 9 {
		t.Errorf("min/max from sorted copy wrong: %+v", s)
	}
}

func TestSamplerPolls(t *testing.T) {
	eng := sim.NewEngine(1)
	v := int64(0)
	eng.Schedule(5*sim.Millisecond, func() { v = 42 })
	s := NewSampler(eng, sim.Millisecond, func() int64 { return v })
	s.Start(10 * sim.Millisecond)
	eng.RunAll()

	if len(s.Samples) != 10 {
		t.Fatalf("samples = %d, want 10", len(s.Samples))
	}
	if s.Samples[0].At != sim.Millisecond {
		t.Errorf("first sample at %v, want 1ms", s.Samples[0].At)
	}
	if s.Samples[3].Value != 0 || s.Samples[5].Value != 42 {
		t.Error("sampler did not observe the gauge transition")
	}
	if last := s.Samples[9]; last.At != 10*sim.Millisecond || last.Value != 42 {
		t.Errorf("last sample %+v, want 42 at the 10ms horizon", last)
	}
}

func TestSamplerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on zero interval")
		}
	}()
	NewSampler(sim.NewEngine(1), 0, func() int64 { return 0 })
}

func TestSlowdownNaNOnZeroIdeal(t *testing.T) {
	rec := &FlowRecord{Flow: transport.Flow{Start: 0}, Ideal: 0, End: sim.Microsecond, Done: true}
	if !math.IsNaN(rec.Slowdown()) {
		t.Error("zero ideal should yield NaN slowdown")
	}
}
