package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		xs             []float64
		q1, median, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{4, 2}, 2.5, 3, 3.5},
		{[]float64{3, 1, 2}, 1.5, 2, 2.5},
		{[]float64{9, 1, 5, 3, 7}, 3, 5, 7},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8}, 2.75, 4.5, 6.25},
	} {
		d := summarize(tc.xs)
		if d.N != len(tc.xs) || !near(d.Q1, tc.q1) || !near(d.Median, tc.median) || !near(d.Q3, tc.q3) {
			t.Errorf("summarize(%v) = %+v, want q1=%v median=%v q3=%v", tc.xs, d, tc.q1, tc.median, tc.q3)
		}
	}
	if d := summarize(nil); d.N != 0 || d.Median != 0 {
		t.Errorf("summarize(nil) = %+v, want zeros", d)
	}
	if got := (dist{Median: 200, Q1: 190, Q3: 210}).spread(); !near(got, 0.1) {
		t.Errorf("spread = %v, want 0.1", got)
	}
}

// TestTailPercentile: the reported tail is the highest percentile that still
// has at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n   int
		pct float64
	}{
		{39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {4000, 99}, {10000, 99.9},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending: the function must sort
		}
		pct, v := tailPercentile(xs)
		if pct != tc.pct {
			t.Errorf("n=%d: picked p%v, want p%v", tc.n, pct, tc.pct)
		}
		if want := 1 + pct/100*float64(tc.n-1); !near(v, want) {
			t.Errorf("n=%d: p%v = %v, want %v", tc.n, pct, v, want)
		}
	}
}

func TestSlope(t *testing.T) {
	if got := slope([]float64{0, 1, 2, 3}, []float64{10, 13, 16, 19}); !near(got, 3) {
		t.Errorf("slope = %v, want 3", got)
	}
	if got := slope([]float64{1, 1}, []float64{2, 5}); got != 0 {
		t.Errorf("slope over constant x = %v, want 0", got)
	}
	if got := slope([]float64{1}, []float64{2}); got != 0 {
		t.Errorf("slope of one point = %v, want 0", got)
	}
}
