package main

import (
	"math"
	"sort"
)

// dist summarises one timing sample set: the median, the quartiles that
// bracket it and the sample count, as every end-to-end number is reported.
type dist struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// spread is the inter-quartile distance as a share of the median — the
// run-to-run noise figure -compare weighs against a metric's bound.
func (d dist) spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return (d.Q3 - d.Q1) / math.Abs(d.Median)
}

// quantile returns the p-quantile (0..1) of sorted by linear interpolation
// between closest ranks (the "inclusive" method: p=0 is the minimum, p=1 the
// maximum).
func quantile(sorted []float64, p float64) float64 {
	switch len(sorted) {
	case 0:
		return 0
	case 1:
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// summarize sorts a copy of xs and returns its median and quartiles.
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

func median(xs []float64) float64 { return summarize(xs).Median }

// tailPerMille are the candidates tailPercentile chooses from, highest
// first, in thousandths (so that "ten beyond" is integer arithmetic).
var tailPerMille = []int{999, 990, 950, 900, 750}

// tailPercentile picks the highest percentile that still has at least ten
// samples beyond it (a p99 of 200 samples rests on two of them; a p95 on
// ten) and returns it with its value. With fewer than 40 samples nothing
// above the median qualifies and it reports the median itself.
func tailPercentile(xs []float64) (pct, value float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, pm := range tailPerMille {
		if len(s)*(1000-pm)/1000 >= 10 {
			return float64(pm) / 10, quantile(s, float64(pm)/1000)
		}
	}
	return 50, quantile(s, 0.5)
}

// slope is the least-squares slope of ys over xs (0 with fewer than two
// points or no spread in xs).
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if len(xs) < 2 || len(xs) != len(ys) {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
