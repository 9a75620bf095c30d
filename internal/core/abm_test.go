package core

import (
	"math"
	"testing"

	"l2bm/internal/pkt"
)

func TestABMIngressIsDT(t *testing.T) {
	s := newFakeState()
	s.used = 2 << 20
	abm := NewABM()
	want := int64(0.5 * float64(2<<20))
	if got := abm.IngressThreshold(s, 0, pkt.PrioLossless); got != want {
		t.Errorf("ABM ingress threshold = %d, want DT(0.5) %d", got, want)
	}
}

func TestABMEgressDividesAmongCongestedQueues(t *testing.T) {
	s := newFakeState()
	abm := NewABM()

	s.congested[pkt.PrioLossy] = 1
	one := abm.EgressThreshold(s, 0, pkt.PrioLossy)
	s.congested[pkt.PrioLossy] = 4
	four := abm.EgressThreshold(s, 0, pkt.PrioLossy)
	if four*4 != one {
		t.Errorf("threshold with n=4 (%d) should be a quarter of n=1 (%d)", four, one)
	}
}

func TestABMEgressZeroCongestedTreatedAsOne(t *testing.T) {
	s := newFakeState()
	abm := NewABM()
	s.congested[pkt.PrioLossy] = 0
	zero := abm.EgressThreshold(s, 0, pkt.PrioLossy)
	s.congested[pkt.PrioLossy] = 1
	one := abm.EgressThreshold(s, 0, pkt.PrioLossy)
	if zero != one {
		t.Errorf("n=0 threshold %d should equal n=1 threshold %d", zero, one)
	}
}

func TestABMEgressScalesWithDrainRate(t *testing.T) {
	s := newFakeState()
	abm := NewABM()
	s.congested[pkt.PrioLossy] = 1

	s.drain[[2]int{0, pkt.PrioLossy}] = s.line // full rate
	full := abm.EgressThreshold(s, 0, pkt.PrioLossy)
	s.drain[[2]int{0, pkt.PrioLossy}] = s.line / 2
	half := abm.EgressThreshold(s, 0, pkt.PrioLossy)
	if half*2 != full {
		t.Errorf("half-rate threshold %d should be half of full-rate %d", half, full)
	}
}

func TestABMEgressZeroDrainFallsBack(t *testing.T) {
	s := newFakeState()
	abm := NewABM()
	s.congested[pkt.PrioLossy] = 1
	s.drain[[2]int{0, pkt.PrioLossy}] = 0
	got := abm.EgressThreshold(s, 0, pkt.PrioLossy)
	if got <= 0 {
		t.Errorf("threshold with zero drain rate = %d, want positive fallback", got)
	}
	want := int64(AlphaDT2 / 1 * float64(s.total) / float64(pkt.NumPriorities))
	if got != want {
		t.Errorf("fallback threshold = %d, want %d", got, want)
	}
}

// TestABMZeroLineRateNoNaN: on a cold-start or drained switch both the
// measured dequeue rate and (with a downed link) the line rate can read 0.
// The naive μ̂ = drain/line is then 0/0 = NaN, which slips past a `mu <= 0`
// guard (NaN compares false) and turns the threshold into garbage via
// int64(NaN). The fallback must engage instead.
func TestABMZeroLineRateNoNaN(t *testing.T) {
	s := newFakeState()
	s.line = 0 // drain defaults to line → a 0/0 quotient without the guard
	abm := NewABM()
	got := abm.EgressThreshold(s, 0, pkt.PrioLossy)
	want := int64(AlphaDT2 / 1 * float64(s.total) / float64(pkt.NumPriorities))
	if got != want {
		t.Errorf("zero-line-rate threshold = %d, want fallback %d", got, want)
	}
	if got < 0 || got > s.total {
		t.Errorf("threshold %d escaped [0, %d]", got, s.total)
	}
}

// TestNormalizedDrainRateFinite sweeps the degenerate rate combinations;
// μ̂ must always be finite and in (0, 1].
func TestNormalizedDrainRateFinite(t *testing.T) {
	for _, tc := range []struct{ drain, line int64 }{
		{0, 0}, {0, 25e9}, {25e9, 0}, {-1, 25e9}, {25e9, -1},
	} {
		s := newFakeState()
		s.line = tc.line
		s.drain[[2]int{0, pkt.PrioLossy}] = tc.drain
		mu := normalizedDrainRate(s, 0, pkt.PrioLossy)
		if math.IsNaN(mu) || math.IsInf(mu, 0) || mu <= 0 || mu > 1 {
			t.Errorf("drain=%d line=%d: μ̂ = %v, want finite in (0,1]", tc.drain, tc.line, mu)
		}
	}
}

func TestABMName(t *testing.T) {
	if NewABM().Name() != "ABM" {
		t.Error("name wrong")
	}
}
