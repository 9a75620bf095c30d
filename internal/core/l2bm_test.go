package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

func uncappedL2BM() *L2BM {
	cfg := DefaultL2BMConfig()
	cfg.BoundsLossless = WeightBounds{}
	cfg.BoundsLossy = WeightBounds{}
	return NewL2BM(cfg)
}

// enqueueWithTau installs a packet in (port, prio) whose initial sojourn
// estimate is exactly tau, by setting the destination egress backlog.
func enqueueWithTau(s *fakeState, l *L2BM, port, prio, egress int, tau sim.Duration) {
	s.qout[[2]int{egress, prio}] = sim.BytesOver(tau, s.line)
	p := admit(port, prio, egress)
	l.OnEnqueue(s, p)
}

func TestL2BMIdleDegeneratesToClassPins(t *testing.T) {
	s := newFakeState()
	s.used = 1 << 20
	l := NewDefaultL2BM()

	// Idle lossless queues sit at the pinned DT2 factor; idle lossy queues
	// at α (inside the lossy bounds [α/8, α]).
	if got, want := l.IngressThreshold(s, 0, pkt.PrioLossless), NewDT2().IngressThreshold(s, 0, pkt.PrioLossless); got != want {
		t.Errorf("idle lossless threshold = %d, want DT2's %d", got, want)
	}
	if got, want := l.IngressThreshold(s, 0, pkt.PrioLossy), NewDT().IngressThreshold(s, 0, pkt.PrioLossy); got != want {
		t.Errorf("idle lossy threshold = %d, want DT's %d", got, want)
	}
}

func TestL2BMEqualTauGivesEqualWeights(t *testing.T) {
	s := newFakeState()
	cfg := DefaultL2BMConfig()
	cfg.BoundsLossless = WeightBounds{}
	cfg.BoundsLossy = WeightBounds{}
	cfg.Normalization = NormSumTau
	l := NewL2BM(cfg)
	tau := 100 * sim.Microsecond
	enqueueWithTau(s, l, 0, pkt.PrioLossless, 4, tau)
	enqueueWithTau(s, l, 1, pkt.PrioLossless, 5, tau)

	w0 := l.Weight(s, 0, pkt.PrioLossless)
	w1 := l.Weight(s, 1, pkt.PrioLossless)
	// Paper-literal sum normalization: C = 2τ so each weight is 2α.
	want := 2 * l.cfg.Alpha
	if math.Abs(w0-want) > 1e-9 || math.Abs(w1-want) > 1e-9 {
		t.Errorf("weights = %v/%v, want both %v", w0, w1, want)
	}
}

func TestL2BMMeanNormalizationRedistributes(t *testing.T) {
	s := newFakeState()
	l := uncappedL2BM() // default NormMeanTau
	enqueueWithTau(s, l, 0, pkt.PrioLossless, 4, 50*sim.Microsecond)
	enqueueWithTau(s, l, 1, pkt.PrioLossy, 5, 150*sim.Microsecond)

	// C = mean = 100 µs: the fast queue gets 2α, the slow 2/3·α — the
	// congested queue is clamped *below* DT's share.
	fast := l.Weight(s, 0, pkt.PrioLossless)
	slow := l.Weight(s, 1, pkt.PrioLossy)
	if math.Abs(fast-2*l.cfg.Alpha) > 1e-9 {
		t.Errorf("fast weight = %v, want 2α", fast)
	}
	if math.Abs(slow-2.0/3*l.cfg.Alpha) > 1e-9 {
		t.Errorf("slow weight = %v, want 2α/3", slow)
	}
	if slow >= l.cfg.Alpha {
		t.Error("slower-than-average queue must be clamped below α")
	}
	// With equal τ everywhere, mean normalization degenerates to DT.
	s2 := newFakeState()
	l2 := uncappedL2BM()
	enqueueWithTau(s2, l2, 0, pkt.PrioLossless, 4, 80*sim.Microsecond)
	enqueueWithTau(s2, l2, 1, pkt.PrioLossy, 5, 80*sim.Microsecond)
	for port, prio := range map[int]int{0: pkt.PrioLossless, 1: pkt.PrioLossy} {
		if w := l2.Weight(s2, port, prio); math.Abs(w-l2.cfg.Alpha) > 1e-9 {
			t.Errorf("equal-τ weight = %v, want α", w)
		}
	}
}

func TestL2BMWeightInverselyProportionalToTau(t *testing.T) {
	s := newFakeState()
	l := uncappedL2BM()
	enqueueWithTau(s, l, 0, pkt.PrioLossless, 4, 50*sim.Microsecond) // fast
	enqueueWithTau(s, l, 1, pkt.PrioLossy, 5, 200*sim.Microsecond)   // slow

	fast := l.Weight(s, 0, pkt.PrioLossless)
	slow := l.Weight(s, 1, pkt.PrioLossy)
	if ratio := fast / slow; math.Abs(ratio-4) > 1e-9 {
		t.Errorf("weight ratio = %v, want 4 (inverse of τ ratio)", ratio)
	}

	// Thresholds follow weights: the fast-draining queue gets more buffer.
	s.used = 1 << 20
	ft := l.IngressThreshold(s, 0, pkt.PrioLossless)
	st := l.IngressThreshold(s, 1, pkt.PrioLossy)
	if ft <= st {
		t.Errorf("fast queue threshold %d should exceed slow queue %d", ft, st)
	}
}

func TestL2BMWeightCap(t *testing.T) {
	cfg := DefaultL2BMConfig()
	cfg.BoundsLossless = WeightBounds{Max: 2}
	cfg.BoundsLossy = WeightBounds{Max: 2}
	l := NewL2BM(cfg)
	s := newFakeState()
	// One near-zero-τ queue among many slow queues: uncapped weight would
	// be huge.
	enqueueWithTau(s, l, 0, pkt.PrioLossless, 4, 0)
	for i := 1; i < 6; i++ {
		enqueueWithTau(s, l, i, pkt.PrioLossy, 4+i%2, sim.Millisecond)
	}
	if got := l.Weight(s, 0, pkt.PrioLossless); got != 2 {
		t.Errorf("capped weight = %v, want 2", got)
	}
}

func TestL2BMTauFloorPreventsBlowup(t *testing.T) {
	s := newFakeState()
	l := uncappedL2BM()
	enqueueWithTau(s, l, 0, pkt.PrioLossless, 4, 0) // τ floors
	w := l.Weight(s, 0, pkt.PrioLossless)
	if math.IsInf(w, 1) || math.IsNaN(w) {
		t.Fatalf("weight = %v, want finite", w)
	}
	// Sole active queue with floored τ: C = floor, w = α.
	if math.Abs(w-l.cfg.Alpha) > 1e-9 {
		t.Errorf("sole active floored queue weight = %v, want α = %v", w, l.cfg.Alpha)
	}
}

func TestL2BMNormMaxTau(t *testing.T) {
	cfg := DefaultL2BMConfig()
	cfg.Normalization = NormMaxTau
	cfg.BoundsLossless = WeightBounds{}
	cfg.BoundsLossy = WeightBounds{}
	l := NewL2BM(cfg)
	s := newFakeState()
	enqueueWithTau(s, l, 0, pkt.PrioLossless, 4, 50*sim.Microsecond)
	enqueueWithTau(s, l, 1, pkt.PrioLossy, 5, 200*sim.Microsecond)

	// The slowest queue gets exactly α; the fast one 4α.
	if got := l.Weight(s, 1, pkt.PrioLossy); math.Abs(got-cfg.Alpha) > 1e-9 {
		t.Errorf("slowest queue weight = %v, want α", got)
	}
	if got := l.Weight(s, 0, pkt.PrioLossless); math.Abs(got-4*cfg.Alpha) > 1e-9 {
		t.Errorf("fast queue weight = %v, want 4α", got)
	}
}

func TestL2BMNormCount(t *testing.T) {
	cfg := DefaultL2BMConfig()
	cfg.Normalization = NormCount
	cfg.BoundsLossless = WeightBounds{}
	cfg.BoundsLossy = WeightBounds{}
	l := NewL2BM(cfg)
	s := newFakeState()
	enqueueWithTau(s, l, 0, pkt.PrioLossless, 4, cfg.TauFloor)
	enqueueWithTau(s, l, 1, pkt.PrioLossy, 5, cfg.TauFloor)

	// C = 2·floor and τ = floor for both: w = 2α each.
	for port, prio := range map[int]int{0: pkt.PrioLossless, 1: pkt.PrioLossy} {
		if got := l.Weight(s, port, prio); math.Abs(got-2*cfg.Alpha) > 1e-9 {
			t.Errorf("port %d weight = %v, want 2α", port, got)
		}
	}
}

func TestL2BMThresholdScalesWithFreeBuffer(t *testing.T) {
	s := newFakeState()
	l := NewDefaultL2BM()
	enqueueWithTau(s, l, 0, pkt.PrioLossless, 4, 100*sim.Microsecond)

	s.used = 0
	t0 := l.IngressThreshold(s, 0, pkt.PrioLossless)
	s.used = s.total / 2
	t1 := l.IngressThreshold(s, 0, pkt.PrioLossless)
	if t1*2 != t0 {
		t.Errorf("threshold at half-full (%d) should be half of empty (%d)", t1, t0)
	}
	s.used = s.total
	if got := l.IngressThreshold(s, 0, pkt.PrioLossless); got != 0 {
		t.Errorf("threshold at full buffer = %d, want 0", got)
	}
}

func TestL2BMEgressIsStandardDT(t *testing.T) {
	s := newFakeState()
	s.pool[pkt.ClassLossy] = 1 << 20
	l := NewDefaultL2BM()
	want := NewDT().EgressThreshold(s, 0, pkt.PrioLossy)
	if got := l.EgressThreshold(s, 0, pkt.PrioLossy); got != want {
		t.Errorf("L2BM egress threshold = %d, want DT's %d", got, want)
	}
}

func TestL2BMConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*L2BMConfig)
	}{
		{"zero alpha", func(c *L2BMConfig) { c.Alpha = 0 }},
		{"zero tau floor", func(c *L2BMConfig) { c.TauFloor = 0 }},
		{"bad normalization", func(c *L2BMConfig) { c.Normalization = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultL2BMConfig()
			tt.mutate(&cfg)
			defer func() {
				if recover() == nil {
					t.Error("NewL2BM should panic on invalid config")
				}
			}()
			NewL2BM(cfg)
		})
	}
}

func TestNormalizationString(t *testing.T) {
	if NormSumTau.String() != "sum-tau" || NormMaxTau.String() != "max-tau" || NormCount.String() != "count" {
		t.Error("Normalization strings wrong")
	}
	if Normalization(9).String() != "normalization(9)" {
		t.Error("unknown normalization string wrong")
	}
}

// Property (paper Eq. 8/9): if every active queue sits exactly at its
// threshold, total occupancy solves Q = B·Σw/(1+Σw), i.e. the thresholds
// evaluated at Q sum back to Q. Verified for random queue populations.
func TestL2BMSteadyStateFixedPointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newFakeState()
		l := uncappedL2BM()

		n := 1 + rng.Intn(6)
		prios := []int{pkt.PrioLossless, pkt.PrioLossy}
		type q struct{ port, prio int }
		queues := make([]q, 0, n)
		for i := 0; i < n; i++ {
			prio := prios[rng.Intn(2)]
			tau := sim.Duration(1+rng.Intn(500)) * sim.Microsecond
			enqueueWithTau(s, l, i, prio, 6+i%2, tau)
			queues = append(queues, q{i, prio})
		}

		var sumW float64
		for _, qu := range queues {
			sumW += l.Weight(s, qu.port, qu.prio)
		}
		qStar := float64(s.total) * sumW / (1 + sumW)
		s.used = int64(qStar)

		var sumT int64
		for _, qu := range queues {
			sumT += l.IngressThreshold(s, qu.port, qu.prio)
		}
		// Rounding slack: one byte of truncation per threshold, plus the
		// Q* truncation amplified by Σw when re-evaluating B − Q.
		diff := math.Abs(float64(sumT) - qStar)
		return diff <= float64(n)+sumW+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: weights are always positive and finite, whatever the queue
// population and occupancy.
func TestL2BMWeightSanityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newFakeState()
		l := NewDefaultL2BM()
		for i := 0; i < rng.Intn(10); i++ {
			enqueueWithTau(s, l, rng.Intn(8), rng.Intn(8), rng.Intn(8),
				sim.Duration(rng.Intn(1_000_000))*sim.Nanosecond)
		}
		s.used = int64(rng.Intn(int(s.total + 1000)))
		for port := 0; port < 8; port++ {
			for prio := 0; prio < 8; prio++ {
				w := l.Weight(s, port, prio)
				if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
					return false
				}
				if th := l.IngressThreshold(s, port, prio); th < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestL2BMNameAndSojournAccessor(t *testing.T) {
	l := NewDefaultL2BM()
	if l.Name() != "L2BM" {
		t.Error("name wrong")
	}
	if l.Sojourn() == nil {
		t.Error("Sojourn accessor returned nil")
	}
}

func TestPeekSamplesMatchesWeightAndThreshold(t *testing.T) {
	for _, norm := range []Normalization{NormSumTau, NormMeanTau, NormMaxTau, NormCount} {
		cfg := DefaultL2BMConfig()
		cfg.Normalization = norm
		l := NewL2BM(cfg)
		s := newFakeState()
		s.used = 1 << 20

		// Two active queues with different taus: a lossless and a lossy one.
		enqueueWithTau(s, l, 0, pkt.PrioLossless, 3, 2*sim.Microsecond)
		enqueueWithTau(s, l, 1, pkt.PrioLossy, 2, 8*sim.Microsecond)
		s.now += sim.Microsecond

		// Peek first, then compare against Weight/IngressThreshold.
		samples := l.PeekSamplesAppend(nil, s)
		if len(samples) != 2 {
			t.Fatalf("[%v] PeekSamplesAppend = %d entries, want 2", norm, len(samples))
		}
		again := l.PeekSamplesAppend(nil, s)
		for i := range samples {
			if samples[i] != again[i] {
				t.Errorf("[%v] repeated peek diverged: %+v vs %+v", norm, samples[i], again[i])
			}
		}
		for _, qs := range samples {
			if w := l.Weight(s, qs.Port, qs.Prio); math.Abs(w-qs.Weight) > 1e-12 {
				t.Errorf("[%v] peeked weight(%d,%d) = %v, Weight = %v", norm, qs.Port, qs.Prio, qs.Weight, w)
			}
			if th := l.IngressThreshold(s, qs.Port, qs.Prio); th != qs.Threshold {
				t.Errorf("[%v] peeked threshold(%d,%d) = %d, IngressThreshold = %d", norm, qs.Port, qs.Prio, qs.Threshold, th)
			}
		}
	}
}

func TestPeekSamplesIdleIsNil(t *testing.T) {
	l := NewDefaultL2BM()
	if got := l.PeekSamplesAppend(nil, newFakeState()); got != nil {
		t.Errorf("idle PeekSamplesAppend = %v, want nil", got)
	}
}

func TestWeightBoundsPinned(t *testing.T) {
	tests := []struct {
		b    WeightBounds
		want bool
	}{
		{WeightBounds{}, false},
		{WeightBounds{Max: 0.5}, false},
		{WeightBounds{Min: 0.5}, false},
		{WeightBounds{Min: 0.1, Max: 0.5}, false},
		{WeightBounds{Min: 0.5, Max: 0.5}, true},
	}
	for _, tt := range tests {
		if got := tt.b.pinned(); got != tt.want {
			t.Errorf("%+v.pinned() = %v, want %v", tt.b, got, tt.want)
		}
		if !tt.want {
			continue
		}
		// What pinned promises: clamp ignores its argument.
		for _, w := range []float64{0, 1e-12, tt.b.Min, 7, math.Inf(1)} {
			if got := tt.b.clamp(w); got != tt.b.Min {
				t.Errorf("%+v.clamp(%v) = %v, want the pin %v", tt.b, w, got, tt.b.Min)
			}
		}
	}
}

// A class whose bounds pin the weight is answered without evaluating the
// sojourn table — the PFC check asks on every lossless enqueue and dequeue —
// while an adaptive class is still evaluated, and both agree with a twin
// policy that evaluates everything and clamps afterwards. Neither kind of
// Weight call moves any queue's estimate: reads never write.
func TestL2BMPinnedClassSkipsEvaluation(t *testing.T) {
	queues := []struct {
		port, prio, egress int
		tau                sim.Duration
	}{
		{0, pkt.PrioLossless, 4, 300 * sim.Microsecond},
		{1, pkt.PrioLossy, 5, 20 * sim.Microsecond},
		{2, pkt.PrioLossy, 6, 90 * sim.Microsecond},
	}
	// The twin evaluates every class unbounded; the default bounds are
	// applied to its answers by hand below.
	unbounded := DefaultL2BMConfig()
	unbounded.BoundsLossless, unbounded.BoundsLossy = WeightBounds{}, WeightBounds{}
	l, twin := NewDefaultL2BM(), NewL2BM(unbounded)
	s, s2 := newFakeState(), newFakeState()
	for _, q := range queues {
		enqueueWithTau(s, l, q.port, q.prio, q.egress, q.tau)
		enqueueWithTau(s2, twin, q.port, q.prio, q.egress, q.tau)
	}
	enqueuedAt := s.now
	s.now += 3 * sim.Microsecond
	s2.now = s.now

	if got := l.Weight(s, 0, pkt.PrioLossless); got != AlphaDT2 {
		t.Errorf("pinned lossless weight = %v, want %v", got, AlphaDT2)
	}

	def := DefaultL2BMConfig()
	for _, q := range queues {
		bounds := def.BoundsLossy
		if ClassOfPriority(q.prio) == pkt.ClassLossless {
			bounds = def.BoundsLossless
		}
		want := bounds.clamp(twin.Weight(s2, q.port, q.prio))
		if got := l.Weight(s, q.port, q.prio); got != want {
			t.Errorf("Weight(%d,%d) = %v, evaluate-then-clamp twin = %v", q.port, q.prio, got, want)
		}
	}
	for _, q := range l.Sojourn().active {
		if q.lastUpdate != enqueuedAt {
			t.Errorf("Weight moved queue prio %d to %v, want it left at %v", q.prio, q.lastUpdate, enqueuedAt)
		}
	}
}
