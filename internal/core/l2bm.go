package core

import (
	"fmt"
	"math"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// Normalization selects how L2BM computes the constant C in Eq. (3). The
// paper normalizes C to the sum of average sojourn times over all ingress
// queues; alternatives are provided for the ablation study.
type Normalization int

const (
	// NormSumTau is the paper's literal phrasing: C = Σ_q τ_q over active
	// queues. With N similarly congested queues every weight becomes N·α,
	// which inflates all thresholds as activity grows.
	NormSumTau Normalization = iota + 1
	// NormMeanTau sets C = Σ_q τ_q / N (the mean): queues draining faster
	// than average get w > α, slower-than-average (congested) queues get
	// w < α. This keeps the aggregate elasticity comparable to DT while
	// redistributing buffer toward fast-draining queues — the behaviour
	// the paper's evaluation exhibits (low occupancy AND few pauses) — and
	// is the default here. The paper notes "the normalization method can
	// be customized" (§III-C).
	NormMeanTau
	// NormMaxTau sets C = max_q τ_q, so the slowest queue gets exactly α.
	NormMaxTau
	// NormCount sets C = (#active queues) · τ_floor, a static weighting
	// that ignores relative congestion (ablation control).
	NormCount
)

// String implements fmt.Stringer.
func (n Normalization) String() string {
	switch n {
	case NormSumTau:
		return "sum-tau"
	case NormMeanTau:
		return "mean-tau"
	case NormMaxTau:
		return "max-tau"
	case NormCount:
		return "count"
	default:
		return fmt.Sprintf("normalization(%d)", int(n))
	}
}

// L2BMConfig parameterizes the L2BM policy. The zero value is not valid;
// use DefaultL2BMConfig.
type L2BMConfig struct {
	// Alpha is the base DT control factor α revised by the congestion
	// perception factor (paper Eq. 3–4).
	Alpha float64
	// AlphaEgressPool is the egress-pool DT factor (L2BM manages the
	// ingress pool; egress stays on DT like the other schemes).
	AlphaEgressPool float64
	// TauFloor is the minimum τ used in weights, preventing division
	// blow-ups for queues whose packets drain immediately. One MTU
	// serialization time at the slowest port is a natural floor.
	TauFloor sim.Duration
	// Normalization selects the constant C (paper: NormSumTau).
	Normalization Normalization
	// ExcludePauseTime enables the §III-D mitigation: time an egress
	// priority spends paused by downstream PFC does not count toward
	// sojourn estimates.
	ExcludePauseTime bool
	// BoundsLossless and BoundsLossy clamp the congestion-perception
	// weight per traffic class. The paper provisions per-priority α
	// "according to the urgency and quality of service of traffic"
	// (§III-C); the defaults encode its evaluation behaviour:
	//
	//   - lossless (PFC-protected) queues are pinned at the generous
	//     common factor 0.5 (DT2's setting): their PFC thresholds always
	//     dominate DT2's formula, and because L2BM keeps total occupancy
	//     low by clamping lossy queues, B−Q(t) — and with it the pause
	//     threshold — stays far higher than under DT or DT2, yielding the
	//     paper's near-zero pause counts. (Making the lossless weight
	//     *adaptive* was measured to backfire in this substrate: a deep
	//     boosted queue whose τ spikes collapses to its floor and
	//     instantly XOFFs, producing pause churn; see DESIGN.md.)
	//   - lossy queues are never boosted above α — so TCP cannot inflate
	//     total occupancy beyond DT's share — and may be clamped down to
	//     α/8 while their packets sit behind congested output queues.
	//
	// A zero Min or Max disables that bound.
	BoundsLossless WeightBounds
	BoundsLossy    WeightBounds
}

// WeightBounds clamps a class's adaptive weight; zero fields are unbounded.
type WeightBounds struct {
	Min float64
	Max float64
}

// Validate rejects bounds that would silently corrupt every threshold they
// clamp: NaN or infinite endpoints, negative endpoints, or an inverted
// band. Zero fields remain "unbounded" and are always valid.
func (b WeightBounds) Validate() error {
	switch {
	case math.IsNaN(b.Min) || math.IsInf(b.Min, 0) || math.IsNaN(b.Max) || math.IsInf(b.Max, 0):
		return fmt.Errorf("core: WeightBounds must be finite (got Min=%v Max=%v)", b.Min, b.Max)
	case b.Min < 0 || b.Max < 0:
		return fmt.Errorf("core: WeightBounds must be >= 0 (got Min=%v Max=%v)", b.Min, b.Max)
	case b.Max > 0 && b.Min > b.Max:
		return fmt.Errorf("core: WeightBounds inverted (Min=%v > Max=%v)", b.Min, b.Max)
	default:
		return nil
	}
}

// pinned reports whether the bounds fix the weight at a single value, so
// that clamp's result does not depend on its argument.
func (b WeightBounds) pinned() bool { return b.Max > 0 && b.Min == b.Max }

// clamp applies the bounds to w.
func (b WeightBounds) clamp(w float64) float64 {
	if b.Max > 0 && w > b.Max {
		w = b.Max
	}
	if w < b.Min {
		w = b.Min
	}
	return w
}

// DefaultL2BMConfig returns the configuration used in the evaluation:
// α = 0.125 revised by mean-normalized inverse sojourn time with pause
// exclusion on (see Normalization for why mean rather than the literal sum).
func DefaultL2BMConfig() L2BMConfig {
	return L2BMConfig{
		Alpha:            AlphaDT,
		AlphaEgressPool:  AlphaEgress,
		TauFloor:         sim.TxTime(pkt.MTUBytes, 25e9),
		Normalization:    NormMeanTau,
		ExcludePauseTime: true,
		BoundsLossless:   WeightBounds{Min: AlphaDT2, Max: AlphaDT2},
		BoundsLossy:      WeightBounds{Min: AlphaDT / 8, Max: AlphaDT},
	}
}

// L2BM is the paper's buffer-management policy: the PFC threshold of
// ingress queue (i, p) is
//
//	T_i^p(t) = C/τ_i^p · α · (B − Q(t))            (Eq. 3)
//
// where τ_i^p is the queue's average packet sojourn time maintained by the
// congestion-detection module (Algorithm 1) and C normalizes the weights
// across active queues. Queues whose packets drain fast (low τ — e.g. RDMA
// with its sub-RTT control loop) receive large thresholds, absorbing bursts
// without triggering PFC; queues whose packets sit behind congested egress
// queues (high τ — e.g. TCP) are clamped before they monopolize the pool.
type L2BM struct {
	cfg     L2BMConfig
	sojourn *SojournTable

	// aqScratch is the reusable PeekActiveAppend buffer behind
	// PeekSamplesAppend: the trace sampler peeks every tick, and without
	// the scratch each tick would allocate a fresh active-queue slice.
	aqScratch []ActiveQueue
}

// Validate reports the pathological-α class of configuration errors DESIGN
// §5 promises to reject: NaN/Inf/non-positive control factors, a
// non-positive τ floor (division blow-up in Eq. 4), unknown normalizations,
// and malformed weight bounds — each would otherwise become a silent
// garbage threshold rather than an error.
func (cfg *L2BMConfig) Validate() error {
	switch {
	case math.IsNaN(cfg.Alpha) || math.IsInf(cfg.Alpha, 0) || cfg.Alpha <= 0:
		return fmt.Errorf("core: L2BM Alpha = %v, want finite > 0", cfg.Alpha)
	case math.IsNaN(cfg.AlphaEgressPool) || math.IsInf(cfg.AlphaEgressPool, 0) || cfg.AlphaEgressPool <= 0:
		return fmt.Errorf("core: L2BM AlphaEgressPool = %v, want finite > 0", cfg.AlphaEgressPool)
	case cfg.TauFloor <= 0:
		return fmt.Errorf("core: L2BM TauFloor = %v, want > 0 (zero divides Eq. 4)", cfg.TauFloor)
	case cfg.Normalization < NormSumTau || cfg.Normalization > NormCount:
		return fmt.Errorf("core: L2BM Normalization = %d, want a defined Normalization", cfg.Normalization)
	}
	if err := cfg.BoundsLossless.Validate(); err != nil {
		return fmt.Errorf("lossless %w", err)
	}
	if err := cfg.BoundsLossy.Validate(); err != nil {
		return fmt.Errorf("lossy %w", err)
	}
	return nil
}

// NewL2BM returns an L2BM policy with the given configuration.
func NewL2BM(cfg L2BMConfig) *L2BM {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	return &L2BM{cfg: cfg, sojourn: NewSojournTable(cfg.ExcludePauseTime)}
}

// NewDefaultL2BM returns L2BM with the paper's defaults.
func NewDefaultL2BM() *L2BM { return NewL2BM(DefaultL2BMConfig()) }

// Name implements Policy.
func (l *L2BM) Name() string { return "L2BM" }

// Sojourn exposes the congestion-detection module for tests and metrics.
func (l *L2BM) Sojourn() *SojournTable { return l.sojourn }

// Weight returns the adaptive control parameter w_i^p(t) = C/τ·α (Eq. 4)
// for ingress queue (port, prio).
//
// A class whose bounds pin the weight (the default lossless class) is
// answered without evaluating τ or the aggregates: the PFC check asks for a
// lossless threshold on every lossless enqueue and dequeue, and clamp would
// discard the result.
func (l *L2BM) Weight(s StateView, port, prio int) float64 {
	bounds := l.bounds(prio)
	if bounds.pinned() {
		return bounds.Min
	}
	c, idle := l.norm(s)
	return l.weight(max(l.sojourn.Tau(s, port, prio), l.cfg.TauFloor), c, idle, bounds)
}

// bounds returns the weight bounds of prio's traffic class.
func (l *L2BM) bounds(prio int) WeightBounds {
	if ClassOfPriority(prio) == pkt.ClassLossless {
		return l.cfg.BoundsLossless
	}
	return l.cfg.BoundsLossy
}

// norm returns Eq. 3's normalization constant C over the active queues'
// floored τ, per cfg.Normalization, and whether no queue is active.
func (l *L2BM) norm(s StateView) (c sim.Duration, idle bool) {
	floor := l.cfg.TauFloor
	switch l.cfg.Normalization {
	case NormMaxTau:
		maxTau, active := l.sojourn.MaxActiveTau(s, floor)
		return maxTau, active == 0
	case NormCount:
		active := len(l.sojourn.active)
		return sim.Duration(active) * floor, active == 0
	case NormMeanTau:
		sum, active := l.sojourn.SumActiveTau(s, floor)
		if active == 0 {
			return 0, true
		}
		return sum / sim.Duration(active), false
	default: // NormSumTau
		sum, active := l.sojourn.SumActiveTau(s, floor)
		return sum, active == 0
	}
}

// weight is Eq. 4 for a queue of floored sojourn tau under constant c,
// clamped by bounds. An idle switch degenerates to DT's uniform α, still
// subject to the per-class bounds so thresholds never jump when traffic
// appears.
func (l *L2BM) weight(tau, c sim.Duration, idle bool, bounds WeightBounds) float64 {
	w := l.cfg.Alpha
	if !idle {
		w = float64(c) / float64(tau) * l.cfg.Alpha
	}
	return bounds.clamp(w)
}

// IngressThreshold implements Policy (Eq. 3).
func (l *L2BM) IngressThreshold(s StateView, port, prio int) int64 {
	return ingressDT(s, l.Weight(s, port, prio))
}

// EgressThreshold implements Policy: standard egress-pool DT (L2BM is an
// ingress-pool algorithm; paper Fig. 5 keeps the egress queue threshold).
func (l *L2BM) EgressThreshold(s StateView, _, prio int) int64 {
	return egressDT(s, prio, l.cfg.AlphaEgressPool)
}

// QueueSample is one active ingress queue's adaptive state as read by the
// trace layer: the sojourn estimate τ (Algorithm 1), the Eq. 4 weight and
// the Eq. 3 byte threshold it currently implies.
type QueueSample struct {
	Port, Prio int
	Tau        sim.Duration
	Weight     float64
	Threshold  int64
}

// PeekSamplesAppend appends the adaptive state of every active ingress
// queue, in (port, prio) order, to dst (nil or a recycled dst[:0]): τ, the
// Weight and the IngressThreshold it implies, through the same pure reads.
// The ordered walk reuses an L2BM-owned scratch buffer, so a steady-state
// sampling tick performs zero allocations.
func (l *L2BM) PeekSamplesAppend(dst []QueueSample, s StateView) []QueueSample {
	l.aqScratch = l.sojourn.PeekActiveAppend(l.aqScratch[:0], s, l.cfg.TauFloor)
	c, idle := l.norm(s)
	for _, a := range l.aqScratch {
		w := l.weight(a.Tau, c, idle, l.bounds(a.Prio))
		dst = append(dst, QueueSample{
			Port: a.Port, Prio: a.Prio, Tau: a.Tau,
			Weight: w, Threshold: ingressDT(s, w),
		})
	}
	return dst
}

// OnEnqueue implements Policy, feeding the congestion-detection module.
func (l *L2BM) OnEnqueue(s StateView, p *pkt.Packet) { l.sojourn.OnEnqueue(s, p) }

// OnDequeue implements Policy.
func (l *L2BM) OnDequeue(s StateView, p *pkt.Packet) { l.sojourn.OnDequeue(s, p) }
