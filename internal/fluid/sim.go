package fluid

import (
	"math"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/topo"
	"l2bm/internal/transport"
)

// CutReason says why Advance stopped before its requested bound.
type CutReason int

const (
	// CutNone: the requested bound was reached; no trigger fired.
	CutNone CutReason = iota
	// CutBurst: a scheduled incast burst is within PreMargin.
	CutBurst
	// CutDegree: the next arrival would push an access link's sharing
	// degree to the trigger. The arrival is NOT consumed.
	CutDegree
	// CutGuard: the next arrival would push a switch's synthesized
	// occupancy past the guard band. The arrival is NOT consumed.
	CutGuard
)

// String names the reason for logs and tests.
func (r CutReason) String() string {
	switch r {
	case CutNone:
		return "none"
	case CutBurst:
		return "burst"
	case CutDegree:
		return "degree"
	case CutGuard:
		return "guard"
	default:
		return "?"
	}
}

// Completion reports one flow finishing in the fluid layer. At is the
// global receiver-side completion instant (drain end + latency tail +
// slow-start charge).
type Completion struct {
	ID     pkt.FlowID
	Class  pkt.Class
	Incast bool
	At     sim.Time
}

// Sim advances a set of flows analytically over a Model, consuming
// scheduled arrivals and emitting completions, until a fidelity trigger
// fires or the requested bound is reached. One Sim instance serves one
// fluid segment; the driver rebuilds it (cheaply) after each packet
// segment, re-injecting residual flows.
type Sim struct {
	m *Model
	p Params

	arrivals  []FlowArrival
	next      int // cursor into arrivals
	nextBurst int // first index ≥ next with Incast == true (lazily advanced)

	active  []*FlowState
	scratch *solveScratch
	now     sim.Time
	dirty   bool

	// OnComplete, when set, observes every fluid completion as it happens.
	OnComplete func(Completion)

	// Steps counts fluid events processed (arrivals + completions), the
	// "events-equivalent" cost accounting of the fast-forward layer.
	Steps uint64
}

// NewSim builds a fluid segment starting at now. arrivals is the not-yet-
// consumed tail of the run's schedule (the driver slices past its cursor).
func NewSim(m *Model, p Params, arrivals []FlowArrival, now sim.Time) *Sim {
	return &Sim{
		m:        m,
		p:        p,
		arrivals: arrivals,
		scratch:  newSolveScratch(m.nLinks),
		now:      now,
		dirty:    true,
	}
}

// Consumed returns how many of the supplied arrivals have been started.
func (s *Sim) Consumed() int { return s.next }

// Active returns the in-progress flows (driver hand-off to a packet
// segment). The slice is owned by the Sim; read it before further Advance
// calls.
func (s *Sim) Active() []*FlowState { return s.active }

// Inject adds a flow with remaining payload bytes outstanding. Flows
// injected with their full size as lossy transfers are charged the
// analytic slow-start delay at completion; residual flows (mid-transfer
// hand-backs from a packet segment) are not — their windows are already
// open.
func (s *Sim) Inject(f transport.Flow, remainingPayload int64, incast bool) {
	s.m.checkHost(f.Src)
	s.m.checkHost(f.Dst)
	fs := &FlowState{
		Flow:          f,
		RemainingWire: float64(topo.WireBytes(remainingPayload)),
		Incast:        incast,
	}
	fs.ExtraLatency = s.m.Cfg.BasePathDelay(f.Src, f.Dst) - sim.TxTime(pkt.MTUBytes, s.m.Cfg.ServerRate)
	if f.Class == pkt.ClassLossy && remainingPayload == f.Size {
		rtt := 2 * s.m.Cfg.BasePathDelay(f.Src, f.Dst)
		fs.ExtraLatency += SlowStartExtra(f.Size, rtt, s.m.Cfg.ServerRate)
	}
	nl := s.m.AppendLinks(fs.links[:0], f.ID, f.Src, f.Dst)
	fs.nLink = len(nl)
	s.active = append(s.active, fs)
	s.dirty = true
}

// wouldTrigger evaluates the arrival-time fidelity triggers for candidate
// flow f against the current active set.
func (s *Sim) wouldTrigger(f *transport.Flow) CutReason {
	if s.degree(f.Src, f.Dst)+1 >= s.p.DegreeTrigger {
		return CutDegree
	}
	if s.guardExceeded(f) {
		return CutGuard
	}
	return CutNone
}

// degree returns the larger of the sharing degrees on src's uplink and
// dst's downlink.
func (s *Sim) degree(src, dst int) int {
	up, down := 0, 0
	upLink, downLink := src, s.m.nHosts+dst
	for _, fs := range s.active {
		for _, l := range fs.links[:fs.nLink] {
			if l == upLink {
				up++
			}
			if l == downLink {
				down++
			}
		}
	}
	if up > down {
		return up
	}
	return down
}

// guardExceeded reports whether the synthesized occupancy estimate of any
// switch, with candidate cand added, crosses the guard band.
func (s *Sim) guardExceeded(cand *transport.Flow) bool {
	limit := int64(s.p.GuardFrac * float64(s.m.Cfg.Switch.TotalShared))
	if limit <= 0 {
		return false
	}
	occ := make([]int64, s.m.NumSwitches())
	s.chargeOccupancy(occ)
	var buf [6]int
	for _, l := range s.m.AppendLinks(buf[:0], cand.ID, cand.Src, cand.Dst) {
		if sw := s.m.owner[l]; sw >= 0 {
			occ[sw] += qFlow
		}
	}
	for _, o := range occ {
		if o > limit {
			return true
		}
	}
	return false
}

// chargeOccupancy accumulates the synthesized per-switch occupancy: qFlow
// per active flow per traversed switch queue, plus qCong per saturated
// (max-min bottleneck) link.
func (s *Sim) chargeOccupancy(occ []int64) {
	s.resolve()
	for _, fs := range s.active {
		for _, l := range fs.links[:fs.nLink] {
			if sw := s.m.owner[l]; sw >= 0 {
				occ[sw] += qFlow
			}
		}
	}
	for _, l := range s.scratch.used {
		if s.scratch.sat[l] && s.scratch.cnt[l] > 0 {
			if sw := s.m.owner[l]; sw >= 0 {
				occ[sw] += qCong
			}
		}
	}
}

// TorOccupancies appends every rack switch's synthesized occupancy to
// dst[:0] with a single solve — the fluid stand-in for switchsim's
// resident-byte reading, so traced figures stay plottable across fluid
// segments.
func (s *Sim) TorOccupancies(dst []int64) []int64 {
	occ := make([]int64, s.m.NumSwitches())
	s.chargeOccupancy(occ)
	return append(dst[:0], occ[:s.m.NumToRs()]...)
}

// resolve recomputes max-min rates if the active set changed.
func (s *Sim) resolve() {
	if !s.dirty {
		return
	}
	s.m.solve(s.active, s.scratch)
	s.dirty = false
}

const farFuture = sim.Time(math.MaxInt64)

// The guard band's synthesized occupancy: qFlow bytes of residency charged to
// every switch a flow traverses, and a qCong-byte standing queue charged to
// the switch of every saturated (max-min bottleneck) link.
const (
	qFlow = pkt.MTUBytes
	qCong = 150_000
)

// drainsAt returns when fs finishes serving at its current rate.
func (s *Sim) drainsAt(fs *FlowState) sim.Time {
	if fs.rate <= 0 {
		return farFuture
	}
	d := sim.Duration(math.Ceil(fs.RemainingWire * 8 / fs.rate * float64(sim.Second)))
	if d < 1 {
		d = 1
	}
	return s.now + d
}

// advanceTo moves the clock to t, draining every active flow at its rate.
func (s *Sim) advanceTo(t sim.Time) {
	if t <= s.now {
		return
	}
	dt := (t - s.now).Seconds()
	for _, fs := range s.active {
		fs.RemainingWire -= fs.rate / 8 * dt
		if fs.RemainingWire < 0 {
			fs.RemainingWire = 0
		}
	}
	s.now = t
}

// completeDue finishes every active flow whose service is (numerically)
// done, in insertion order, and compacts the active set. Returns whether
// any completed.
func (s *Sim) completeDue() bool {
	any := false
	kept := s.active[:0]
	for _, fs := range s.active {
		if fs.RemainingWire > 0.5 {
			kept = append(kept, fs)
			continue
		}
		any = true
		s.Steps++
		if s.OnComplete != nil {
			s.OnComplete(Completion{
				ID:     fs.Flow.ID,
				Class:  fs.Flow.Class,
				Incast: fs.Incast,
				At:     s.now + fs.ExtraLatency,
			})
		}
	}
	s.active = kept
	if any {
		s.dirty = true
	}
	return any
}

// burstBound returns the instant the controller must be in packet mode for
// the next scheduled incast burst (its start minus PreMargin), or farFuture.
func (s *Sim) burstBound() sim.Time {
	if s.nextBurst < s.next {
		s.nextBurst = s.next
	}
	for s.nextBurst < len(s.arrivals) && !s.arrivals[s.nextBurst].Incast {
		s.nextBurst++
	}
	if s.nextBurst >= len(s.arrivals) {
		return farFuture
	}
	hb := s.arrivals[s.nextBurst].Flow.Start - sim.Time(s.p.PreMargin)
	if hb < s.now {
		hb = s.now
	}
	return hb
}

// Advance runs the fluid clock from Now() to at most `to`, starting
// scheduled arrivals and emitting completions. It returns (cutAt, reason):
// reason CutNone means `to` was reached; any other reason means a fidelity
// trigger fired at cutAt and the driver must run a packet segment (the
// triggering arrival, if any, was left unconsumed).
func (s *Sim) Advance(to sim.Time) (sim.Time, CutReason) {
	for {
		s.resolve()

		hb := s.burstBound()
		if hb <= s.now && hb != farFuture {
			return s.now, CutBurst
		}

		tNext := to
		if hb < tNext {
			tNext = hb
		}
		var ta sim.Time = farFuture
		if s.next < len(s.arrivals) {
			ta = s.arrivals[s.next].Flow.Start
			if ta < tNext {
				tNext = ta
			}
		}
		var tc sim.Time = farFuture
		for _, fs := range s.active {
			if t := s.drainsAt(fs); t < tc {
				tc = t
			}
		}
		if tc < tNext {
			tNext = tc
		}

		s.advanceTo(tNext)
		if s.completeDue() {
			continue
		}
		switch {
		case tNext == hb && hb != farFuture:
			return s.now, CutBurst
		case tNext == ta:
			arr := &s.arrivals[s.next]
			if r := s.wouldTrigger(&arr.Flow); r != CutNone {
				return s.now, r
			}
			s.Inject(arr.Flow, arr.Flow.Size, arr.Incast)
			s.next++
			s.Steps++
		default: // tNext == to
			return s.now, CutNone
		}
	}
}
