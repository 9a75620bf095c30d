// Package faults is the deterministic fault-injection subsystem: it turns a
// declarative Plan (link flaps, frame corruption, lost PFC, switch
// blackouts) into scheduled events and receive-side hooks on netdev ports,
// all driven from named sim.Rand streams so a run is bit-identical given
// (seed, plan). The package also houses the PFC deadlock detector and the
// engine no-progress watchdog — the detection half of the robustness story.
package faults

import (
	"fmt"
	"math"

	"l2bm/internal/netdev"
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// Link is one cable as the injector sees it: the two ports plus a SetLive
// callback that raises or cuts the carrier *and* updates the topology's
// routing liveness (the topo layer provides the closure so faults need not
// know about Clos coordinates). Fabric marks a switch-to-switch cable, the
// only kind that flaps: flapping an access link merely disconnects one
// host, which tests nothing about the fabric.
type Link struct {
	Name         string
	A, B         *netdev.Port
	AName, BName string
	Fabric       bool
	SetLive      func(up bool)
}

// Blackout takes every link touching one switch down at At and restores
// them Duration later — a whole-device failure.
type Blackout struct {
	Switch   string
	At       sim.Time
	Duration sim.Duration
}

// Plan declares the faults to inject. The zero value injects nothing. The
// injector draws only from its own "faults/..." RNG streams, and only when
// a fault rate is nonzero, so arming a plan never perturbs the workload's
// streams: common random numbers hold across clean and faulted scenarios.
type Plan struct {
	// FlapRate is the mean link-down events per second per Fabric link
	// (Poisson process); zero disables flapping.
	FlapRate float64
	// FlapDowntime is the mean of the exponentially distributed outage
	// duration per flap.
	FlapDowntime sim.Duration
	// FlapWindow stops scheduling new flaps this long after Install, so
	// in-flight traffic can drain and complete; zero flaps forever.
	FlapWindow sim.Duration

	// BER is the per-bit error probability applied to data frames; a
	// corrupted frame is dropped (the FCS would have rejected it).
	BER float64
	// PFCLossRate is the probability an arriving PFC control frame is
	// lost — the fault that exposes XOFF-wedge bugs.
	PFCLossRate float64

	// Blackouts lists whole-switch outages.
	Blackouts []Blackout
}

// Validate rejects plans whose rates are NaN, negative, or out of range —
// the injector refuses to turn garbage into silent no-ops or storms.
func (p *Plan) Validate() error {
	switch {
	case math.IsNaN(p.FlapRate) || math.IsInf(p.FlapRate, 0) || p.FlapRate < 0:
		return fmt.Errorf("faults: FlapRate = %v, want finite >= 0", p.FlapRate)
	case p.FlapRate > 0 && p.FlapDowntime <= 0:
		return fmt.Errorf("faults: FlapRate %v needs FlapDowntime > 0 (got %v)", p.FlapRate, p.FlapDowntime)
	case p.FlapWindow < 0:
		return fmt.Errorf("faults: FlapWindow = %v, want >= 0", p.FlapWindow)
	case math.IsNaN(p.BER) || p.BER < 0 || p.BER >= 1:
		return fmt.Errorf("faults: BER = %v, want in [0, 1)", p.BER)
	case math.IsNaN(p.PFCLossRate) || p.PFCLossRate < 0 || p.PFCLossRate > 1:
		return fmt.Errorf("faults: PFCLossRate = %v, want in [0, 1]", p.PFCLossRate)
	}
	for _, b := range p.Blackouts {
		if b.At < 0 {
			return fmt.Errorf("faults: blackout of %q starts before the run, at %v", b.Switch, b.At)
		}
		if b.Duration <= 0 {
			return fmt.Errorf("faults: blackout of %q has non-positive duration %v", b.Switch, b.Duration)
		}
	}
	return nil
}

// Stats counts injected faults.
type Stats struct {
	// LinkDownEvents and LinkUpEvents count carrier transitions from every
	// source (flaps, blackouts).
	LinkDownEvents uint64
	LinkUpEvents   uint64
	// CorruptedFrames counts data frames dropped by the BER process.
	CorruptedFrames uint64
	// LostPFC counts PFC control frames swallowed by the loss process.
	LostPFC uint64
	// BlackoutEvents counts whole-switch outages that fired.
	BlackoutEvents uint64
	// Firings counts the injector's executed engine events (flap, recovery
	// and blackout callbacks alike). Identical on every replica of
	// a sharded run, and Result.Events counts one replica's.
	Firings uint64
}

// Injector drives one Plan against one set of links on one engine.
//
// Sharded runs replicate the injector: every shard runs a full copy on its
// own engine, drawing identical named streams, so the flap/blackout
// processes stay in lockstep without cross-shard communication — each
// replica's SetLive closures only touch shard-local liveness state, and
// PortFilter restricts the receive-side frame hooks to the ports the shard
// owns. Per-replica stats then split two ways: process counters
// (LinkDown/UpEvents, BlackoutEvents) are identical on every replica (read
// any one), while hook counters (CorruptedFrames, LostPFC) count only
// owned ports (sum across replicas).
type Injector struct {
	eng       *sim.Engine
	plan      Plan
	links     []Link
	installAt sim.Time
	stats     Stats

	// PortFilter, when set, limits which ports get receive-side frame
	// hooks (BER / PFC loss): only ports satisfying the predicate are
	// armed. The per-direction random streams are derived by link name and
	// direction — never by installation order — so replicas arming
	// disjoint port sets still draw the exact sequences a sequential
	// injector draws for those ports. Set before Install.
	PortFilter func(p *netdev.Port) bool
}

// NewInjector validates the plan and binds it to the links. A blackout of a
// switch no link touches is refused: it would silently inject nothing.
func NewInjector(eng *sim.Engine, plan Plan, links []Link) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	names := make(map[string]bool, len(links))
	ends := make(map[string]bool)
	for _, l := range links {
		if l.SetLive == nil {
			return nil, fmt.Errorf("faults: link %q has no SetLive", l.Name)
		}
		if names[l.Name] {
			return nil, fmt.Errorf("faults: duplicate link name %q", l.Name)
		}
		names[l.Name] = true
		ends[l.AName], ends[l.BName] = true, true
	}
	for _, b := range plan.Blackouts {
		if !ends[b.Switch] {
			return nil, fmt.Errorf("faults: blackout names switch %q, which no link touches", b.Switch)
		}
	}
	return &Injector{eng: eng, plan: plan, links: links}, nil
}

// Stats returns a snapshot of the injection counters.
func (in *Injector) Stats() Stats { return in.stats }

// CarrierDrops sums frames lost to dead carriers across both ports of every
// bound link — the damage the carrier faults actually did. In a sharded run
// this reads ports on every shard, so call it only while no epoch is in
// flight (after the final barrier); it is then identical on every replica.
func (in *Injector) CarrierDrops() uint64 {
	var total uint64
	for _, l := range in.links {
		if l.A != nil {
			total += l.A.Stats().CarrierDrops
		}
		if l.B != nil {
			total += l.B.Stats().CarrierDrops
		}
	}
	return total
}

// owns reports whether this injector should arm receive hooks on p.
func (in *Injector) owns(p *netdev.Port) bool {
	return p != nil && (in.PortFilter == nil || in.PortFilter(p))
}

// Install arms the plan: receive hooks for frame faults, Poisson flap
// processes and blackouts. Call once, before Run.
func (in *Injector) Install() {
	in.installAt = in.eng.Now()

	if in.plan.BER > 0 || in.plan.PFCLossRate > 0 {
		for _, l := range in.links {
			// One stream per direction: arrival order on a single
			// direction of a link is deterministic, so draws are too. (A
			// single shared stream would interleave the two directions in
			// wall-arrival order, which differs between the sequential and
			// sharded engines when the link crosses a shard boundary.)
			if in.owns(l.A) {
				l.A.RxFault = in.frameHook(in.eng.Rand("faults/frame/" + l.Name + "/a"))
			}
			if in.owns(l.B) {
				l.B.RxFault = in.frameHook(in.eng.Rand("faults/frame/" + l.Name + "/b"))
			}
		}
	}

	if in.plan.FlapRate > 0 {
		for _, l := range in.links {
			if l.Fabric {
				in.scheduleFlap(l, in.eng.Rand("faults/flap/"+l.Name))
			}
		}
	}

	for _, b := range in.plan.Blackouts {
		b := b
		var hit []Link
		for _, l := range in.links {
			if l.AName == b.Switch || l.BName == b.Switch {
				hit = append(hit, l)
			}
		}
		in.eng.ScheduleAt(b.At, func() {
			in.stats.Firings++
			in.stats.BlackoutEvents++
			for _, l := range hit {
				in.setLink(l, false)
			}
		})
		in.eng.ScheduleAt(b.At+b.Duration, func() {
			in.stats.Firings++
			for _, l := range hit {
				in.setLink(l, true)
			}
		})
	}
}

// setLink flips a link and counts the transition.
func (in *Injector) setLink(l Link, up bool) {
	l.SetLive(up)
	if up {
		in.stats.LinkUpEvents++
	} else {
		in.stats.LinkDownEvents++
	}
}

// scheduleFlap arms the next down event of l's Poisson flap process.
func (in *Injector) scheduleFlap(l Link, r *sim.Rand) {
	meanGap := sim.Duration(float64(sim.Second) / in.plan.FlapRate)
	gap := r.ExpDuration(meanGap)
	in.eng.Schedule(gap, func() { in.fireFlap(l, r) })
}

// fireFlap takes l down, schedules its recovery, and re-arms the process
// while the flap window is open.
func (in *Injector) fireFlap(l Link, r *sim.Rand) {
	in.stats.Firings++
	if in.plan.FlapWindow > 0 && in.eng.Now() >= in.installAt+in.plan.FlapWindow {
		return // window closed: no new outages, traffic drains
	}
	down := r.ExpDuration(in.plan.FlapDowntime) // at least one tick of outage
	in.setLink(l, false)
	in.eng.Schedule(down, func() { in.stats.Firings++; in.setLink(l, true) })
	meanGap := sim.Duration(float64(sim.Second) / in.plan.FlapRate)
	gap := r.ExpDuration(meanGap)
	in.eng.Schedule(down+gap, func() { in.fireFlap(l, r) })
}

// frameHook builds the receive-side vetting hook: data frames die with the
// BER-derived frame corruption probability, PFC frames die with
// PFCLossRate. Other control traffic (ACK/CNP/NACK) passes — the recovery
// protocol's own feedback channel is modeled as FEC-protected. The hook
// draws randomness only for frame kinds whose fault rate is nonzero, so a
// zero-rate plan consumes no random numbers at all.
func (in *Injector) frameHook(r *sim.Rand) netdev.FaultHook {
	ber, pfcLoss := in.plan.BER, in.plan.PFCLossRate
	return func(q *pkt.Packet) bool {
		switch q.Kind {
		case pkt.KindPFC:
			if pfcLoss > 0 && r.Float64() < pfcLoss {
				in.stats.LostPFC++
				return false
			}
		case pkt.KindData:
			if ber > 0 && r.Float64() < FrameCorruptionProb(q.Size, ber) {
				in.stats.CorruptedFrames++
				return false
			}
		}
		return true
	}
}

// FrameCorruptionProb converts a per-bit error rate into the probability at
// least one bit of a size-byte frame flips: 1 − (1−ber)^bits, computed in
// log space so tiny rates don't round to zero.
func FrameCorruptionProb(sizeBytes int, ber float64) float64 {
	bits := float64(8 * sizeBytes)
	return -math.Expm1(bits * math.Log1p(-ber))
}
