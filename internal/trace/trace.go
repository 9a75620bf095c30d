// Package trace is the flight-recorder telemetry subsystem: a per-run
// Recorder with typed, ring-buffered channels capturing the time-series the
// paper's evaluation plots — switch occupancy and shared-pool usage
// (Figs. 7(c), 8, 10(c)), per-(port, priority) PFC pause/resume intervals
// (Fig. 7(d), Table II episodes), L2BM weight/threshold/τ evolution
// (Algorithm 1 / Eq. 3–4), and drop/ECN events — so any run can explain
// *why* its end-of-run scalars came out the way they did.
//
// Design contract (the observer-effect guarantee):
//
//   - Recording is feed-forward only. Probes read model state and append to
//     ring buffers; nothing in this package mutates the simulation, draws
//     from its random streams, or changes event ordering among model
//     events. A traced run therefore produces byte-identical results to an
//     untraced run, and two traced runs produce byte-identical trace files.
//   - A nil *Recorder is the disabled state. Hot-path probe sites compile
//     to a single branch-on-nil (`if s.tracer != nil { ... }`), and every
//     Record method is additionally nil-safe. switchsim's BenchmarkAdmit
//     and BenchmarkAdmitTraceOn price admission off and on; the benchmark
//     ledger's trace_overhead_pct prices a whole traced sweep.
//   - Channels are bounded rings (see ring.go): memory stays O(capacity)
//     per channel and the most recent window survives, flight-recorder
//     style. Eviction counts are reported via Stats.
package trace

import (
	"fmt"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// DefaultCapacity is the per-channel ring capacity used when NewRecorder is
// given a non-positive capacity: 64k events per channel (a few MB per run).
const DefaultCapacity = 1 << 16

// OccSample is one occupancy reading of a switch: the total resident bytes
// (reserved + shared + headroom — the quantity the paper plots) and the
// shared-service-pool usage Q(t) that drives every policy's threshold.
type OccSample struct {
	At         sim.Time
	Switch     string
	Resident   int64
	SharedUsed int64
}

// PFCKind discriminates pause-channel events.
type PFCKind int

const (
	// PFCAssert: the MMU crossed an ingress queue's PFC threshold and sent
	// an XOFF upstream.
	PFCAssert PFCKind = iota + 1
	// PFCRelease: occupancy fell under the hysteresis band and the MMU
	// sent an XON.
	PFCRelease
	// PFCReissue: the lost-pause guard re-sent an XOFF (fault injection).
	PFCReissue
	// PortPaused: a transmitter actually stopped serving a priority (the
	// peer's XOFF took effect — one propagation delay after PFCAssert).
	PortPaused
	// PortResumed: the transmitter resumed (XON took effect, or the
	// deadlock detector force-resumed it).
	PortResumed
)

// String implements fmt.Stringer.
func (k PFCKind) String() string {
	switch k {
	case PFCAssert:
		return "assert"
	case PFCRelease:
		return "release"
	case PFCReissue:
		return "reissue"
	case PortPaused:
		return "port-paused"
	case PortResumed:
		return "port-resumed"
	default:
		return fmt.Sprintf("pfc-kind(%d)", int(k))
	}
}

// PFCEvent is one pause-state transition. Assert/Release/Reissue carry the
// MMU's view (Switch is the switch asserting, Port its ingress port);
// PortPaused/PortResumed carry the transmitter's view (Switch is the node
// owning the paused port — possibly a host NIC).
type PFCEvent struct {
	At     sim.Time
	Switch string
	Port   int
	Prio   int
	Kind   PFCKind
}

// PauseInterval is one contiguous pause episode reconstructed from
// PFCEvents (see Recorder.PauseIntervals).
type PauseInterval struct {
	Switch string
	Port   int
	Prio   int
	Kind   PFCKind // PFCAssert (MMU view) or PortPaused (TX view)
	From   sim.Time
	To     sim.Time
	// Open marks an episode still in progress at the end of the recording
	// (To is then the recording horizon, not a resume).
	Open bool
}

// Duration returns the episode length.
func (i PauseInterval) Duration() sim.Duration { return i.To - i.From }

// WeightSample is one ingress queue's adaptive L2BM state: the sojourn
// estimate τ (Algorithm 1), the congestion-perception weight w = C/τ·α
// (Eq. 4) and the resulting byte threshold T = w·(B−Q(t)) (Eq. 3).
type WeightSample struct {
	At        sim.Time
	Switch    string
	Port      int
	Prio      int
	Tau       sim.Duration
	Weight    float64
	Threshold int64
}

// PacketEventKind discriminates per-packet admission-path events.
type PacketEventKind int

const (
	// DropLossyIngress: a lossy packet exceeded its ingress threshold.
	DropLossyIngress PacketEventKind = iota + 1
	// DropLossyEgress: a lossy packet exceeded its egress-queue threshold.
	DropLossyEgress
	// LosslessViolation: a lossless packet arrived with headroom exhausted
	// (the no-loss guarantee broke — fault injection or misconfiguration).
	LosslessViolation
	// HeadroomEnter: a lossless packet was charged to PFC headroom.
	HeadroomEnter
	// ECNMark: the egress queue marked the packet CE.
	ECNMark
	// EvictLossy: a preemptive policy (Occamy) evicted an already-admitted
	// lossy packet from an egress queue tail to make room for an arrival.
	EvictLossy
)

// String implements fmt.Stringer.
func (k PacketEventKind) String() string {
	switch k {
	case DropLossyIngress:
		return "drop-ingress"
	case DropLossyEgress:
		return "drop-egress"
	case LosslessViolation:
		return "lossless-violation"
	case HeadroomEnter:
		return "headroom"
	case ECNMark:
		return "ecn-mark"
	case EvictLossy:
		return "evict-lossy"
	default:
		return fmt.Sprintf("pkt-event(%d)", int(k))
	}
}

// PacketEvent is one admission-path event. Port is the ingress port for
// ingress-side kinds and the egress port for egress-side kinds.
type PacketEvent struct {
	At     sim.Time
	Switch string
	Port   int
	Prio   int
	Kind   PacketEventKind
	Size   int
	Class  pkt.Class
}

// Recorder is a per-run flight recorder. It is single-threaded like the
// engine that feeds it: all Record calls happen on the simulation
// goroutine. The zero value is not useful; construct with NewRecorder. A
// nil *Recorder is the disabled recorder: every method is a no-op.
type Recorder struct {
	occ     ring[OccSample]
	pfc     ring[PFCEvent]
	weights ring[WeightSample]
	pkts    ring[PacketEvent]
}

// NewRecorder returns an armed recorder whose channels each retain up to
// capacity events (DefaultCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	return &Recorder{
		occ:     newRing[OccSample](capacity),
		pfc:     newRing[PFCEvent](capacity),
		weights: newRing[WeightSample](capacity),
		pkts:    newRing[PacketEvent](capacity),
	}
}

// RecordOcc appends an occupancy sample.
func (r *Recorder) RecordOcc(s OccSample) {
	if r == nil {
		return
	}
	r.occ.push(s)
}

// RecordPFC appends a pause-channel transition.
func (r *Recorder) RecordPFC(e PFCEvent) {
	if r == nil {
		return
	}
	r.pfc.push(e)
}

// RecordWeight appends an L2BM weight/τ/threshold sample.
func (r *Recorder) RecordWeight(s WeightSample) {
	if r == nil {
		return
	}
	r.weights.push(s)
}

// RecordPacketEvent appends a drop/ECN/headroom event.
func (r *Recorder) RecordPacketEvent(e PacketEvent) {
	if r == nil {
		return
	}
	r.pkts.push(e)
}

// OccSamples returns the retained occupancy samples, oldest first.
func (r *Recorder) OccSamples() []OccSample {
	if r == nil {
		return nil
	}
	return r.occ.slice()
}

// PFCEvents returns the retained pause transitions, oldest first.
func (r *Recorder) PFCEvents() []PFCEvent {
	if r == nil {
		return nil
	}
	return r.pfc.slice()
}

// WeightSamples returns the retained weight samples, oldest first.
func (r *Recorder) WeightSamples() []WeightSample {
	if r == nil {
		return nil
	}
	return r.weights.slice()
}

// PacketEvents returns the retained packet events, oldest first.
func (r *Recorder) PacketEvents() []PacketEvent {
	if r == nil {
		return nil
	}
	return r.pkts.slice()
}

// Stats summarizes channel fill and eviction (how much history the rings
// had to discard).
type Stats struct {
	OccSamples, OccEvicted       uint64
	PFCEvents, PFCEvicted        uint64
	WeightSamples, WeightEvicted uint64
	PacketEvents, PacketEvicted  uint64
}

// Evicted returns the rows the rings discarded, summed over the channels: a
// non-zero count means the recording holds only the newest part of the run.
func (s Stats) Evicted() uint64 {
	return s.OccEvicted + s.PFCEvicted + s.WeightEvicted + s.PacketEvicted
}

// Stats returns the channel accounting; the zero Stats for a nil recorder.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	return Stats{
		OccSamples: uint64(r.occ.len()), OccEvicted: r.occ.evicted,
		PFCEvents: uint64(r.pfc.len()), PFCEvicted: r.pfc.evicted,
		WeightSamples: uint64(r.weights.len()), WeightEvicted: r.weights.evicted,
		PacketEvents: uint64(r.pkts.len()), PacketEvicted: r.pkts.evicted,
	}
}

// PauseIntervals reconstructs contiguous pause episodes from the PFC
// channel, pairing assert→release transitions per (switch, port, prio)
// separately for the MMU view (PFCAssert/PFCReissue → PFCRelease) and the
// transmitter view (PortPaused → PortResumed). Episodes still open at the
// end of the recording are closed at upTo and flagged Open. Intervals are
// returned in episode-start order (stable, since events are time-ordered).
func (r *Recorder) PauseIntervals(upTo sim.Time) []PauseInterval {
	if r == nil {
		return nil
	}
	type key struct {
		sw         string
		port, prio int
		tx         bool
	}
	open := make(map[key]int) // -> index into out, episode still open
	var out []PauseInterval
	for _, e := range r.pfc.slice() {
		k := key{e.Switch, e.Port, e.Prio, e.Kind == PortPaused || e.Kind == PortResumed}
		switch e.Kind {
		case PFCAssert, PortPaused:
			if _, dup := open[k]; dup {
				continue // already paused (shouldn't happen; be lenient)
			}
			kind := PFCAssert
			if k.tx {
				kind = PortPaused
			}
			open[k] = len(out)
			out = append(out, PauseInterval{
				Switch: e.Switch, Port: e.Port, Prio: e.Prio,
				Kind: kind, From: e.At, Open: true,
			})
		case PFCReissue:
			// A reissue extends an (already open) episode; if the ring
			// evicted the original assert, treat it as an episode start.
			if _, ok := open[k]; !ok {
				open[k] = len(out)
				out = append(out, PauseInterval{
					Switch: e.Switch, Port: e.Port, Prio: e.Prio,
					Kind: PFCAssert, From: e.At, Open: true,
				})
			}
		case PFCRelease, PortResumed:
			if i, ok := open[k]; ok {
				out[i].To = e.At
				out[i].Open = false
				delete(open, k)
			}
		}
	}
	for _, i := range open {
		out[i].To = upTo
	}
	return out
}
