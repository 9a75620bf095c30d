// Package pkt defines the on-wire units exchanged by the simulated network:
// data segments, acknowledgements, DCQCN congestion notifications and PFC
// control frames, together with the traffic-class taxonomy the switches use
// to treat lossless and lossy traffic differently.
package pkt

import (
	"fmt"

	"l2bm/internal/sim"
)

// Kind discriminates the packet variants the simulator exchanges.
type Kind int

const (
	// KindData is a transport payload segment.
	KindData Kind = iota + 1
	// KindAck is a (cumulative) TCP acknowledgement.
	KindAck
	// KindCNP is a DCQCN Congestion Notification Packet.
	KindCNP
	// KindPFC is an IEEE 802.1Qbb per-priority pause/resume frame. PFC
	// frames are consumed by the receiving port and never forwarded.
	KindPFC
	// KindNack is a go-back-N out-of-sequence NACK (RoCE-style): the
	// receiver tells the sender the next in-order byte it expects, asking
	// for a rewind. Only emitted when the lossless guarantee broke (fault
	// injection); the fault-free fabric never produces one.
	KindNack
)

// KindFreed is the poison value a debug Pool stamps on recycled packets: any
// code path that touches a packet after Put sees an impossible kind instead
// of plausible stale state. Never appears on a live packet.
const KindFreed Kind = -1

// String implements fmt.Stringer for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindCNP:
		return "cnp"
	case KindPFC:
		return "pfc"
	case KindNack:
		return "nack"
	case KindFreed:
		return "freed"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Class is the loss behaviour a switch applies to a priority queue.
type Class int

const (
	// ClassLossless marks RDMA traffic protected by PFC: over-threshold
	// packets trigger pause frames and spill into headroom, never drop.
	ClassLossless Class = iota + 1
	// ClassLossy marks TCP-style traffic: over-threshold packets drop.
	ClassLossy
	// ClassControl marks tiny control packets (ACKs, CNPs) carried on a
	// dedicated strict-priority queue.
	ClassControl
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassLossless:
		return "lossless"
	case ClassLossy:
		return "lossy"
	case ClassControl:
		return "control"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Default priority-queue assignment. The paper isolates the two protocols in
// two of the eight 802.1p priorities; a third carries control packets.
const (
	// PrioLossless is the PFC-protected priority RDMA data rides on.
	PrioLossless = 0
	// PrioLossy is the priority TCP data rides on.
	PrioLossy = 3
	// PrioControl is the strict-priority control queue (ACK/CNP).
	PrioControl = 6
	// NumPriorities is the number of 802.1p priority queues per port.
	NumPriorities = 8
)

// Wire-size constants shared across the model.
const (
	// HeaderBytes approximates Ethernet+IP+transport headers per packet.
	HeaderBytes = 48
	// MTUPayload is the maximum transport payload per data packet.
	MTUPayload = 1000
	// MTUBytes is the maximum wire size of a data packet.
	MTUBytes = MTUPayload + HeaderBytes
	// CtrlBytes is the wire size of ACK/CNP/PFC frames.
	CtrlBytes = 64
)

// FlowID uniquely identifies a transport flow across the simulation.
type FlowID uint64

// Packet is one simulated frame. A packet object is owned by exactly one
// queue, link or in-flight event at a time (the one-owner invariant), so the
// switch-resident bookkeeping fields can be reused hop by hop — and so the
// sink that consumes the frame (host delivery, switch drop, PFC application,
// fault discard) can hand it back to a Pool for reuse. Code between source
// and sink must only pass the pointer onward, never retain it.
type Packet struct {
	Kind Kind
	Flow FlowID
	// Src and Dst are host IDs (indexes into the topology's host table).
	Src, Dst int
	// Priority selects the 802.1p queue (0..7).
	Priority int
	// Class tells the switch how to treat the packet when over threshold.
	Class Class
	// Size is the wire size in bytes, headers included.
	Size int
	// Seq is the first payload byte's offset for data packets and the
	// cumulative acknowledgement for ACKs.
	Seq int64
	// PayloadLen is the transport payload length of a data packet.
	PayloadLen int

	// PFCPriority is the priority a PFC frame acts on, meaningful when
	// Kind == KindPFC (as is PFCPause, below).
	PFCPriority int

	// SentAt is stamped by the transport when the packet first leaves the
	// sender, for RTT estimation.
	SentAt sim.Time

	// Switch-resident bookkeeping, valid only while the packet occupies a
	// switch's shared memory: the ingress port/priority it was admitted on
	// and the egress port index it is queued at.
	InPort, InPrio, OutPort int

	// The flags sit together at the end so that they share one word: the
	// struct is 120 bytes (the 128-byte size class, two cache lines), where
	// a bool beside each field it annotates made it 136 (class 144).
	// TestPacketFootprint holds the size.

	// CE is the ECN Congestion Experienced mark, set by switches.
	CE bool
	// ECE echoes CE back to the sender on ACKs (per-packet accurate echo).
	ECE bool
	// FlowFin marks the data packet carrying the last byte of its flow.
	FlowFin bool
	// PFCPause tells a PFC frame's direction: true = pause (XOFF), false =
	// resume (XON).
	PFCPause bool
	// InHeadroom records that the resident packet was charged to the PFC
	// headroom pool rather than the shared service pool.
	InHeadroom bool

	// pooled marks a packet currently sitting in a Pool's free list; Put
	// panics when it is already set (double-free detection at one branch of
	// cost, debug mode or not).
	pooled bool
}

// NewData builds a data packet for flow f carrying payload bytes
// [seq, seq+payload) from src to dst on the given priority/class. The New*
// constructors are the heap-allocating path, implemented on a nil Pool so
// they cannot drift from the pooled constructors.
func NewData(f FlowID, src, dst int, prio int, class Class, seq int64, payload int) *Packet {
	return (*Pool)(nil).Data(f, src, dst, prio, class, seq, payload)
}

// NewAck builds a cumulative ACK from src to dst. ece echoes the CE mark of
// the data packet being acknowledged.
func NewAck(f FlowID, src, dst int, cumSeq int64, ece bool) *Packet {
	return (*Pool)(nil).Ack(f, src, dst, cumSeq, ece)
}

// NewCNP builds a DCQCN congestion-notification packet for flow f from the
// notification point src back to the reaction point dst.
func NewCNP(f FlowID, src, dst int) *Packet {
	return (*Pool)(nil).CNP(f, src, dst)
}

// NewNack builds a go-back-N NACK for flow f from the receiver src back to
// the sender dst. expected is the next in-order byte the receiver wants.
func NewNack(f FlowID, src, dst int, expected int64) *Packet {
	return (*Pool)(nil).Nack(f, src, dst, expected)
}

// NewPFC builds a pause (XOFF) or resume (XON) frame for prio. PFC frames
// are link-local: Src/Dst are not routed.
func NewPFC(prio int, pause bool) *Packet {
	return (*Pool)(nil).PFC(prio, pause)
}

// End returns the offset one past the last payload byte of a data packet.
func (p *Packet) End() int64 { return p.Seq + int64(p.PayloadLen) }

// String renders a compact description for logs and test failures.
func (p *Packet) String() string {
	switch p.Kind {
	case KindPFC:
		verb := "resume"
		if p.PFCPause {
			verb = "pause"
		}
		return fmt.Sprintf("pfc{%s prio=%d}", verb, p.PFCPriority)
	case KindAck:
		return fmt.Sprintf("ack{flow=%d cum=%d ece=%v}", p.Flow, p.Seq, p.ECE)
	case KindCNP:
		return fmt.Sprintf("cnp{flow=%d}", p.Flow)
	case KindNack:
		return fmt.Sprintf("nack{flow=%d expected=%d}", p.Flow, p.Seq)
	default:
		return fmt.Sprintf("data{flow=%d seq=%d len=%d prio=%d ce=%v}",
			p.Flow, p.Seq, p.PayloadLen, p.Priority, p.CE)
	}
}
