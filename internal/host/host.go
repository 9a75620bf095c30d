// Package host models a server: a NIC (a netdev.Port honoring PFC) plus the
// transport endpoints running on it. The host demultiplexes arriving
// packets to per-flow DCTCP/DCQCN senders and receivers, creates receivers
// on demand, and reports flow completions upward to the metrics layer.
package host

import (
	"fmt"

	"l2bm/internal/dcqcn"
	"l2bm/internal/dctcp"
	"l2bm/internal/netdev"
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/transport"
)

// CompletionHandler observes flow completions (receiver side: the last byte
// arrived at time at).
type CompletionHandler func(id pkt.FlowID, at sim.Time)

// Host is one server.
type Host struct {
	eng  *sim.Engine
	id   int
	name string
	nic  *netdev.Port
	pool *pkt.Pool
	// ledger is the owning shard's flow-byte ledger: this host reports
	// every data frame it injects into its NIC and every data frame
	// delivered to its receivers. Nil outside a built fabric.
	ledger *pkt.Ledger

	// tc is the immutable transport descriptor, shared by every host of the
	// fabric (NewShared): a 100k-host build stores the DCTCP/DCQCN knobs
	// once, not once per server.
	tc *TransportConfig

	// The endpoint maps are nil until first use: at hyperscale most hosts
	// in a smoke window never source or sink a flow, so idle servers carry
	// no map buckets at all.
	tcpTx  map[pkt.FlowID]*dctcp.Sender
	tcpRx  map[pkt.FlowID]*dctcp.Receiver
	rdmaTx map[pkt.FlowID]*dcqcn.Sender
	rdmaRx map[pkt.FlowID]*dcqcn.Receiver

	onComplete CompletionHandler

	// FlowsStarted counts flows this host originated.
	FlowsStarted uint64
	// FlowsCompleted counts flows that finished arriving at this host.
	FlowsCompleted uint64
	// DataReceived counts data packets delivered to this host's receivers —
	// the fabric-wide progress signal the fault watchdog monitors.
	DataReceived uint64
}

var (
	_ netdev.Node   = (*Host)(nil)
	_ transport.Env = (*Host)(nil)
)

// TransportConfig bundles the transport knobs every host of a fabric
// shares. It is an immutable flyweight descriptor: build one per fabric and
// hand the same pointer to every NewShared call; never mutate it after the
// first host is built on it.
type TransportConfig struct {
	DCTCP dctcp.Config
	DCQCN dcqcn.Config
}

// New builds a host with private copies of the transport configurations.
// Attach the NIC with SetNIC after wiring the link.
func New(eng *sim.Engine, id int, name string, dctcpCfg dctcp.Config, dcqcnCfg dcqcn.Config) *Host {
	return NewShared(eng, id, name, &TransportConfig{DCTCP: dctcpCfg, DCQCN: dcqcnCfg})
}

// NewShared builds a host on a shared immutable transport descriptor. The
// endpoint maps are allocated lazily on first flow, so an idle host costs
// only its counters.
func NewShared(eng *sim.Engine, id int, name string, tc *TransportConfig) *Host {
	return &Host{
		eng:  eng,
		id:   id,
		name: name,
		tc:   tc,
	}
}

// ID returns the host's index in the topology host table.
func (h *Host) ID() int { return h.id }

// Name implements netdev.Node.
func (h *Host) Name() string { return h.name }

// SetNIC attaches the host side of its access link.
func (h *Host) SetNIC(p *netdev.Port) { h.nic = p }

// SetPool installs the engine's packet pool: endpoints on this host build
// their frames from it, and the host recycles every fully delivered packet
// back into it. Nil (the default) keeps plain heap allocation.
func (h *Host) SetPool(pl *pkt.Pool) { h.pool = pl }

// SetLedger installs the flow-byte ledger this host reports injected and
// delivered data frames to. Nil (the default) records nothing.
func (h *Host) SetLedger(l *pkt.Ledger) { h.ledger = l }

// NIC returns the host's port.
func (h *Host) NIC() *netdev.Port { return h.nic }

// SetCompletionHandler registers the observer for receiver-side flow
// completions.
func (h *Host) SetCompletionHandler(fn CompletionHandler) { h.onComplete = fn }

// StartFlow launches a transport sender for f. The flow's class picks the
// protocol: lossless flows run DCQCN, lossy flows run DCTCP.
func (h *Host) StartFlow(f *transport.Flow) {
	if f.Src != h.id {
		panic(fmt.Sprintf("host %d asked to start flow owned by host %d", h.id, f.Src))
	}
	f.Start = h.eng.Now()
	h.FlowsStarted++
	switch f.Class {
	case pkt.ClassLossless:
		s := dcqcn.NewSender(h, h.tc.DCQCN, f, nil)
		if h.rdmaTx == nil {
			h.rdmaTx = make(map[pkt.FlowID]*dcqcn.Sender)
		}
		h.rdmaTx[f.ID] = s
		s.Start()
	case pkt.ClassLossy:
		s := dctcp.NewSender(h, h.tc.DCTCP, f, nil)
		if h.tcpTx == nil {
			h.tcpTx = make(map[pkt.FlowID]*dctcp.Sender)
		}
		h.tcpTx[f.ID] = s
		s.Start()
	default:
		panic(fmt.Sprintf("host: flow %d has unroutable class %v", f.ID, f.Class))
	}
}

// StartFlowWarm is StartFlow for residual flows handed back from the fluid
// fast-forward layer: lossy (DCTCP) senders begin with an established
// congestion window of cwndBytes instead of the cold initial window.
// Lossless (DCQCN) senders need no warming — they start at line rate and
// only slow down on congestion feedback — so the hint is ignored for them.
func (h *Host) StartFlowWarm(f *transport.Flow, cwndBytes float64) {
	if f.Class != pkt.ClassLossy || cwndBytes <= 0 {
		h.StartFlow(f)
		return
	}
	if f.Src != h.id {
		panic(fmt.Sprintf("host %d asked to start flow owned by host %d", h.id, f.Src))
	}
	f.Start = h.eng.Now()
	h.FlowsStarted++
	s := dctcp.NewSender(h, h.tc.DCTCP, f, nil)
	s.Warm(cwndBytes) // before Start, so the first burst ships the full window
	if h.tcpTx == nil {
		h.tcpTx = make(map[pkt.FlowID]*dctcp.Sender)
	}
	h.tcpTx[f.ID] = s
	s.Start()
}

// HandleArrival implements netdev.Node: demultiplex to the right endpoint,
// then recycle the frame. The host is the delivery sink for every packet
// kind, so the one-owner contract for endpoint handlers is: read the packet,
// never retain it past return — by the time HandleArrival returns, the
// object is back in the pool.
func (h *Host) HandleArrival(p *pkt.Packet, port *netdev.Port) {
	// Engine-affinity audit (debug pools only): hosts live on their ToR's
	// shard, so a delivery from a port bound to another shard's engine
	// means the topology wiring bypassed the cross-shard lane path.
	if h.pool.Debug() && port != nil && port.Engine() != h.eng {
		panic(fmt.Sprintf("host: %s received a frame on a foreign engine", h.name))
	}
	switch p.Kind {
	case pkt.KindData:
		h.handleData(p)
	case pkt.KindAck:
		if s, ok := h.tcpTx[p.Flow]; ok {
			s.HandleAck(p)
		} else if s, ok := h.rdmaTx[p.Flow]; ok {
			s.HandleAck(p.Seq) // go-back-N cumulative ACK
		}
	case pkt.KindCNP:
		if s, ok := h.rdmaTx[p.Flow]; ok {
			s.HandleCNP()
		}
	case pkt.KindNack:
		if s, ok := h.rdmaTx[p.Flow]; ok {
			s.HandleNACK(p.Seq)
		}
	}
	h.pool.Put(p) // sink: delivered (or unroutable) frames die here
}

func (h *Host) handleData(p *pkt.Packet) {
	h.DataReceived++
	h.ledger.Delivered(p.Size)
	switch p.Class {
	case pkt.ClassLossless:
		r, ok := h.rdmaRx[p.Flow]
		if !ok {
			id := p.Flow
			r = dcqcn.NewReceiver(h, h.tc.DCQCN, id, h.id, p.Src, func(at sim.Time) {
				h.complete(id, at)
			})
			if h.rdmaRx == nil {
				h.rdmaRx = make(map[pkt.FlowID]*dcqcn.Receiver)
			}
			h.rdmaRx[id] = r
		}
		r.HandleData(p)
	case pkt.ClassLossy:
		r, ok := h.tcpRx[p.Flow]
		if !ok {
			id := p.Flow
			r = dctcp.NewReceiver(h, id, h.id, p.Src, func(at sim.Time) {
				h.complete(id, at)
			})
			if h.tcpRx == nil {
				h.tcpRx = make(map[pkt.FlowID]*dctcp.Receiver)
			}
			h.tcpRx[id] = r
		}
		r.HandleData(p)
	}
}

func (h *Host) complete(id pkt.FlowID, at sim.Time) {
	h.FlowsCompleted++
	if h.onComplete != nil {
		h.onComplete(id, at)
	}
}

// LosslessGaps sums sequence discontinuities over this host's RDMA
// receivers — nonzero only when the network broke the lossless guarantee.
func (h *Host) LosslessGaps() uint64 {
	var total uint64
	for _, r := range h.rdmaRx {
		total += r.Gaps()
	}
	return total
}

// RecoveryBytes sums the payload bytes this host's senders scheduled for
// retransmission (go-back-N rewinds plus DCTCP fast-retransmit/RTO resends)
// — the traffic cost of surviving injected faults.
func (h *Host) RecoveryBytes() int64 {
	var total int64
	for _, s := range h.rdmaTx {
		total += s.RetransmittedBytes
	}
	for _, s := range h.tcpTx {
		total += s.RetransmittedBytes
	}
	return total
}

// RDMARecoveryStats sums go-back-N counters over this host's RDMA senders:
// NACK-triggered rewinds and timeout-triggered rewinds.
func (h *Host) RDMARecoveryStats() (nacks, timeouts uint64) {
	for _, s := range h.rdmaTx {
		nacks += s.NACKsReceived
		timeouts += s.Timeouts
	}
	return nacks, timeouts
}

// ThrottledRDMASenders counts in-progress DCQCN senders on this host whose
// current rate is below frac of line rate — senders still recovering from a
// congestion cut. The hybrid-fidelity driver refuses to hand a segment back
// to the fluid layer while any exist: the fluid max-min solve would serve
// those flows at full fair share, forgetting the throttle the packet world
// is still paying off.
func (h *Host) ThrottledRDMASenders(frac float64) int {
	n := 0
	limit := frac * float64(h.tc.DCQCN.LineRate)
	for _, s := range h.rdmaTx {
		if !s.Done() && s.Rate() < limit {
			n++
		}
	}
	return n
}

// ThrottledTCPSenders counts in-progress DCTCP senders on this host whose
// congestion window is below minCwnd bytes. Companion to
// ThrottledRDMASenders for the hybrid driver's quiescence gate: a solo
// DCTCP flow's steady-state window is BDP plus the ECN-threshold standing
// queue, so a sender far below that (young slow-start flows, post-drop
// recovery) would be served too fast by the fluid layer's line-rate share.
func (h *Host) ThrottledTCPSenders(minCwnd float64) int {
	n := 0
	for _, s := range h.tcpTx {
		if !s.Done() && s.Cwnd() < minCwnd {
			n++
		}
	}
	return n
}

// TCPSender returns this host's DCTCP sender for flow id, if any (tests).
func (h *Host) TCPSender(id pkt.FlowID) *dctcp.Sender { return h.tcpTx[id] }

// RDMASender returns this host's DCQCN sender for flow id, if any (tests).
func (h *Host) RDMASender(id pkt.FlowID) *dcqcn.Sender { return h.rdmaTx[id] }

// FlowProgress reports the contiguous bytes delivered to this host for flow
// id, from whichever receiver (lossless or lossy) owns it. ok is false when
// no packet of the flow has reached this host yet. The hybrid-fidelity
// driver uses this at a packet-segment cut to carry residual flow state back
// into the fluid layer.
func (h *Host) FlowProgress(id pkt.FlowID) (delivered int64, ok bool) {
	if r, found := h.rdmaRx[id]; found {
		return r.Received(), true
	}
	if r, found := h.tcpRx[id]; found {
		return r.Received(), true
	}
	return 0, false
}

// --- transport.Env implementation ------------------------------------------

// Now implements transport.Env.
func (h *Host) Now() sim.Time { return h.eng.Now() }

// Send implements transport.Env. Every frame a transport emits — first
// transmissions and retransmissions alike — passes through here, so this is
// the single injection point of the flow-byte conservation ledger.
func (h *Host) Send(p *pkt.Packet) {
	if p.Kind == pkt.KindData {
		h.ledger.Injected(p.Size)
	}
	h.nic.Enqueue(p)
}

// Schedule implements transport.Env.
func (h *Host) Schedule(delay sim.Duration, fn func()) sim.EventRef {
	return h.eng.Schedule(delay, fn)
}

// NICBacklog implements transport.Env.
func (h *Host) NICBacklog(prio int) int { return h.nic.QueueBytes(prio) }

// Pool implements transport.Env: endpoints on this host build their frames
// from the host's pool (nil pool = heap allocation).
func (h *Host) Pool() *pkt.Pool { return h.pool }
