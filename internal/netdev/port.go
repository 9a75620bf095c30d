// Package netdev models the physical layer of the simulated fabric: full-
// duplex links with serialization and propagation delay, and ports with
// eight 802.1p priority queues, round-robin scheduling, strict-priority
// control frames and per-priority PFC pause state.
//
// Both switch ports and host NICs are netdev.Ports; the owning Node decides
// what happens when a packet arrives.
package netdev

import (
	"fmt"
	"math/bits"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// Node receives packets from its ports. Switches and hosts implement it.
type Node interface {
	// HandleArrival is invoked once a packet has fully arrived (after
	// serialization and propagation) on port, which belongs to this node.
	// PFC frames are not delivered here; they act on the port itself.
	HandleArrival(p *pkt.Packet, port *Port)
	// Name identifies the node in logs and test failures.
	Name() string
}

// PortStats counts per-port activity for the metrics layer.
type PortStats struct {
	TxPackets   uint64
	TxBytes     uint64
	RxPackets   uint64
	RxBytes     uint64
	PFCSent     uint64 // pause frames sent (XOFF only, per the paper's metric)
	PFCResumes  uint64 // resume frames sent
	PFCReceived uint64 // pause frames received
	// CarrierDrops counts frames lost because they arrived while the
	// link carrier was down (fault injection).
	CarrierDrops uint64
	// FaultDrops counts frames discarded by the RxFault hook (bit-error
	// corruption or injected control-frame loss).
	FaultDrops uint64
	// ForcedResumes counts PFC pause states cleared by ForceResume (the
	// deadlock detector's documented degraded mode).
	ForcedResumes uint64
}

// FaultHook inspects a frame that has fully arrived on a port, before it is
// delivered to the owner (or, for PFC, applied to the pause state). Return
// false to discard the frame as lost or corrupted. The fault-injection layer
// installs these; a nil hook delivers everything.
type FaultHook func(p *pkt.Packet) bool

// The per-priority bitmasks are bytes and the round-robin scan rotates
// them, so there must be exactly eight priorities (compile-time check).
var _ = [1]struct{}{}[pkt.NumPriorities-8]

// Port is one side of a full-duplex link: it transmits toward its peer and
// receives what the peer transmits. Transmission is packet-granular
// round-robin across backlogged priorities, with control frames (PFC)
// preempting data, matching how commodity switches schedule pause frames
// ahead of payload.
//
// A port pays only for the per-priority state it has used: a fabric
// provisions every port for eight priorities, the model carries three, and
// most ports of a large fabric never carry a frame at all. So the data
// queues and the pause clocks are each allocated on first use (nil until
// then), and Port itself fits the 320-byte size class (TestPortFootprint
// holds it there).
type Port struct {
	eng   *sim.Engine
	owner Node
	peer  *Port
	// class is the link's immutable speed descriptor. The topology layer
	// builds ONE LinkClass per tier (host↔ToR, ToR↔agg, agg↔core) and
	// shares it across every cable of that tier (ConnectClass), so a
	// 100k-host fabric stores each (rate, delay) pair once, not per port.
	class *LinkClass

	// ID is the port's index within its owner (set by the owner).
	ID int

	// queues holds one data queue per priority this port has ever carried,
	// in order of first use, allocated by the first Enqueue; slot maps a
	// priority to its 1-based position there (0 = never carried). The
	// scheduler never walks either: it decides on the bitmasks below and
	// follows slot only to the queue it picked.
	queues []prioQueue
	slot   [pkt.NumPriorities]uint8
	ctrl   ring

	// nonEmpty and paused are per-priority bitmasks (bit i = priority i):
	// which data queues hold packets, and which are paused by peer PFC.
	// The scheduler's eligible set is nonEmpty &^ paused, one byte, so a
	// scheduling decision is a rotate and a bit scan rather than a walk
	// over eight queues. nonEmpty is set by Enqueue and cleared wherever a
	// pop empties a queue.
	nonEmpty uint8
	paused   uint8

	busy bool

	// down is true while the link carrier is down on this side: frames
	// arriving here are lost (the cable is dead). Transmission continues —
	// the egress buffer drains into the void — so MMU accounting stays
	// exact while the fabric loses the frames, matching how a real switch
	// keeps serializing into a dark fiber until the MAC reports loss of
	// signal. Zero value (false) means the link is up.
	down bool

	// lineMTU and lineCtrl are the engine's delay lines for the serialization
	// of a full data frame and of a 64-byte ACK/CNP/PFC frame, nearly every
	// frame on the wire (99.8 % of transmissions on the fig7 points and the
	// 10k-host smoke); lineProp is the propagation line to a peer on the
	// same engine. ConnectClass looks them up.
	lineMTU, lineCtrl, lineProp sim.Line

	rr int

	// pause holds the per-priority pause clocks, allocated by the first
	// XOFF that actually pauses this port (nil = never paused, every clock
	// reads zero).
	pause *pauseClocks

	// pool recycles consumed frames (PFC application, carrier/fault drops)
	// and sources PFC frames. Nil disables pooling: SendPFC heap-allocates
	// and dead frames are left to the GC, exactly the pre-pool behaviour.
	pool *pkt.Pool

	// ledger is the owning shard's flow-byte ledger; the port reports the
	// data frames it loses (carrier and fault drops — the port-layer kill
	// sites; control frames are not part of the ledger). Nil outside a
	// built fabric.
	ledger *pkt.Ledger

	// key is the port's wiring-order arrival key (1-based; 0 = unkeyed).
	// When set, every frame this port transmits is delivered with the
	// mode-invariant ordering key ArrivalKeyBit | key<<43 | txSeq instead
	// of the engine's scheduling sequence, so equal-timestamp delivery
	// order depends only on the wiring — not on which engine scheduled the
	// arrival. txSeq counts this port's transmissions.
	key   uint64
	txSeq uint64

	// lane, when set, diverts this port's transmissions into the lane from
	// its shard to the peer's instead of scheduling the arrival on the
	// peer's engine directly (the peer lives on a different shard). The
	// peer's shard delivers it after the next barrier.
	lane *Lane

	// onTxDone and onArrive are the port's two hot-path event bodies,
	// bound ONCE here so the per-packet schedule calls allocate nothing:
	// the packet in flight rides in the event's arg slot (it is its
	// own in-flight record — serialization already finished when onTxDone
	// fires, and propagation delay is the link constant prop).
	onTxDone sim.ArgCallback
	onArrive sim.ArgCallback

	stats PortStats

	// OnDequeue, when set, fires as a packet finishes serializing out of
	// this port (the moment its buffer is released). Switches use it to
	// decrement MMU counters.
	OnDequeue func(p *pkt.Packet)
	// OnPFC, when set, fires when a PFC frame from the peer takes effect
	// on this port.
	OnPFC func(prio int, paused bool)
	// OnPauseTransition, when set, fires exactly when this port's transmit
	// pause state for prio actually changes (redundant XOFFs on an
	// already-paused priority do not fire it). The trace layer uses it to
	// record transmitter-view pause episodes; it must not mutate the
	// simulation.
	OnPauseTransition func(prio int, paused bool)
	// RxFault, when set, vets every fully arrived frame; returning false
	// drops it (fault injection: corruption, lost PFC).
	RxFault FaultHook
}

// prioQueue is one priority's data queue and its backlog in bytes.
type prioQueue struct {
	ring
	bytes int
}

// queueSlots is the capacity the first Enqueue gives Port.queues: the model
// carries three priorities (lossless, lossy, control), so the slice regrows
// only on a port that sees a fourth.
const queueSlots = 3

// pauseClocks is a port's PFC pause bookkeeping: when each priority's
// current pause began, and how long each has been paused in total over
// completed pauses.
type pauseClocks struct {
	since [pkt.NumPriorities]sim.Time
	cum   [pkt.NumPriorities]sim.Duration
}

// LinkClass is the immutable speed descriptor of a cable: line rate in
// bits/s and one-way propagation delay. Cables of the same tier share one
// descriptor (flyweight) — never mutate a LinkClass after wiring a link
// on it.
type LinkClass struct {
	Rate int64
	Prop sim.Duration
}

// Connect wires a full-duplex link between nodes a and b with the given line
// rate (bits/s) and one-way propagation delay, returning the port on each
// side. Both directions share rate and delay, like a real cable.
func Connect(eng *sim.Engine, a, b Node, rateBps int64, prop sim.Duration) (*Port, *Port) {
	return ConnectClass(eng, eng, a, b, &LinkClass{Rate: rateBps, Prop: prop}, nil, nil)
}

// ConnectClass wires a full-duplex link whose two sides may live on
// different engines (shards) — a's port schedules its local events
// (serialization, receive processing) on engA, b's on engB — over an
// explicit shared link descriptor: every cable of a tier points at the same
// immutable LinkClass. When the engines differ, a's transmissions travel in
// ab, the lane from a's shard to b's, and b's in ba; the peer's shard
// delivers them on its own engine after the next barrier, which is sound
// because the link's propagation delay is at least the conductor's
// lookahead. Cross-engine ports MUST also be given arrival keys
// (SetArrivalKey) before traffic flows; same-engine wiring ignores the lanes
// and degrades to exactly Connect. Each port takes its delay lines from its
// own engine here: both serialization times, and the propagation delay when
// the peer shares the engine.
func ConnectClass(engA, engB *sim.Engine, a, b Node, class *LinkClass, ab, ba *Lane) (*Port, *Port) {
	if class == nil || class.Rate <= 0 {
		panic("netdev: link rate must be positive")
	}
	pa := &Port{eng: engA, owner: a, class: class}
	pb := &Port{eng: engB, owner: b, class: class}
	pa.peer, pb.peer = pb, pa
	pa.bind()
	pb.bind()
	if engA != engB {
		if class.Prop <= 0 {
			panic("netdev: cross-engine links need positive propagation delay (the conservative lookahead)")
		}
		if ab == nil || ba == nil {
			panic("netdev: cross-engine links need a lane per direction")
		}
		pa.lane, pb.lane = ab, ba
	}
	return pa, pb
}

// SetArrivalKey assigns the port's wiring-order arrival key (1-based; see
// the key field). Keys must be unique across the fabric and identical
// between the sequential and sharded builds of the same topology — the
// topo layer derives them from global wiring order. Panics on zero or on
// overflowing the 20-bit key space.
func (p *Port) SetArrivalKey(key uint64) {
	if key == 0 || key >= 1<<20 {
		panic(fmt.Sprintf("netdev: arrival key %d out of range [1, 2^20)", key))
	}
	p.key = key
}

// ArrivalKey returns the port's wiring-order key (0 = unkeyed).
func (p *Port) ArrivalKey() uint64 { return p.key }

// Engine returns the engine this port's local events run on.
func (p *Port) Engine() *sim.Engine { return p.eng }

// bind builds the port's two pre-bound event bodies exactly once and looks
// up its delay lines. Each wrapper closes over the port only — the
// per-packet state arrives via the event's arg slot — so the simulator
// allocates two closures per PORT at wiring time instead of two per PACKET
// per hop at run time. The peer must already be set.
func (p *Port) bind() {
	p.onTxDone = func(arg any) { p.finishTransmit(arg.(*pkt.Packet)) }
	p.onArrive = func(arg any) { p.receive(arg.(*pkt.Packet)) }
	p.lineMTU = p.eng.DelayLine(sim.TxTime(pkt.MTUBytes, p.class.Rate))
	p.lineCtrl = p.eng.DelayLine(sim.TxTime(pkt.CtrlBytes, p.class.Rate))
	if p.peer.eng == p.eng {
		p.lineProp = p.eng.DelayLine(p.class.Prop)
	}
}

// SetPool installs the packet pool this port recycles consumed frames into
// (PFC application, carrier/fault drops) and sources its PFC frames from.
// A nil pool restores the pre-pool heap-allocating behaviour.
func (p *Port) SetPool(pl *pkt.Pool) { p.pool = pl }

// SetLedger installs the flow-byte ledger this port reports lost data
// frames to. A nil ledger (the default) records nothing.
func (p *Port) SetLedger(l *pkt.Ledger) { p.ledger = l }

// Owner returns the node this port belongs to.
func (p *Port) Owner() Node { return p.owner }

// Peer returns the port on the other side of the link.
func (p *Port) Peer() *Port { return p.peer }

// Rate returns the line rate in bits per second.
func (p *Port) Rate() int64 { return p.class.Rate }

// PropDelay returns the one-way propagation delay of the link.
func (p *Port) PropDelay() sim.Duration { return p.class.Prop }

// Stats returns a snapshot of the port counters.
func (p *Port) Stats() PortStats { return p.stats }

// PFCFramesSent returns the pause (XOFF) and resume (XON) frames this port
// has sent, without copying the whole PortStats.
func (p *Port) PFCFramesSent() (pauses, resumes uint64) {
	return p.stats.PFCSent, p.stats.PFCResumes
}

// queue returns prio's data queue, or nil when this port has never carried
// that priority.
func (p *Port) queue(prio int) *prioQueue {
	if s := p.slot[prio]; s != 0 {
		return &p.queues[s-1]
	}
	return nil
}

// addQueue gives prio its data queue on first use.
func (p *Port) addQueue(prio int) *prioQueue {
	if p.queues == nil {
		p.queues = make([]prioQueue, 0, queueSlots)
	}
	p.queues = append(p.queues, prioQueue{})
	p.slot[prio] = uint8(len(p.queues))
	return &p.queues[len(p.queues)-1]
}

// QueueBytes returns the bytes currently backlogged in priority queue prio.
func (p *Port) QueueBytes(prio int) int {
	if q := p.queue(prio); q != nil {
		return q.bytes
	}
	return 0
}

// QueuePackets returns the packet count backlogged in priority queue prio.
func (p *Port) QueuePackets(prio int) int {
	if q := p.queue(prio); q != nil {
		return q.len()
	}
	return 0
}

// TotalBacklog returns the bytes backlogged across all data priorities.
func (p *Port) TotalBacklog() int {
	total := 0
	for i := range p.queues {
		total += p.queues[i].bytes
	}
	return total
}

// Paused reports whether transmission of prio is paused by peer PFC.
func (p *Port) Paused(prio int) bool { return p.paused&(1<<uint(prio)) != 0 }

// PausedSince returns when the current pause of prio began; meaningful only
// while Paused(prio) is true.
func (p *Port) PausedSince(prio int) sim.Time {
	if p.pause == nil {
		return 0
	}
	return p.pause.since[prio]
}

// Up reports whether the link carrier is up on this side.
func (p *Port) Up() bool { return !p.down }

// SetCarrier raises or cuts the link carrier on this side. While down,
// frames arriving here are lost (counted in CarrierDrops). The fault layer
// sets both sides of a link together, like a real cable cut.
func (p *Port) SetCarrier(up bool) { p.down = !up }

// ForceResume clears a PFC pause on prio without a resume frame from the
// peer — the deadlock detector's cycle-breaking action. It reports whether
// a pause was actually cleared. This is a documented degraded mode: the
// downstream switch may be pushed into headroom (or, exhausted, into a
// lossless violation), which the stats record.
func (p *Port) ForceResume(prio int) bool {
	if !p.Paused(prio) {
		return false
	}
	p.resume(prio)
	p.stats.ForcedResumes++
	if p.OnPauseTransition != nil {
		p.OnPauseTransition(prio, false)
	}
	p.tryTransmit()
	return true
}

// resume clears prio's pause bit and banks the pause that just ended. A set
// pause bit implies the clocks exist: only applyPFC sets one, after
// allocating them.
func (p *Port) resume(prio int) {
	p.paused &^= 1 << uint(prio)
	p.pause.cum[prio] += p.eng.Now() - p.pause.since[prio]
}

// CumPausedTime returns the total simulated time priority prio has spent
// paused, including the current pause interval if one is in progress. The
// L2BM sojourn module uses this to exclude PFC stalls from its congestion
// estimate (paper §III-D).
func (p *Port) CumPausedTime(prio int) sim.Duration {
	if p.pause == nil {
		return 0
	}
	total := p.pause.cum[prio]
	if p.Paused(prio) {
		total += p.eng.Now() - p.pause.since[prio]
	}
	return total
}

// backloggedPriorities counts data priorities with queued packets that are
// not paused — the set competing for the line in round-robin.
func (p *Port) backloggedPriorities() int { return bits.OnesCount8(p.nonEmpty &^ p.paused) }

// DrainRate estimates the service rate (bits/s) priority prio currently
// receives: the full line rate divided among the backlogged, unpaused data
// priorities sharing it round-robin. An idle or sole-backlogged priority
// gets the full rate; a **paused** priority gets 0 — it receives no service
// at all until the peer's XON arrives. (Reporting a rate/(n+1) share for a
// paused queue was a bug: it made Algorithm 1's Q_out/μ expected-drain term
// finite for queues that were not draining, underestimating τ exactly when
// congestion was worst. Callers that need a post-resume estimate should fall
// back to Rate() explicitly — see core.sojournQueue.onEnqueue.)
func (p *Port) DrainRate(prio int) int64 {
	if p.Paused(prio) {
		return 0
	}
	n := p.backloggedPriorities()
	backlogged := p.nonEmpty&(1<<uint(prio)) != 0
	if n == 0 || (backlogged && n == 1) {
		return p.class.Rate
	}
	if !backlogged {
		// Joining packet would add one more competitor.
		n++
	}
	return p.class.Rate / int64(n)
}

// Enqueue places a data/ACK/CNP packet on its priority queue and starts the
// transmitter if idle.
func (p *Port) Enqueue(q *pkt.Packet) {
	if q.Kind == pkt.KindPFC {
		panic("netdev: PFC frames go through SendPFC")
	}
	pq := p.queue(q.Priority)
	if pq == nil {
		pq = p.addQueue(q.Priority)
	}
	pq.push(q)
	pq.bytes += q.Size
	p.nonEmpty |= 1 << uint(q.Priority)
	p.tryTransmit()
}

// EvictTail removes and returns the newest waiting packet of priority prio,
// or nil when that queue is empty. The packet currently being serialized is
// never in the queue (nextPacket pops it before scheduling the transmit),
// so eviction can never yank a frame off the wire. The caller — the switch
// MMU's preemption path — owns the returned packet and its accounting.
func (p *Port) EvictTail(prio int) *pkt.Packet {
	if p.nonEmpty&(1<<uint(prio)) == 0 {
		return nil
	}
	pq := p.queue(prio)
	q := pq.popTail()
	p.popped(pq, prio, q)
	return q
}

// popped settles the accounts after q left prio's queue pq: the byte
// backlog, and the nonEmpty bit if the pop just emptied the queue.
func (p *Port) popped(pq *prioQueue, prio int, q *pkt.Packet) {
	pq.bytes -= q.Size
	if pq.n == 0 {
		p.nonEmpty &^= 1 << uint(prio)
	}
}

// SendPFC queues a pause (XOFF) or resume (XON) frame for prio toward the
// peer. Control frames preempt data scheduling.
func (p *Port) SendPFC(prio int, pause bool) {
	frame := p.pool.PFC(prio, pause)
	p.ctrl.push(frame)
	if pause {
		p.stats.PFCSent++
	} else {
		p.stats.PFCResumes++
	}
	p.tryTransmit()
}

// tryTransmit starts serializing the next eligible packet if the line is
// idle: control frames first, then round-robin over unpaused backlogged
// priorities.
func (p *Port) tryTransmit() {
	if p.busy {
		return
	}
	q := p.nextPacket()
	if q == nil {
		return
	}
	p.busy = true
	switch q.Size {
	case pkt.MTUBytes:
		p.eng.ScheduleLine(p.lineMTU, p.onTxDone, q)
	case pkt.CtrlBytes:
		p.eng.ScheduleLine(p.lineCtrl, p.onTxDone, q)
	default:
		p.eng.ScheduleArg(sim.TxTime(q.Size, p.class.Rate), p.onTxDone, q)
	}
}

// nextPacket dequeues the packet to transmit, or nil when nothing is
// eligible: control frames first, then round-robin over the data queues.
func (p *Port) nextPacket() *pkt.Packet {
	if p.ctrl.len() > 0 {
		return p.ctrl.pop()
	}
	ready := p.nonEmpty &^ p.paused
	if ready == 0 {
		return nil
	}
	// Rotating right by rr puts priority rr at bit 0, so the lowest set bit
	// is the first eligible priority at or after rr, wrapping around.
	prio := (p.rr + bits.TrailingZeros8(bits.RotateLeft8(ready, -p.rr))) % pkt.NumPriorities
	pq := p.queue(prio) // a set nonEmpty bit implies the queue exists
	q := pq.pop()
	p.popped(pq, prio, q)
	p.rr = (prio + 1) % pkt.NumPriorities
	return q
}

// finishTransmit runs when the last bit of q hits the wire: release the
// buffer (OnDequeue), hand the packet to the peer after propagation, and
// keep the line busy with the next packet. Keyed ports deliver with the
// wiring-derived ordering key (mode-invariant tie-break); cross-shard
// ports additionally route through their lane with an ownership transfer
// out of the local pool.
func (p *Port) finishTransmit(q *pkt.Packet) {
	p.stats.TxPackets++
	p.stats.TxBytes += uint64(q.Size)
	if q.Kind != pkt.KindPFC && p.OnDequeue != nil {
		p.OnDequeue(q)
	}
	switch {
	case p.lane != nil:
		if p.key == 0 {
			panic(fmt.Sprintf("netdev: cross-engine port %s transmitting without an arrival key", p))
		}
		p.txSeq++
		p.pool.Export(q) // ownership moves to the lane, then the peer's pool
		p.lane.add(p.eng.Now()+p.class.Prop, sim.ArrivalKeyBit|p.key<<43|p.txSeq, q, p.peer, p.pool)
	case p.key != 0:
		p.txSeq++
		p.eng.ScheduleLineKeyed(p.lineProp, p.peer.onArrive, q, sim.ArrivalKeyBit|p.key<<43|p.txSeq)
	default:
		p.eng.ScheduleLine(p.lineProp, p.peer.onArrive, q)
	}
	p.busy = false
	p.tryTransmit()
}

// receive handles full arrival of a packet on this side of the link.
func (p *Port) receive(q *pkt.Packet) {
	if p.down {
		p.stats.CarrierDrops++
		if q.Kind == pkt.KindData {
			p.ledger.Lost(q.Size)
		}
		p.pool.Put(q) // sink: the frame died on a dark fiber
		return
	}
	if p.RxFault != nil && !p.RxFault(q) {
		p.stats.FaultDrops++
		if q.Kind == pkt.KindData {
			p.ledger.Lost(q.Size)
		}
		p.pool.Put(q) // sink: corrupted or injected-loss frame
		return
	}
	p.stats.RxPackets++
	p.stats.RxBytes += uint64(q.Size)
	if q.Kind == pkt.KindPFC {
		p.applyPFC(q)
		p.pool.Put(q) // sink: PFC frames act on the port and stop here
		return
	}
	p.owner.HandleArrival(q, p)
}

// applyPFC pauses or resumes a priority of this port's transmit direction.
func (p *Port) applyPFC(q *pkt.Packet) {
	prio := q.PFCPriority
	if q.PFCPause {
		p.stats.PFCReceived++
		if !p.Paused(prio) {
			if p.pause == nil {
				p.pause = new(pauseClocks)
			}
			p.paused |= 1 << uint(prio)
			p.pause.since[prio] = p.eng.Now()
			if p.OnPauseTransition != nil {
				p.OnPauseTransition(prio, true)
			}
		}
	} else if p.Paused(prio) {
		p.resume(prio)
		if p.OnPauseTransition != nil {
			p.OnPauseTransition(prio, false)
		}
		p.tryTransmit()
	}
	if p.OnPFC != nil {
		p.OnPFC(prio, q.PFCPause)
	}
}

// String identifies the port for diagnostics.
func (p *Port) String() string {
	return fmt.Sprintf("%s.port[%d]", p.owner.Name(), p.ID)
}
