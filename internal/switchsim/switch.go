package switchsim

import (
	"fmt"

	"l2bm/internal/core"
	"l2bm/internal/netdev"
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/trace"
)

// Router chooses the egress port index for a packet entering the switch.
// The topology layer installs one (typically ECMP over shortest paths).
type Router func(p *pkt.Packet, inPort int) int

// Switch is an output-queued shared-memory switch. Packets arriving on any
// port traverse the MMU admission check and, if admitted, are enqueued at
// their egress port's priority queue; the MMU releases their buffer when the
// egress port finishes serializing them.
type Switch struct {
	eng  *sim.Engine
	name string
	// cfg is an immutable descriptor. At hyperscale the topology layer
	// builds ONE Config per switch role (ToR/agg/core) and shares the
	// pointer across every switch of that role (NewSwitchShared), so
	// per-switch state is the counters, not the configuration.
	cfg    *Config
	policy core.Policy
	ports  []*netdev.Port
	route  Router

	// preempt is the policy's optional preemption capability, type-asserted
	// once at construction. Nil for every non-preemptive policy (DT, ABM,
	// L2BM, ...), whose admission path is then a single branch-on-nil away
	// from the pre-preemption code.
	preempt core.PreemptivePolicy

	mmu   mmuState
	stats Stats
	rng   *sim.Rand

	// pool recycles dropped frames (the switch's only packet sinks: lossy
	// admission drops and lossless-violation discards). Nil disables
	// recycling — dropped packets are left to the GC, the pre-pool
	// behaviour.
	pool *pkt.Pool

	// dequeue is onDequeue bound once: every port shares it, where a
	// method value taken per port would allocate a closure each.
	dequeue func(*pkt.Packet)

	// tracer, when non-nil, receives flight-recorder events from the
	// admission/dequeue/PFC paths. The hot-path cost when disabled is a
	// single branch-on-nil per probe site (BenchmarkAdmit; armed, it is
	// BenchmarkAdmitTraceOn), and the probes are pure reads of MMU state —
	// tracing cannot perturb the run.
	tracer *trace.Recorder
}

var _ netdev.Node = (*Switch)(nil)

// mmuCell is the MMU state of one (port, priority): everything one side of
// an admission touches — occupancy, headroom and the pause re-issue clock on
// the ingress side, the egress counter on the other — in one 32-byte cell,
// so each side costs one cache line.
type mmuCell struct {
	// ing and eg are the ingress- and egress-pool counters Q_in and Q_out
	// (bytes, normal path: reserved then shared).
	ing, eg int64
	// hr is headroom usage of the lossless ingress queue.
	hr int64
	// pauseSentAt records when the most recent XOFF for a paused ingress
	// queue was emitted, for the lost-pause re-issue guard.
	pauseSentAt sim.Time
}

// mmuState holds the virtual counters of the ingress and egress pools (the
// admission path is the simulator's hottest loop, so no maps here).
type mmuState struct {
	// slot maps a priority to 1 + its cell's index within a port's row, or 0
	// while the switch has admitted no frame of it. A fabric provisions
	// eight priorities and charges two, so cells come with the first
	// admission of a priority, for every port at once, and a never-admitted
	// priority reads as zero without owning a cell.
	slot [pkt.NumPriorities]uint8
	// width is the number of priorities with a slot: the row length.
	width int
	// cells holds one row of width cells per port, in slot order.
	cells []mmuCell
	// paused is, per port, a bitmask of the ingress queues we have XOFF'd
	// upstream (bit i = priority i; NumPriorities <= 8 fits a byte).
	paused []uint8
	// sharedUsed is Q(t): bytes charged to the shared service pool
	// (ingress-side accounting beyond each queue's reserve).
	sharedUsed int64
	// poolUsed is the egress-pool occupancy per traffic class.
	poolUsed [4]int64
	// congested counts egress queues over the congestion mark, per
	// priority (for ABM).
	congested [pkt.NumPriorities]int
	// resident is the total bytes resident in the switch (reserved +
	// shared + headroom), the occupancy the paper plots.
	resident int64
	// version counts writes to anything above. CheckInvariants is a pure
	// function of this struct and the immutable Config, so an observer that
	// saw it pass at some version need not re-run it until the version
	// moves (audit.Auditor does exactly that). Every write site bumps it:
	// the charge in admitData, release (every dequeue and eviction),
	// setPaused, and SkewSharedUsedForTest —
	// TestVersionCoversEveryMMUWrite holds the list to the code. Giving a
	// priority its cells writes only zeros, so it moves nothing.
	version uint64
}

// cell returns the writable cell of (port, prio), giving prio its cells on
// every port first if the switch has not admitted it before.
func (m *mmuState) cell(port, prio int) *mmuCell {
	if m.slot[prio] == 0 {
		m.addSlot(prio)
	}
	return &m.cells[port*m.width+int(m.slot[prio])-1]
}

// at reads the cell of (port, prio); a priority never admitted reads as a
// zero cell and allocates nothing.
func (m *mmuState) at(port, prio int) mmuCell {
	s := m.slot[prio]
	if s == 0 {
		return mmuCell{}
	}
	return m.cells[port*m.width+int(s)-1]
}

// addSlot widens every port's row by one cell for prio.
func (m *mmuState) addSlot(prio int) {
	old, w := m.cells, m.width
	m.width++
	m.cells = make([]mmuCell, len(m.paused)*m.width)
	for port := range m.paused {
		copy(m.cells[port*m.width:], old[port*w:(port+1)*w])
	}
	m.slot[prio] = uint8(m.width)
}

func (m *mmuState) pausedOn(port, prio int) bool { return m.paused[port]&(1<<uint(prio)) != 0 }

// setPaused flips the PFC-pause bit of ingress queue (port, prio).
func (m *mmuState) setPaused(port, prio int, on bool) {
	if on {
		m.paused[port] |= 1 << uint(prio)
	} else {
		m.paused[port] &^= 1 << uint(prio)
	}
	m.version++
}

// ensurePorts grows the per-port tables to cover port index n-1.
func (m *mmuState) ensurePorts(n int) {
	for len(m.paused) < n {
		m.paused = append(m.paused, 0)
		m.cells = append(m.cells, make([]mmuCell, m.width)...)
	}
}

// NewSwitch builds a switch with no ports, taking a private copy of cfg.
// Attach ports with AddPort after wiring links via netdev.Connect.
func NewSwitch(eng *sim.Engine, name string, cfg Config, policy core.Policy) *Switch {
	return NewSwitchShared(eng, name, &cfg, policy)
}

// NewSwitchShared builds a switch sharing an immutable configuration
// descriptor: every switch of a role (ToR/agg/core) points at one Config,
// so a 100k-host fabric pays for the descriptor once per role rather than
// once per switch. The caller must not mutate cfg after the first switch
// is built on it.
func NewSwitchShared(eng *sim.Engine, name string, cfg *Config, policy core.Policy) *Switch {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if policy == nil {
		panic("switchsim: policy must not be nil")
	}
	preempt, _ := policy.(core.PreemptivePolicy)
	s := &Switch{
		eng:     eng,
		name:    name,
		cfg:     cfg,
		policy:  policy,
		preempt: preempt,
		rng:     eng.Rand("switch/" + name + "/ecn"),
	}
	s.dequeue = s.onDequeue
	return s
}

// Name implements netdev.Node.
func (s *Switch) Name() string { return s.name }

// Policy returns the buffer-management policy in force.
func (s *Switch) Policy() core.Policy { return s.policy }

// Stats returns a snapshot of the switch counters. Pause/resume frame
// counts are gathered from the ports at call time.
func (s *Switch) Stats() Stats {
	out := s.stats
	for _, p := range s.ports {
		sent, resumes := p.PFCFramesSent()
		out.PauseFramesSent += sent
		out.ResumeFramesSent += resumes
	}
	return out
}

// DroppedDataBytes returns the wire bytes of data frames this switch's MMU
// has killed — both admission-drop paths, lossless-violation discards and
// policy evictions: the switch-side kill sites of the fabric's flow-byte
// conservation ledger (frames lost on the wire are the ports' to report,
// see pkt.Ledger).
func (s *Switch) DroppedDataBytes() uint64 {
	return s.stats.LossyDropBytesIngress + s.stats.LossyDropBytesEgress +
		s.stats.LosslessViolationBytes + s.stats.LossyEvictionBytes
}

// AddPort registers a port (the switch side of a link) and returns its
// index. The port must have been created with this switch as its owner.
func (s *Switch) AddPort(p *netdev.Port) int {
	if p.Owner() != netdev.Node(s) {
		panic("switchsim: AddPort called with a port owned by another node")
	}
	id := len(s.ports)
	p.ID = id
	p.OnDequeue = s.dequeue
	s.ports = append(s.ports, p)
	s.mmu.ensurePorts(len(s.ports))
	return id
}

// Port returns the port at index i.
func (s *Switch) Port(i int) *netdev.Port { return s.ports[i] }

// NumPorts implements core.StateView.
func (s *Switch) NumPorts() int { return len(s.ports) }

// SetRouter installs the forwarding function.
func (s *Switch) SetRouter(r Router) { s.route = r }

// SetPool installs the packet pool this switch recycles dropped frames into
// (and its ports source PFC frames from / recycle consumed frames into).
func (s *Switch) SetPool(pl *pkt.Pool) {
	s.pool = pl
	for _, p := range s.ports {
		p.SetPool(pl)
	}
}

// SetLedger installs the flow-byte ledger this switch's ports report data
// frames lost on the wire to (the MMU's own kills stay in Stats, see
// DroppedDataBytes).
func (s *Switch) SetLedger(l *pkt.Ledger) {
	for _, p := range s.ports {
		p.SetLedger(l)
	}
}

// SetTracer arms (or, with nil, disarms) the flight recorder on this switch:
// MMU-side probes (drops, ECN marks, headroom entries, PFC assert/release/
// re-issue) plus transmitter-view pause transitions on every port added so
// far. Call after all ports are attached.
func (s *Switch) SetTracer(rec *trace.Recorder) {
	s.tracer = rec
	for _, p := range s.ports {
		if rec == nil {
			p.OnPauseTransition = nil
			continue
		}
		id := p.ID
		p.OnPauseTransition = func(prio int, paused bool) {
			kind := trace.PortResumed
			if paused {
				kind = trace.PortPaused
			}
			rec.RecordPFC(trace.PFCEvent{
				At: s.eng.Now(), Switch: s.name, Port: id, Prio: prio, Kind: kind,
			})
		}
	}
}

// Occupancy returns the total bytes resident in the switch buffer
// (reserved + shared + headroom), the quantity Figs. 7(c), 8 and 10(c) plot.
func (s *Switch) Occupancy() int64 { return s.mmu.resident }

// HandleArrival implements netdev.Node: the MMU admission path.
func (s *Switch) HandleArrival(p *pkt.Packet, port *netdev.Port) {
	if s.route == nil {
		panic("switchsim: no router installed on " + s.name)
	}
	// Engine-affinity audit (debug pools only): under the sharded runner
	// every switch is pinned to one shard's engine, and a frame from another
	// shard must be handed over through its shard-pair lane — never
	// delivered directly by that shard's engine. A violation here means the
	// ingress port was wired on another shard's engine, which silently
	// breaks determinism.
	if s.pool.Debug() && port.Engine() != s.eng {
		panic(fmt.Sprintf("switchsim: %s received a frame on a foreign engine (port %d)",
			s.name, port.ID))
	}
	out := s.route(p, port.ID)
	if out < 0 || out >= len(s.ports) {
		panic(fmt.Sprintf("switchsim: router returned invalid port %d on %s", out, s.name))
	}

	// Control packets (ACK/CNP) ride the strict-priority control queue
	// without charging the shared data pool: commodity switches reserve a
	// sliver of buffer for them and they are three orders of magnitude
	// smaller than the data backlog.
	if p.Class == pkt.ClassControl {
		s.ports[out].Enqueue(p)
		return
	}

	s.stats.RxPackets++
	s.admitData(p, port.ID, out)
}

// admitData runs the dual admission check of §II-A and enqueues or drops.
func (s *Switch) admitData(p *pkt.Packet, in, out int) {
	prio := p.Priority
	size := int64(p.Size)

	inHeadroom := false
	ingTh := s.policy.IngressThreshold(s, in, prio)
	inCell := s.mmu.cell(in, prio)
	if inCell.ing+size > s.cfg.ReservedPerQueue+ingTh {
		// Over the ingress threshold: lossy drops; lossless goes to
		// headroom (PFC is already, or is about to be, asserted).
		if p.Class == pkt.ClassLossy {
			if !s.preemptRetryIngress(p, in, out, size) {
				s.stats.LossyDropsIngress++
				s.stats.LossyDropBytesIngress += uint64(p.Size)
				if s.tracer != nil {
					s.recordPacketEvent(trace.DropLossyIngress, in, prio, p)
				}
				s.pool.Put(p) // sink: ingress drop
				return
			}
			// Preemption freed enough pool for the check to pass now;
			// proceed as a normal shared-pool admission.
		} else {
			if inCell.hr+size > s.cfg.HeadroomPerQueue {
				// Headroom exhausted: the lossless guarantee is broken.
				// Still run the PFC check — if the upstream is flooding
				// because the pause frame was lost, the re-issue guard is
				// the only way to stop it.
				s.stats.LosslessViolations++
				s.stats.LosslessViolationBytes += uint64(p.Size)
				if s.tracer != nil {
					s.recordPacketEvent(trace.LosslessViolation, in, prio, p)
				}
				s.checkPFC(in, prio, true)
				s.pool.Put(p) // sink: lossless-violation discard
				return
			}
			inHeadroom = true
		}
	}

	if p.Class == pkt.ClassLossy {
		egTh := s.policy.EgressThreshold(s, out, prio)
		if s.mmu.at(out, prio).eg+size > s.cfg.ReservedPerQueue+egTh {
			if !s.preemptRetryEgress(p, in, out, size) {
				s.stats.LossyDropsEgress++
				s.stats.LossyDropBytesEgress += uint64(p.Size)
				if s.tracer != nil {
					s.recordPacketEvent(trace.DropLossyEgress, out, prio, p)
				}
				s.pool.Put(p) // sink: egress drop
				return
			}
		}
	}
	// Lossless egress queues are no-drop: overload is pushed back to the
	// ingress side via PFC rather than enforced here.

	// Admission: charge the pools.
	p.InPort, p.InPrio, p.OutPort = in, prio, out
	p.InHeadroom = inHeadroom
	if inHeadroom {
		inCell.hr += size
		s.stats.LosslessHeadroom++
		if s.tracer != nil {
			s.recordPacketEvent(trace.HeadroomEnter, in, prio, p)
		}
	} else {
		before := sharedPart(inCell.ing, s.cfg.ReservedPerQueue)
		inCell.ing += size
		s.mmu.sharedUsed += sharedPart(inCell.ing, s.cfg.ReservedPerQueue) - before
	}
	s.bumpEgress(out, prio, size)
	s.mmu.resident += size
	s.mmu.version++
	if s.mmu.resident > s.stats.PeakOccupancy {
		s.stats.PeakOccupancy = s.mmu.resident
	}

	s.maybeMarkECN(p, out, prio)
	s.policy.OnEnqueue(s, p)
	s.checkPFC(in, prio, true)
	s.ports[out].Enqueue(p)
}

// preemptRetryIngress gives a preemptive policy one chance to evict
// already-admitted lossy bytes when lossy packet p failed the ingress
// threshold; it reports whether the re-evaluated check now admits p. With
// no preemptive policy in force this is a single nil check.
func (s *Switch) preemptRetryIngress(p *pkt.Packet, in, out int, size int64) bool {
	if s.preempt == nil || !s.preempt.Preempt(s, s, p, in, out) {
		return false
	}
	ingTh := s.policy.IngressThreshold(s, in, p.Priority)
	return s.mmu.at(in, p.Priority).ing+size <= s.cfg.ReservedPerQueue+ingTh
}

// preemptRetryEgress is preemptRetryIngress for the egress-queue check.
func (s *Switch) preemptRetryEgress(p *pkt.Packet, in, out int, size int64) bool {
	if s.preempt == nil || !s.preempt.Preempt(s, s, p, in, out) {
		return false
	}
	egTh := s.policy.EgressThreshold(s, out, p.Priority)
	return s.mmu.at(out, p.Priority).eg+size <= s.cfg.ReservedPerQueue+egTh
}

var _ core.Evictor = (*Switch)(nil)

// EvictLossyTail implements core.Evictor: pop packets off the TAIL of
// lossy egress queue (port, prio) until at least want bytes are freed or
// the queue empties, reversing each packet's admission charges through
// release — the code a dequeue uses — and recording the bytes at the
// eviction kill site of the conservation ledger. The tail packet is never the one
// being serialized — the transmitter pops its packet before scheduling —
// so eviction cannot corrupt an in-flight transmit.
func (s *Switch) EvictLossyTail(port, prio int, want int64) int64 {
	if want <= 0 || core.ClassOfPriority(prio) != pkt.ClassLossy {
		return 0
	}
	var freed int64
	for freed < want {
		q := s.ports[port].EvictTail(prio)
		if q == nil {
			break
		}
		s.stats.LossyEvictions++
		s.stats.LossyEvictionBytes += uint64(q.Size)
		if s.tracer != nil {
			s.recordPacketEvent(trace.EvictLossy, port, prio, q)
		}
		s.release(q)
		freed += int64(q.Size)
		s.pool.Put(q) // sink: preempted by the policy
	}
	return freed
}

// onDequeue releases a packet's buffer as its last bit leaves the egress
// port.
func (s *Switch) onDequeue(p *pkt.Packet) {
	if p.Class == pkt.ClassControl || p.Kind == pkt.KindPFC {
		return
	}
	s.stats.TxPackets++
	s.release(p)
}

// release reverses p's admission charges — headroom or the shared/reserved
// split at the stamped ingress cell, egress counter, class pool, congestion
// census, residency — then tells the policy and re-checks PFC. A dequeue and
// an eviction both leave the buffer through here.
func (s *Switch) release(p *pkt.Packet) {
	size := int64(p.Size)
	in, prio := p.InPort, p.InPrio

	inCell := s.mmu.cell(in, prio)
	if p.InHeadroom {
		inCell.hr -= size
		p.InHeadroom = false
	} else {
		before := sharedPart(inCell.ing, s.cfg.ReservedPerQueue)
		inCell.ing -= size
		s.mmu.sharedUsed += sharedPart(inCell.ing, s.cfg.ReservedPerQueue) - before
	}
	// Decrement the same (port, priority) cell the admission path charged:
	// the stamped p.OutPort/p.InPrio, never the mutable p.Priority (a
	// rewriting layer changing Priority in flight would otherwise leak one
	// egress cell negative and another positive forever).
	s.bumpEgress(p.OutPort, p.InPrio, -size)
	s.mmu.resident -= size
	s.mmu.version++

	s.policy.OnDequeue(s, p)
	s.checkPFC(in, prio, false)
}

// bumpEgress adjusts the egress counter, its class pool and the congestion
// census by delta bytes.
func (s *Switch) bumpEgress(out, prio int, delta int64) {
	cell := s.mmu.cell(out, prio)
	before := cell.eg
	after := before + delta
	cell.eg = after
	s.mmu.poolUsed[core.ClassOfPriority(prio)] += delta
	switch {
	case before <= congestionMark && after > congestionMark:
		s.mmu.congested[prio]++
	case before > congestionMark && after <= congestionMark:
		s.mmu.congested[prio]--
	}
}

// checkPFC asserts or releases PFC for a lossless ingress queue against the
// policy's current threshold (with hysteresis on release). arrival is true
// when called from the admission path — the only evidence usable for the
// lost-pause re-issue guard.
func (s *Switch) checkPFC(in, prio int, arrival bool) {
	if core.ClassOfPriority(prio) != pkt.ClassLossless {
		return
	}
	th := s.cfg.ReservedPerQueue + s.policy.IngressThreshold(s, in, prio)
	inCell := s.mmu.cell(in, prio)
	occ := inCell.ing + inCell.hr
	if !s.mmu.pausedOn(in, prio) {
		if occ >= th {
			s.mmu.setPaused(in, prio, true)
			inCell.pauseSentAt = s.eng.Now()
			if s.tracer != nil {
				s.recordPFC(trace.PFCAssert, in, prio)
			}
			s.ports[in].SendPFC(prio, true)
		}
		return
	}
	release := th - pfcHysteresis
	if release < 0 {
		release = 0
	}
	if occ <= release {
		s.mmu.setPaused(in, prio, false)
		if s.tracer != nil {
			s.recordPFC(trace.PFCRelease, in, prio)
		}
		s.ports[in].SendPFC(prio, false)
		return
	}
	// Re-issue guard (XON/XOFF hysteresis under lost pause frames): a
	// correctly paused upstream stops sending within one round trip plus
	// the frames already on the wire. An *arrival* on a paused queue after
	// that window means the XOFF never took effect — most likely the pause
	// frame itself was lost — so assert it again instead of wedging while
	// headroom burns. On a healthy fabric arrivals cease inside the guard
	// window and this path never fires, keeping the paper's pause-frame
	// counts untouched.
	if arrival && s.eng.Now() >= inCell.pauseSentAt+s.pfcGuard(in) {
		inCell.pauseSentAt = s.eng.Now()
		s.stats.PFCReissues++
		if s.tracer != nil {
			s.recordPFC(trace.PFCReissue, in, prio)
		}
		s.ports[in].SendPFC(prio, true)
	}
}

// recordPFC appends an MMU-view pause transition to the flight recorder.
// Called only with s.tracer != nil (hot-path branch stays at the call site).
func (s *Switch) recordPFC(kind trace.PFCKind, in, prio int) {
	s.tracer.RecordPFC(trace.PFCEvent{
		At: s.eng.Now(), Switch: s.name, Port: in, Prio: prio, Kind: kind,
	})
}

// recordPacketEvent appends a drop/ECN/headroom event to the flight
// recorder. Called only with s.tracer != nil.
func (s *Switch) recordPacketEvent(kind trace.PacketEventKind, port, prio int, p *pkt.Packet) {
	s.tracer.RecordPacketEvent(trace.PacketEvent{
		At: s.eng.Now(), Switch: s.name, Port: port, Prio: prio,
		Kind: kind, Size: p.Size, Class: p.Class,
	})
}

// pfcGuard is how long after an XOFF legitimate arrivals may still land on
// the paused ingress queue: the frame serializing ahead of the pause frame,
// the pause frame itself, one round-trip of propagation, the frame the
// upstream had already committed to the wire — plus one MTU of slack.
func (s *Switch) pfcGuard(in int) sim.Duration {
	p := s.ports[in]
	mtu := sim.TxTime(pkt.MTUBytes, p.Rate())
	return 3*mtu + sim.TxTime(pkt.CtrlBytes, p.Rate()) + 2*p.PropDelay()
}

// maybeMarkECN applies egress-queue ECN marking: DCTCP step marking on
// lossy queues, DCQCN RED-style marking on lossless queues.
func (s *Switch) maybeMarkECN(p *pkt.Packet, out, prio int) {
	backlog := s.mmu.at(out, prio).eg
	switch p.Class {
	case pkt.ClassLossy:
		if s.cfg.ECNLossyThreshold > 0 && backlog > s.cfg.ECNLossyThreshold {
			p.CE = true
			s.stats.ECNMarked++
			if s.tracer != nil {
				s.recordPacketEvent(trace.ECNMark, out, prio, p)
			}
		}
	case pkt.ClassLossless:
		if s.cfg.ECNLosslessKmax <= 0 {
			return
		}
		var prob float64
		switch {
		case backlog <= s.cfg.ECNLosslessKmin:
			return
		case backlog >= s.cfg.ECNLosslessKmax:
			prob = 1
		default:
			span := float64(s.cfg.ECNLosslessKmax - s.cfg.ECNLosslessKmin)
			prob = s.cfg.ECNLosslessPmax * float64(backlog-s.cfg.ECNLosslessKmin) / span
		}
		if prob >= 1 || s.rng.Float64() < prob {
			p.CE = true
			s.stats.ECNMarked++
			if s.tracer != nil {
				s.recordPacketEvent(trace.ECNMark, out, prio, p)
			}
		}
	}
}

// sharedPart is how much of a queue counter is charged to the shared pool
// (the excess over the static reserve).
func sharedPart(q, reserved int64) int64 {
	if q <= reserved {
		return 0
	}
	return q - reserved
}

// --- core.StateView implementation -----------------------------------------

var _ core.StateView = (*Switch)(nil)

// Now implements core.StateView.
func (s *Switch) Now() sim.Time { return s.eng.Now() }

// TotalShared implements core.StateView.
func (s *Switch) TotalShared() int64 { return s.cfg.TotalShared }

// SharedUsed implements core.StateView.
func (s *Switch) SharedUsed() int64 { return s.mmu.sharedUsed }

// EgressPoolUsed implements core.StateView.
func (s *Switch) EgressPoolUsed(c pkt.Class) int64 { return s.mmu.poolUsed[int(c)] }

// EgressQueueBytes implements core.StateView.
func (s *Switch) EgressQueueBytes(port, prio int) int64 {
	return s.mmu.at(port, prio).eg
}

// EgressDrainRate implements core.StateView.
func (s *Switch) EgressDrainRate(port, prio int) int64 {
	return s.ports[port].DrainRate(prio)
}

// EgressLineRate implements core.StateView.
func (s *Switch) EgressLineRate(port int) int64 { return s.ports[port].Rate() }

// EgressPausedTime implements core.StateView.
func (s *Switch) EgressPausedTime(port, prio int) sim.Duration {
	return s.ports[port].CumPausedTime(prio)
}

// EgressPausedFor implements core.StateView: how long the egress (port,
// priority) has been continuously paused as of now, or 0 when not paused.
func (s *Switch) EgressPausedFor(port, prio int) sim.Duration {
	p := s.ports[port]
	if !p.Paused(prio) {
		return 0
	}
	return s.eng.Now() - p.PausedSince(prio)
}

// CongestedEgressQueues implements core.StateView.
func (s *Switch) CongestedEgressQueues(prio int) int { return s.mmu.congested[prio] }
