package netdev

import (
	"testing"
	"unsafe"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// captureNode records arrivals with timestamps.
type captureNode struct {
	name string
	eng  *sim.Engine
	got  []*pkt.Packet
	at   []sim.Time
}

func (c *captureNode) HandleArrival(p *pkt.Packet, _ *Port) {
	c.got = append(c.got, p)
	c.at = append(c.at, c.eng.Now())
}

func (c *captureNode) Name() string { return c.name }

func newPair(t *testing.T, rate int64, prop sim.Duration) (*sim.Engine, *captureNode, *captureNode, *Port, *Port) {
	t.Helper()
	eng := sim.NewEngine(1)
	a := &captureNode{name: "a", eng: eng}
	b := &captureNode{name: "b", eng: eng}
	pa, pb := Connect(eng, a, b, rate, prop)
	return eng, a, b, pa, pb
}

func data(prio, payload int) *pkt.Packet {
	return pkt.NewData(1, 0, 1, prio, pkt.ClassLossy, 0, payload)
}

func TestLinkTimingExact(t *testing.T) {
	eng, _, b, pa, _ := newPair(t, 25e9, sim.Microsecond)
	p := data(pkt.PrioLossy, pkt.MTUPayload) // 1048 bytes
	pa.Enqueue(p)
	eng.RunAll()

	if len(b.got) != 1 {
		t.Fatalf("arrivals = %d, want 1", len(b.got))
	}
	want := sim.TxTime(pkt.MTUBytes, 25e9) + sim.Microsecond
	if b.at[0] != want {
		t.Errorf("arrival at %v, want %v", b.at[0], want)
	}
}

func TestBackToBackSerialization(t *testing.T) {
	eng, _, b, pa, _ := newPair(t, 25e9, sim.Microsecond)
	pa.Enqueue(data(pkt.PrioLossy, 500))
	pa.Enqueue(data(pkt.PrioLossy, 500))
	eng.RunAll()

	if len(b.got) != 2 {
		t.Fatalf("arrivals = %d, want 2", len(b.got))
	}
	tx := sim.TxTime(500+pkt.HeaderBytes, 25e9)
	if b.at[0] != tx+sim.Microsecond {
		t.Errorf("first arrival at %v, want %v", b.at[0], tx+sim.Microsecond)
	}
	if b.at[1] != 2*tx+sim.Microsecond {
		t.Errorf("second arrival at %v, want %v (pipelined serialization)", b.at[1], 2*tx+sim.Microsecond)
	}
}

// TestLinkClassTxTime holds the transmitter to sim.TxTime: at usual,
// degraded and odd line rates, on a class shared by several cables (whose
// ports share the engine's delay lines), frames of every size up to two MTUs
// — full and control frames, which serialize on those lines, among them —
// leave the wire back to back exactly when sim.TxTime says.
func TestLinkClassTxTime(t *testing.T) {
	for _, rate := range []int64{1e9, 10e9, 12_500_000_000, 25e9, 40e9, 100e9, 400e9, 1_000_000_007, 7} {
		eng := sim.NewEngine(1)
		node := &captureNode{name: "n", eng: eng}
		class := &LinkClass{Rate: rate}
		var pa *Port
		for cables := 0; cables < 3; cables++ {
			pa, _ = ConnectClass(eng, eng, node, node, class, nil, nil)
		}
		var done []sim.Time
		pa.OnDequeue = func(*pkt.Packet) { done = append(done, eng.Now()) }
		var want []sim.Time
		var at sim.Time
		for size := pkt.HeaderBytes; size <= 2*pkt.MTUBytes; size++ {
			pa.Enqueue(data(pkt.PrioLossy, size-pkt.HeaderBytes))
			at += sim.TxTime(size, rate)
			want = append(want, at)
		}
		eng.RunAll()
		if len(done) != len(want) {
			t.Fatalf("%d bit/s: %d frames serialized, want %d", rate, len(done), len(want))
		}
		for i := range want {
			if done[i] != want[i] {
				t.Fatalf("%d bit/s: the %d-byte frame left the wire at %v, want %v", rate, pkt.HeaderBytes+i, done[i], want[i])
			}
		}
	}
}

func TestRoundRobinAcrossPriorities(t *testing.T) {
	eng, _, b, pa, _ := newPair(t, 25e9, 0)
	// Three packets on lossy, three on lossless, enqueued before anything
	// transmits: expect strict alternation after the first.
	for i := 0; i < 3; i++ {
		pa.Enqueue(data(pkt.PrioLossless, 100))
		pa.Enqueue(data(pkt.PrioLossy, 100))
	}
	eng.RunAll()

	if len(b.got) != 6 {
		t.Fatalf("arrivals = %d, want 6", len(b.got))
	}
	for i := 0; i < 6; i += 2 {
		if b.got[i].Priority != pkt.PrioLossless || b.got[i+1].Priority != pkt.PrioLossy {
			prios := make([]int, 6)
			for j, p := range b.got {
				prios[j] = p.Priority
			}
			t.Fatalf("expected alternating priorities, got %v", prios)
		}
	}
}

func TestControlFramesPreemptData(t *testing.T) {
	eng, _, b, pa, pb := newPair(t, 25e9, 0)
	_ = pb
	pa.Enqueue(data(pkt.PrioLossy, 1000))
	pa.Enqueue(data(pkt.PrioLossy, 1000))
	pa.SendPFC(0, true) // queued while first data packet is on the wire
	eng.RunAll()

	// PFC is consumed by the peer port, so only data arrives at the node;
	// but the pause must have taken effect before the second data packet
	// finished — verify via ordering of effects: peer's priority 0 paused.
	if !pb.Paused(0) {
		t.Error("peer priority 0 should be paused")
	}
	if len(b.got) != 2 {
		t.Fatalf("arrivals = %d, want 2 data packets", len(b.got))
	}
	// The PFC frame (64B) must have been sent between the two 1048B data
	// packets: second data arrival delayed by the control frame time.
	tx := sim.TxTime(pkt.MTUBytes, 25e9)
	ctrl := sim.TxTime(pkt.CtrlBytes, 25e9)
	if b.at[1] != 2*tx+ctrl {
		t.Errorf("second data arrival at %v, want %v (control preemption)", b.at[1], 2*tx+ctrl)
	}
}

func TestPFCPausesOnlyTargetPriority(t *testing.T) {
	eng, _, b, pa, pb := newPair(t, 25e9, 0)

	// Pause lossless on pb's transmit side (pa sends the pause frame).
	pa.SendPFC(pkt.PrioLossless, true)
	eng.RunAll()
	if !pb.Paused(pkt.PrioLossless) {
		t.Fatal("lossless priority should be paused on peer")
	}

	pb.Enqueue(data(pkt.PrioLossless, 100))
	pb.Enqueue(data(pkt.PrioLossy, 100))
	eng.RunAll()

	if len(b.got) != 0 {
		t.Fatal("b should receive nothing (b owns pa side)")
	}
	// Only the lossy packet should have crossed to a's side... capture is
	// on node a via pa. Recheck: pb transmits toward pa, owner of pa is a.
	eng.RunAll()
	if pb.QueuePackets(pkt.PrioLossless) != 1 {
		t.Error("paused lossless packet should remain queued")
	}
	if pb.QueuePackets(pkt.PrioLossy) != 0 {
		t.Error("lossy packet should have been transmitted")
	}
}

func TestPFCResumeRestartsTransmission(t *testing.T) {
	eng, a, _, pa, pb := newPair(t, 25e9, 0)
	pa.SendPFC(pkt.PrioLossless, true)
	eng.RunAll()
	pb.Enqueue(data(pkt.PrioLossless, 100))
	eng.RunAll()
	if len(a.got) != 0 {
		t.Fatal("packet leaked through pause")
	}

	pauseEnd := eng.Now()
	pa.SendPFC(pkt.PrioLossless, false)
	eng.RunAll()
	if len(a.got) != 1 {
		t.Fatal("packet not released after resume")
	}
	if got := pb.CumPausedTime(pkt.PrioLossless); got <= 0 {
		t.Error("CumPausedTime should be positive after a pause interval")
	} else if got > pauseEnd+sim.Microsecond {
		t.Errorf("CumPausedTime %v implausibly large", got)
	}
}

func TestCumPausedTimeDuringActivePause(t *testing.T) {
	eng, _, _, pa, pb := newPair(t, 25e9, 0)
	pa.SendPFC(0, true)
	eng.RunAll()
	start := eng.Now()
	eng.Schedule(5*sim.Microsecond, func() {})
	eng.RunAll()
	if got := pb.CumPausedTime(0); got != eng.Now()-start {
		t.Errorf("CumPausedTime = %v, want %v (in-progress pause counts)", got, eng.Now()-start)
	}
}

func TestOnDequeueFiresAtTxComplete(t *testing.T) {
	eng, _, _, pa, _ := newPair(t, 25e9, sim.Microsecond)
	var at sim.Time = -1
	pa.OnDequeue = func(p *pkt.Packet) { at = eng.Now() }
	pa.Enqueue(data(pkt.PrioLossy, 1000))
	eng.RunAll()
	want := sim.TxTime(pkt.MTUBytes, 25e9)
	if at != want {
		t.Errorf("OnDequeue at %v, want %v (end of serialization, before propagation)", at, want)
	}
}

func TestDuplicatePauseFramesAreIdempotent(t *testing.T) {
	eng, _, _, pa, pb := newPair(t, 25e9, 0)
	pa.SendPFC(0, true)
	pa.SendPFC(0, true)
	eng.RunAll()
	mid := eng.Now()
	_ = mid
	pa.SendPFC(0, false)
	eng.RunAll()
	if pb.Paused(0) {
		t.Error("one resume should clear pause regardless of duplicate pauses")
	}
	pa.SendPFC(0, false) // duplicate resume: no panic, no negative time
	eng.RunAll()
	if pb.CumPausedTime(0) < 0 {
		t.Error("CumPausedTime went negative")
	}
}

func TestPFCStatsCounted(t *testing.T) {
	eng, _, _, pa, pb := newPair(t, 25e9, 0)
	pa.SendPFC(0, true)
	pa.SendPFC(0, false)
	pa.SendPFC(0, true)
	eng.RunAll()
	if got := pa.Stats().PFCSent; got != 2 {
		t.Errorf("PFCSent = %d, want 2 (pauses only)", got)
	}
	if got := pa.Stats().PFCResumes; got != 1 {
		t.Errorf("PFCResumes = %d, want 1", got)
	}
	if got := pb.Stats().PFCReceived; got != 2 {
		t.Errorf("peer PFCReceived = %d, want 2", got)
	}
}

func TestDrainRateSharing(t *testing.T) {
	eng, _, _, pa, _ := newPair(t, 100e9, 0)
	_ = eng
	if got := pa.DrainRate(0); got != 100e9 {
		t.Errorf("idle port DrainRate = %d, want full rate", got)
	}
	// Two backlogged priorities share the line. Stall the port so queues
	// stay backlogged: pause both priorities via a fake peer pause... use
	// direct state: enqueue without running the engine only marks one
	// in-flight; simpler: three priorities with packets, engine not run,
	// first packet of one priority is already in flight.
	pa.Enqueue(data(pkt.PrioLossless, 1000))
	pa.Enqueue(data(pkt.PrioLossless, 1000))
	pa.Enqueue(data(pkt.PrioLossy, 1000))
	pa.Enqueue(data(pkt.PrioLossy, 1000))
	// One lossless packet went to the wire; both queues still backlogged.
	if got := pa.DrainRate(pkt.PrioLossless); got != 50e9 {
		t.Errorf("DrainRate with 2 backlogged = %d, want 50e9", got)
	}
	// A third, idle priority would make three competitors.
	if got, want := pa.DrainRate(pkt.PrioControl), int64(100e9)/3; got != want {
		t.Errorf("DrainRate for joining priority = %d, want %d", got, want)
	}
}

func TestEnqueuePFCPanics(t *testing.T) {
	_, _, _, pa, _ := newPair(t, 25e9, 0)
	defer func() {
		if recover() == nil {
			t.Error("Enqueue of a PFC frame should panic")
		}
	}()
	pa.Enqueue(pkt.NewPFC(0, true))
}

func TestQueueAccounting(t *testing.T) {
	eng := sim.NewEngine(1)
	a := &captureNode{name: "a", eng: eng}
	b := &captureNode{name: "b", eng: eng}
	pa, _ := Connect(eng, a, b, 25e9, 0)
	pa.SendPFC(0, true) // keep the line busy briefly so packets queue
	// Pause pa's own queues? No: block by enqueueing while busy.
	pa.Enqueue(data(pkt.PrioLossy, 500))
	pa.Enqueue(data(pkt.PrioLossy, 300))
	// First data may already be in flight after the control frame; check
	// conservation instead of exact split.
	total := pa.QueueBytes(pkt.PrioLossy)
	if total > (500+pkt.HeaderBytes)+(300+pkt.HeaderBytes) {
		t.Errorf("queued bytes %d exceeds enqueued total", total)
	}
	eng.RunAll()
	if pa.QueueBytes(pkt.PrioLossy) != 0 || pa.QueuePackets(pkt.PrioLossy) != 0 {
		t.Error("queue accounting should drain to zero")
	}
	if pa.TotalBacklog() != 0 {
		t.Error("TotalBacklog should be zero after drain")
	}
}

func TestConnectValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	a := &captureNode{name: "a", eng: eng}
	b := &captureNode{name: "b", eng: eng}
	defer func() {
		if recover() == nil {
			t.Error("Connect with zero rate should panic")
		}
	}()
	Connect(eng, a, b, 0, 0)
}

// TestConnectClassCrossEngineNeedsLanes: a cable between two engines has no
// way to reach its peer but the lanes it is wired with, so wiring one
// without a lane for each direction panics there, not at the first frame.
func TestConnectClassCrossEngineNeedsLanes(t *testing.T) {
	engA, engB := sim.NewEngine(1), sim.NewEngine(1)
	a := &captureNode{name: "a", eng: engA}
	b := &captureNode{name: "b", eng: engB}
	for name, lanes := range map[string][2]*Lane{
		"no lanes": {nil, nil},
		"a→b only": {new(Lane), nil},
		"b→a only": {nil, new(Lane)},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("cross-engine ConnectClass without both lanes did not panic")
				}
			}()
			ConnectClass(engA, engB, a, b, &LinkClass{Rate: 100e9, Prop: sim.Microsecond}, lanes[0], lanes[1])
		})
	}
	pa, pb := ConnectClass(engA, engB, a, b, &LinkClass{Rate: 100e9, Prop: sim.Microsecond}, new(Lane), new(Lane))
	if pa.Engine() != engA || pb.Engine() != engB {
		t.Error("ports not on their engines")
	}
}

func TestPortStringAndAccessors(t *testing.T) {
	eng := sim.NewEngine(1)
	a := &captureNode{name: "a", eng: eng}
	b := &captureNode{name: "b", eng: eng}
	pa, pb := Connect(eng, a, b, 25e9, sim.Microsecond)
	if pa.Peer() != pb || pb.Peer() != pa {
		t.Error("peers not wired")
	}
	if pa.Owner().Name() != "a" {
		t.Error("owner wrong")
	}
	if pa.Rate() != 25e9 || pa.PropDelay() != sim.Microsecond {
		t.Error("link parameters wrong")
	}
	if pa.String() != "a.port[0]" {
		t.Errorf("String() = %q", pa.String())
	}
}

func TestDrainRatePausedIsZero(t *testing.T) {
	// Regression: a paused priority used to report rate/(n+1) — a finite
	// service rate for a queue receiving no service at all — which made
	// L2BM's sojourn estimate underestimate τ behind paused egress ports.
	eng, _, _, pa, _ := newPair(t, 100e9, 0)
	pa.Enqueue(data(pkt.PrioLossless, 1000))
	pa.Enqueue(data(pkt.PrioLossless, 1000))
	eng.RunAll()

	// Pause the lossless priority via a real peer XOFF.
	pb := pa.Peer()
	pb.SendPFC(pkt.PrioLossless, true)
	eng.RunAll()
	if !pa.Paused(pkt.PrioLossless) {
		t.Fatal("setup: priority not paused")
	}

	pa.Enqueue(data(pkt.PrioLossless, 1000)) // backlogged AND paused
	if got := pa.DrainRate(pkt.PrioLossless); got != 0 {
		t.Errorf("paused DrainRate = %d, want 0", got)
	}
	// An empty paused priority is also 0 — not the joining-competitor share.
	if got := pa.DrainRate(pkt.PrioLossless + 1); got == 0 {
		t.Errorf("unpaused priority DrainRate = 0, want a positive share")
	}

	// Resume restores the estimate.
	pb.SendPFC(pkt.PrioLossless, false)
	eng.RunAll()
	if got := pa.DrainRate(pkt.PrioLossless); got <= 0 {
		t.Errorf("resumed DrainRate = %d, want > 0", got)
	}
}

func TestOnPauseTransitionFiresOnEdgesOnly(t *testing.T) {
	eng, _, _, pa, pb := newPair(t, 25e9, 0)
	var events []bool
	pb.OnPauseTransition = func(prio int, paused bool) { events = append(events, paused) }
	pa.SendPFC(0, true)
	pa.SendPFC(0, true) // duplicate XOFF: no transition
	eng.RunAll()
	pa.SendPFC(0, false)
	pa.SendPFC(0, false) // duplicate XON: no transition
	eng.RunAll()
	if len(events) != 2 || !events[0] || events[1] {
		t.Errorf("OnPauseTransition events = %v, want [true false]", events)
	}

	// ForceResume (deadlock breaking) also reports the resume edge.
	events = nil
	pa.SendPFC(0, true)
	eng.RunAll()
	if !pb.ForceResume(0) {
		t.Fatal("setup: ForceResume found no pause to clear")
	}
	if len(events) != 2 || !events[0] || events[1] {
		t.Errorf("OnPauseTransition with ForceResume = %v, want [true false]", events)
	}
}

// TestPortFootprint holds the port to what it has used. A fabric provisions
// every port for eight priorities, carries three and leaves most ports of a
// large fabric idle, so the struct must stay inside the 320-byte size class
// and everything per-priority must wait for first use.
func TestPortFootprint(t *testing.T) {
	if size := unsafe.Sizeof(Port{}); size > 320 {
		t.Errorf("Port is %d bytes, want <= 320 (the size class an idle port costs)", size)
	}

	_, _, _, p, _ := newPair(t, 25e9, 0)
	p.busy = true // hold the transmitter: enqueues must not schedule events
	if p.queues != nil || p.pause != nil {
		t.Fatalf("idle port owns per-priority state: queues=%v pause=%v", p.queues, p.pause)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for prio := 0; prio < pkt.NumPriorities; prio++ {
			if p.QueueBytes(prio) != 0 || p.QueuePackets(prio) != 0 || p.EvictTail(prio) != nil ||
				p.CumPausedTime(prio) != 0 || p.PausedSince(prio) != 0 || p.DrainRate(prio) != p.Rate() {
				t.Fatalf("priority %d of an idle port does not read as an empty, never-paused queue", prio)
			}
		}
		if p.TotalBacklog() != 0 {
			t.Fatal("idle port reports a backlog")
		}
		p.applyPFC(&pkt.Packet{Kind: pkt.KindPFC, PFCPriority: pkt.PrioLossless}) // XON on a never-paused port
		p.ForceResume(pkt.PrioLossless)
	}); allocs != 0 || p.queues != nil || p.pause != nil {
		t.Fatalf("reading an idle port allocated (%v allocs/run): queues=%v pause=%v", allocs, p.queues, p.pause)
	}

	// The first frame of a priority brings that priority's queue, and only
	// that: one slot of the queue table (sized for three).
	p.Enqueue(data(pkt.PrioLossy, 100))
	if len(p.queues) != 1 || cap(p.queues) != queueSlots || p.slot[pkt.PrioLossy] != 1 {
		t.Fatalf("after one priority: %d queues (cap %d) at slot %d, want 1 (cap %d) at slot 1",
			len(p.queues), cap(p.queues), p.slot[pkt.PrioLossy], queueSlots)
	}
	more := []*pkt.Packet{data(pkt.PrioLossy, 100), data(pkt.PrioLossy, 100)}
	i := 0
	if allocs := testing.AllocsPerRun(1, func() { p.Enqueue(more[i]); i++ }); allocs != 0 || len(p.queues) != 1 {
		t.Fatalf("a second frame of a carried priority allocated (%v allocs) or took a queue (%d held)", allocs, len(p.queues))
	}
	if p.pause != nil {
		t.Fatal("carrying traffic allocated pause clocks")
	}

	// Pause clocks arrive with the first XOFF.
	p.applyPFC(&pkt.Packet{Kind: pkt.KindPFC, PFCPriority: pkt.PrioLossless, PFCPause: true})
	if p.pause == nil || len(p.queues) != 1 {
		t.Fatalf("after XOFF: pause=%v queues=%d", p.pause, len(p.queues))
	}
}

// sinkNode kills every frame it receives into its shard's pool.
type sinkNode struct {
	name string
	pool *pkt.Pool
	got  int
}

func (s *sinkNode) HandleArrival(p *pkt.Packet, _ *Port) { s.got++; s.pool.Put(p) }
func (s *sinkNode) Name() string                         { return s.name }

// TestLaneReturnsSpares drives one shard-crossing cable through the
// conductor's barrier protocol by hand: each epoch the sender transmits m
// frames into its lane (add), the barrier Seals the lane, and at the start
// of the next epoch the receiver Delivers them and kills them into its own
// pool. Without the exchange every frame strands a packet on the far side
// and the sender allocates K·m; with it the sender allocates for the first
// four epochs only (the first delivery on each side of the lane finds the
// receiver with nothing free to lend, and a sender takes its frames from its
// pool before the transmission that adopts the loan, so the fourth epoch
// allocates too) and then lives on what comes back.
// Only free packets move, so every other counter, and Live on both pools
// after every epoch, reads the same either way.
func TestLaneReturnsSpares(t *testing.T) {
	if size := unsafe.Sizeof(laneSide{}); size != 64 {
		t.Errorf("laneSide is %d bytes, want one 64-byte cache line per side", size)
	}
	const K, m, warmup = 20, 8, 4
	type epoch struct{ txLive, rxLive int64 }
	run := func(t *testing.T, newPool func() *pkt.Pool, exchange bool) (tx, rx pkt.PoolStats, live []epoch, warmNews uint64) {
		engA, engB := sim.NewEngine(1), sim.NewEngine(1)
		txPool, rxPool := newPool(), newPool()
		a := &captureNode{name: "a", eng: engA}
		b := &sinkNode{name: "b", pool: rxPool}
		ab, ba := new(Lane), new(Lane)
		pa, pb := ConnectClass(engA, engB, a, b, &LinkClass{Rate: 100e9, Prop: sim.Microsecond}, ab, ba)
		pa.SetArrivalKey(1)
		pb.SetArrivalKey(2)
		pa.SetPool(txPool)
		pb.SetPool(rxPool)
		for k := 0; k < K; k++ {
			bound := sim.Time(k+1) * sim.Microsecond // epoch length = the cable's delay
			ab.Deliver()                             // the receiver's epoch starts with last epoch's frames
			if !exchange {
				s := &ab.side[ab.cur^1]
				s.back = rxPool.Adopt(s.back) // hand the loan straight back: the old behaviour
			}
			engB.Run(bound)
			for i := 0; i < m; i++ {
				pa.Enqueue(txPool.Data(1, 0, 1, pkt.PrioLossy, pkt.ClassLossy, int64(i), 100))
			}
			engA.Run(bound)
			ab.Seal()
			ba.Seal()
			live = append(live, epoch{txPool.Live(), rxPool.Live()})
			if k == warmup-1 {
				warmNews = txPool.Stats().News
			}
		}
		if b.got != (K-1)*m {
			t.Fatalf("receiver killed %d frames, want %d", b.got, (K-1)*m)
		}
		if leaked := append(txPool.Leaked(), rxPool.Leaked()...); len(leaked) != 0 {
			t.Fatalf("debug pools report %d leaked packets: %v", len(leaked), leaked)
		}
		return txPool.Stats(), rxPool.Stats(), live, warmNews
	}
	for name, newPool := range map[string]func() *pkt.Pool{"production": pkt.NewPool, "debug": pkt.NewDebugPool} {
		t.Run(name, func(t *testing.T) {
			tx, rx, live, warmNews := run(t, newPool, true)
			oldTx, oldRx, oldLive, _ := run(t, newPool, false)
			if oldTx.News != K*m {
				t.Fatalf("without the exchange the sender allocated %d, want K·m = %d", oldTx.News, K*m)
			}
			if tx.News != warmNews || tx.News > warmup*m {
				t.Errorf("sender allocated %d packets over %d epochs of %d frames (%d after %d epochs), want at most %d, all in the warm-up",
					tx.News, K, m, warmNews, warmup, warmup*m)
			}
			tx.News, oldTx.News = 0, 0
			if tx != oldTx || rx != oldRx {
				t.Errorf("the exchange moved a counter besides News:\n tx %+v vs %+v\n rx %+v vs %+v", tx, oldTx, rx, oldRx)
			}
			for k := range live {
				if live[k] != oldLive[k] {
					t.Fatalf("epoch %d: Live (tx, rx) = %v with the exchange, %v without", k, live[k], oldLive[k])
				}
			}
		})
	}
}
