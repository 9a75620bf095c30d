package switchsim

import (
	"testing"
	"unsafe"

	"l2bm/internal/core"
	"l2bm/internal/netdev"
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// testHost is a minimal traffic source/sink for switch tests.
type testHost struct {
	name string
	eng  *sim.Engine
	port *netdev.Port
	got  []*pkt.Packet
	at   []sim.Time
}

func (h *testHost) HandleArrival(p *pkt.Packet, _ *netdev.Port) {
	h.got = append(h.got, p)
	h.at = append(h.at, h.eng.Now())
}

func (h *testHost) Name() string { return h.name }

// rig is a star: n hosts each linked to one switch at rate/prop, routing by
// destination host index.
type rig struct {
	eng   *sim.Engine
	sw    *Switch
	hosts []*testHost
}

func newRig(t testing.TB, n int, cfg Config, pol core.Policy, rate int64, prop sim.Duration) *rig {
	t.Helper()
	eng := sim.NewEngine(42)
	sw := NewSwitch(eng, "sw", cfg, pol)
	r := &rig{eng: eng, sw: sw}
	for i := 0; i < n; i++ {
		h := &testHost{name: "h" + string(rune('0'+i)), eng: eng}
		hp, sp := netdev.Connect(eng, h, sw, rate, prop)
		h.port = hp
		sw.AddPort(sp)
		r.hosts = append(r.hosts, h)
	}
	sw.SetRouter(func(p *pkt.Packet, _ int) int { return p.Dst })
	return r
}

// send injects count MTU data packets from host src to host dst.
func (r *rig) send(src, dst, count int, prio int, class pkt.Class) {
	for i := 0; i < count; i++ {
		p := pkt.NewData(pkt.FlowID(src+1), src, dst, prio, class, int64(i*pkt.MTUPayload), pkt.MTUPayload)
		r.hosts[src].port.Enqueue(p)
	}
}

func (r *rig) mmuDrained(t *testing.T) {
	t.Helper()
	// CheckDrained subsumes the old per-counter sweep and additionally
	// audits headroom counters, leaked PFC pauses and the congested
	// census — the control state a fault path is most likely to wedge.
	if err := r.sw.CheckDrained(); err != nil {
		t.Error(err)
	}
}

func TestSwitchForwardsData(t *testing.T) {
	r := newRig(t, 3, DefaultConfig(), core.NewDT(), 25e9, sim.Microsecond)
	r.send(0, 2, 5, pkt.PrioLossy, pkt.ClassLossy)
	r.eng.RunAll()

	if got := len(r.hosts[2].got); got != 5 {
		t.Fatalf("host 2 received %d packets, want 5", got)
	}
	if got := len(r.hosts[1].got); got != 0 {
		t.Fatalf("host 1 received %d packets, want 0", got)
	}
	st := r.sw.Stats()
	if st.RxPackets != 5 || st.TxPackets != 5 {
		t.Errorf("Rx/Tx = %d/%d, want 5/5", st.RxPackets, st.TxPackets)
	}
	r.mmuDrained(t)
}

func TestSwitchStoreAndForwardTiming(t *testing.T) {
	r := newRig(t, 2, DefaultConfig(), core.NewDT(), 25e9, sim.Microsecond)
	r.send(0, 1, 1, pkt.PrioLossy, pkt.ClassLossy)
	r.eng.RunAll()

	// host->switch: tx + prop; switch->host: tx + prop (store-and-forward).
	tx := sim.TxTime(pkt.MTUBytes, 25e9)
	want := 2 * (tx + sim.Microsecond)
	if r.hosts[1].at[0] != want {
		t.Errorf("arrival at %v, want %v", r.hosts[1].at[0], want)
	}
}

func TestSwitchConservationUnderCrossTraffic(t *testing.T) {
	r := newRig(t, 4, DefaultConfig(), core.NewDefaultL2BM(), 25e9, sim.Microsecond)
	r.send(0, 3, 50, pkt.PrioLossless, pkt.ClassLossless)
	r.send(1, 3, 50, pkt.PrioLossy, pkt.ClassLossy)
	r.send(2, 3, 50, pkt.PrioLossless, pkt.ClassLossless)
	r.eng.RunAll()

	st := r.sw.Stats()
	delivered := len(r.hosts[3].got)
	if uint64(delivered) != st.TxPackets {
		t.Errorf("delivered %d != TxPackets %d", delivered, st.TxPackets)
	}
	wantDelivered := 150 - int(st.LossyDropsIngress+st.LossyDropsEgress+st.LosslessViolations)
	if delivered != wantDelivered {
		t.Errorf("delivered %d, want %d (minus drops)", delivered, wantDelivered)
	}
	if st.LosslessViolations != 0 {
		t.Errorf("lossless violations = %d, want 0", st.LosslessViolations)
	}
	r.mmuDrained(t)
}

func TestSwitchIncastTriggersPFCNoLosslessLoss(t *testing.T) {
	// 8 senders blast lossless traffic at one receiver: the egress queue
	// saturates, the shared pool fills, PFC must throttle the ingress
	// ports and no lossless packet may be lost.
	cfg := DefaultConfig()
	cfg.TotalShared = 256 << 10 // small pool to force PFC quickly
	r := newRig(t, 9, cfg, core.NewDT(), 25e9, sim.Microsecond)
	for src := 0; src < 8; src++ {
		r.send(src, 8, 100, pkt.PrioLossless, pkt.ClassLossless)
	}
	r.eng.RunAll()

	st := r.sw.Stats()
	if st.PauseFramesSent == 0 {
		t.Error("expected PFC pause frames under lossless incast")
	}
	if st.ResumeFramesSent == 0 {
		t.Error("expected PFC resume frames after drain")
	}
	if st.LosslessViolations != 0 {
		t.Errorf("lossless violations = %d, want 0", st.LosslessViolations)
	}
	if got := len(r.hosts[8].got); got != 800 {
		t.Errorf("receiver got %d packets, want all 800 (lossless)", got)
	}
	r.mmuDrained(t)
}

func TestSwitchLossyIncastDropsInsteadOfPausing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TotalShared = 128 << 10
	r := newRig(t, 9, cfg, core.NewDT(), 25e9, sim.Microsecond)
	for src := 0; src < 8; src++ {
		r.send(src, 8, 100, pkt.PrioLossy, pkt.ClassLossy)
	}
	r.eng.RunAll()

	st := r.sw.Stats()
	if st.PauseFramesSent != 0 {
		t.Errorf("pause frames = %d, want 0 for lossy-only traffic", st.PauseFramesSent)
	}
	if st.LossyDropsIngress+st.LossyDropsEgress == 0 {
		t.Error("expected lossy drops under incast overload")
	}
	if got := len(r.hosts[8].got); got >= 800 {
		t.Errorf("receiver got %d packets, expected losses", got)
	}
	r.mmuDrained(t)
}

func TestSwitchECNStepMarkingOnLossyQueue(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ECNLossyThreshold = 10 * pkt.MTUBytes
	r := newRig(t, 3, cfg, core.NewDT2(), 25e9, 0)
	r.send(0, 2, 40, pkt.PrioLossy, pkt.ClassLossy)
	r.send(1, 2, 40, pkt.PrioLossy, pkt.ClassLossy)
	r.eng.RunAll()

	marked := 0
	for _, p := range r.hosts[2].got {
		if p.CE {
			marked++
		}
	}
	if marked == 0 {
		t.Error("expected CE marks once backlog exceeded the step threshold")
	}
	if st := r.sw.Stats(); uint64(marked) != st.ECNMarked {
		t.Errorf("delivered CE %d != switch count %d", marked, st.ECNMarked)
	}
}

func TestSwitchECNREDMarkingOnLosslessQueue(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ECNLosslessKmin = 2 * pkt.MTUBytes
	cfg.ECNLosslessKmax = 8 * pkt.MTUBytes
	cfg.ECNLosslessPmax = 1.0
	r := newRig(t, 3, cfg, core.NewDT2(), 25e9, 0)
	r.send(0, 2, 50, pkt.PrioLossless, pkt.ClassLossless)
	r.send(1, 2, 50, pkt.PrioLossless, pkt.ClassLossless)
	r.eng.RunAll()

	marked := 0
	for _, p := range r.hosts[2].got {
		if p.CE {
			marked++
		}
	}
	if marked == 0 {
		t.Error("expected RED CE marks on the lossless queue")
	}
	// Deep backlog (>= Kmax) must mark deterministically.
	if marked < 20 {
		t.Errorf("marked only %d packets; expected heavy marking beyond Kmax", marked)
	}
}

func TestSwitchECNDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ECNLossyThreshold = 0
	cfg.ECNLosslessKmax = 0
	r := newRig(t, 3, cfg, core.NewDT2(), 25e9, 0)
	r.send(0, 2, 50, pkt.PrioLossy, pkt.ClassLossy)
	r.send(1, 2, 50, pkt.PrioLossless, pkt.ClassLossless)
	r.eng.RunAll()
	if st := r.sw.Stats(); st.ECNMarked != 0 {
		t.Errorf("ECNMarked = %d with marking disabled, want 0", st.ECNMarked)
	}
}

func TestSwitchControlBypassesMMU(t *testing.T) {
	r := newRig(t, 2, DefaultConfig(), core.NewDT(), 25e9, 0)
	ack := pkt.NewAck(1, 0, 1, 100, false)
	r.hosts[0].port.Enqueue(ack)
	r.eng.RunAll()

	if len(r.hosts[1].got) != 1 {
		t.Fatal("ACK not forwarded")
	}
	st := r.sw.Stats()
	if st.RxPackets != 0 || st.TxPackets != 0 {
		t.Error("control packets should not touch MMU counters")
	}
	r.mmuDrained(t)
}

func TestSwitchHeadroomAbsorbsInFlight(t *testing.T) {
	// Tiny shared pool: thresholds collapse immediately, in-flight
	// lossless packets must land in headroom, not be dropped.
	cfg := DefaultConfig()
	cfg.TotalShared = 8 << 10
	cfg.ReservedPerQueue = 0
	r := newRig(t, 3, cfg, core.NewDT(), 25e9, 5*sim.Microsecond)
	r.send(0, 2, 60, pkt.PrioLossless, pkt.ClassLossless)
	r.send(1, 2, 60, pkt.PrioLossless, pkt.ClassLossless)
	r.eng.RunAll()

	st := r.sw.Stats()
	if st.LosslessHeadroom == 0 {
		t.Error("expected headroom admissions with a tiny shared pool")
	}
	if st.LosslessViolations != 0 {
		t.Errorf("lossless violations = %d, want 0", st.LosslessViolations)
	}
	if got := len(r.hosts[2].got); got != 120 {
		t.Errorf("receiver got %d, want all 120", got)
	}
	r.mmuDrained(t)
}

func TestSwitchHeadroomExhaustionCountsViolations(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TotalShared = 4 << 10
	cfg.ReservedPerQueue = 0
	cfg.HeadroomPerQueue = 2 * pkt.MTUBytes // far below one hop's in-flight data
	r := newRig(t, 3, cfg, core.NewDT(), 25e9, 50*sim.Microsecond)
	r.send(0, 2, 200, pkt.PrioLossless, pkt.ClassLossless)
	r.send(1, 2, 200, pkt.PrioLossless, pkt.ClassLossless)
	r.eng.RunAll()

	if st := r.sw.Stats(); st.LosslessViolations == 0 {
		t.Error("expected violations when headroom is deliberately undersized")
	}
	r.mmuDrained(t)
}

func TestSwitchPeakOccupancyTracked(t *testing.T) {
	r := newRig(t, 3, DefaultConfig(), core.NewDT(), 25e9, 0)
	r.send(0, 2, 20, pkt.PrioLossy, pkt.ClassLossy)
	r.send(1, 2, 20, pkt.PrioLossy, pkt.ClassLossy)
	r.eng.RunAll()
	st := r.sw.Stats()
	if st.PeakOccupancy <= 0 {
		t.Error("peak occupancy not tracked")
	}
	if st.PeakOccupancy > 40*pkt.MTUBytes {
		t.Errorf("peak %d exceeds total offered bytes", st.PeakOccupancy)
	}
}

func TestSwitchCongestedQueueCensus(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, 3, cfg, core.NewDT(), 25e9, 0)
	if r.sw.CongestedEgressQueues(pkt.PrioLossy) != 0 {
		t.Fatal("no queue should start congested")
	}
	r.send(0, 2, 30, pkt.PrioLossy, pkt.ClassLossy)
	r.send(1, 2, 30, pkt.PrioLossy, pkt.ClassLossy)
	// Run briefly: egress queue for host 2 builds beyond one MTU.
	r.eng.Run(20 * sim.Microsecond)
	if got := r.sw.CongestedEgressQueues(pkt.PrioLossy); got != 1 {
		t.Errorf("congested lossy queues = %d, want 1", got)
	}
	r.eng.RunAll()
	if got := r.sw.CongestedEgressQueues(pkt.PrioLossy); got != 0 {
		t.Errorf("congested lossy queues after drain = %d, want 0", got)
	}
}

func TestSwitchConstructionValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	t.Run("nil policy", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		NewSwitch(eng, "x", DefaultConfig(), nil)
	})
	t.Run("zero buffer", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		cfg := DefaultConfig()
		cfg.TotalShared = 0
		NewSwitch(eng, "x", cfg, core.NewDT())
	})
	t.Run("no router", func(t *testing.T) {
		r := newRig(t, 2, DefaultConfig(), core.NewDT(), 25e9, 0)
		r.sw.SetRouter(nil)
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		r.send(0, 1, 1, pkt.PrioLossy, pkt.ClassLossy)
		r.eng.RunAll()
	})
	t.Run("foreign port", func(t *testing.T) {
		r := newRig(t, 2, DefaultConfig(), core.NewDT(), 25e9, 0)
		other := NewSwitch(r.eng, "other", DefaultConfig(), core.NewDT())
		a, _ := netdev.Connect(r.eng, other, r.hosts[0], 25e9, 0)
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		r.sw.AddPort(a)
	})
}

func TestSwitchDeterministicReplay(t *testing.T) {
	run := func() (uint64, uint64, int64) {
		r := newRigSeed(t, 5, DefaultConfig(), core.NewDefaultL2BM(), 25e9, sim.Microsecond, 99)
		for src := 0; src < 4; src++ {
			r.send(src, 4, 200, pkt.PrioLossless, pkt.ClassLossless)
			r.send(src, 4, 200, pkt.PrioLossy, pkt.ClassLossy)
		}
		r.eng.RunAll()
		st := r.sw.Stats()
		return st.PauseFramesSent, st.LossyDropsIngress + st.LossyDropsEgress, st.PeakOccupancy
	}
	p1, d1, o1 := run()
	p2, d2, o2 := run()
	if p1 != p2 || d1 != d2 || o1 != o2 {
		t.Errorf("replay diverged: (%d,%d,%d) vs (%d,%d,%d)", p1, d1, o1, p2, d2, o2)
	}
}

func newRigSeed(t *testing.T, n int, cfg Config, pol core.Policy, rate int64, prop sim.Duration, seed int64) *rig {
	t.Helper()
	eng := sim.NewEngine(seed)
	sw := NewSwitch(eng, "sw", cfg, pol)
	r := &rig{eng: eng, sw: sw}
	for i := 0; i < n; i++ {
		h := &testHost{name: "h" + string(rune('0'+i)), eng: eng}
		hp, sp := netdev.Connect(eng, h, sw, rate, prop)
		h.port = hp
		sw.AddPort(sp)
		r.hosts = append(r.hosts, h)
	}
	sw.SetRouter(func(p *pkt.Packet, _ int) int { return p.Dst })
	return r
}

// TestMMUFootprint holds the MMU to the priorities a switch has admitted. A
// fabric provisions eight priorities per port and charges two, so a
// priority's cells come with its first admission, a control frame (which
// never charges the MMU) brings none, and reading a priority that was never
// admitted, anywhere, reads zero and allocates nothing.
func TestMMUFootprint(t *testing.T) {
	if size := unsafe.Sizeof(mmuCell{}); size != 32 {
		t.Errorf("mmuCell is %d bytes, want 32 (half a cache line)", size)
	}
	const ports = 34
	r := newRig(t, ports, DefaultConfig(), core.NewDefaultL2BM(), 25e9, sim.Microsecond)
	m := &r.sw.mmu
	readAll := func(when string) {
		t.Helper()
		probe := pkt.NewData(1, 0, 1, pkt.PrioLossy, pkt.ClassLossy, 0, pkt.MTUPayload)
		if allocs := testing.AllocsPerRun(10, func() {
			for port := 0; port < ports; port++ {
				for prio := 0; prio < pkt.NumPriorities; prio++ {
					if r.sw.IngressQueueBytes(port, prio) != 0 || r.sw.EgressQueueBytes(port, prio) != 0 {
						t.Fatalf("%s: (%d,%d) does not read as empty", when, port, prio)
					}
					probe.Priority = prio
					r.sw.maybeMarkECN(probe, port, prio)
				}
			}
			if err := r.sw.CheckDrained(); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
		}); allocs != 0 || probe.CE {
			t.Fatalf("%s: reading every (port, priority) allocated (%v allocs/run) or marked ECN (%v)", when, allocs, probe.CE)
		}
	}

	readAll("before any traffic")
	if m.width != 0 || m.cells != nil {
		t.Fatalf("an idle switch holds %d cells (%d per port)", len(m.cells), m.width)
	}

	r.send(0, 1, 3, pkt.PrioLossless, pkt.ClassLossless)
	r.send(2, 3, 3, pkt.PrioLossy, pkt.ClassLossy)
	r.hosts[4].port.Enqueue(pkt.NewAck(5, 4, 5, 0, false))
	r.eng.RunAll()
	if got := len(r.hosts[5].got); got != 1 {
		t.Fatalf("the control frame was not forwarded: host 5 got %d frames", got)
	}
	if m.width != 2 || len(m.cells) != 2*ports || cap(m.cells) != 2*ports || m.slot[pkt.PrioControl] != 0 {
		t.Fatalf("after lossless, lossy and control traffic: %d cells (cap %d, %d per port), control slot %d; want two per port and none for control",
			len(m.cells), cap(m.cells), m.width, m.slot[pkt.PrioControl])
	}
	readAll("after the traffic drained")
	if m.width != 2 {
		t.Fatalf("reading took cells: %d per port", m.width)
	}
}
