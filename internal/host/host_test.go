package host

import (
	"testing"
	"unsafe"

	"l2bm/internal/core"
	"l2bm/internal/dcqcn"
	"l2bm/internal/dctcp"
	"l2bm/internal/netdev"
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/switchsim"
	"l2bm/internal/transport"
)

// testbed is N hosts on one switch: the smallest end-to-end network.
type testbed struct {
	eng       *sim.Engine
	sw        *switchsim.Switch
	hosts     []*Host
	completed map[pkt.FlowID]sim.Time
}

func newTestbed(t *testing.T, n int, pol core.Policy) *testbed {
	t.Helper()
	eng := sim.NewEngine(3)
	sw := switchsim.NewSwitch(eng, "tor", switchsim.DefaultConfig(), pol)
	tb := &testbed{eng: eng, sw: sw, completed: make(map[pkt.FlowID]sim.Time)}
	for i := 0; i < n; i++ {
		h := New(eng, i, "h"+string(rune('0'+i)), dctcp.DefaultConfig(), dcqcn.DefaultConfig(25e9))
		hp, sp := netdev.Connect(eng, h, sw, 25e9, sim.Microsecond)
		h.SetNIC(hp)
		sw.AddPort(sp)
		h.SetCompletionHandler(func(id pkt.FlowID, at sim.Time) { tb.completed[id] = at })
		tb.hosts = append(tb.hosts, h)
	}
	sw.SetRouter(func(p *pkt.Packet, _ int) int { return p.Dst })
	return tb
}

func (tb *testbed) flow(id pkt.FlowID, src, dst int, size int64, class pkt.Class) *transport.Flow {
	prio := pkt.PrioLossy
	if class == pkt.ClassLossless {
		prio = pkt.PrioLossless
	}
	return &transport.Flow{ID: id, Src: src, Dst: dst, Size: size, Priority: prio, Class: class}
}

func TestTCPFlowEndToEnd(t *testing.T) {
	tb := newTestbed(t, 2, core.NewDT())
	f := tb.flow(1, 0, 1, 100_000, pkt.ClassLossy)
	tb.hosts[0].StartFlow(f)
	tb.eng.RunAll()

	at, ok := tb.completed[1]
	if !ok {
		t.Fatal("TCP flow did not complete")
	}
	// Lower bound: serialization of the whole flow at 25G plus 2 hops.
	minFCT := sim.TxTime(100_000, 25e9)
	if at < minFCT {
		t.Errorf("FCT %v below physical minimum %v", at, minFCT)
	}
	if tb.hosts[0].FlowsStarted != 1 || tb.hosts[1].FlowsCompleted != 1 {
		t.Error("host flow counters wrong")
	}
}

func TestRDMAFlowEndToEnd(t *testing.T) {
	tb := newTestbed(t, 2, core.NewDefaultL2BM())
	f := tb.flow(2, 0, 1, 100_000, pkt.ClassLossless)
	tb.hosts[0].StartFlow(f)
	tb.eng.RunAll()

	if _, ok := tb.completed[2]; !ok {
		t.Fatal("RDMA flow did not complete")
	}
	if tb.hosts[1].LosslessGaps() != 0 {
		t.Error("lossless flow saw sequence gaps")
	}
}

func TestConcurrentHybridFlows(t *testing.T) {
	tb := newTestbed(t, 4, core.NewDefaultL2BM())
	var id pkt.FlowID
	for src := 0; src < 3; src++ {
		id++
		tb.hosts[src].StartFlow(tb.flow(id, src, 3, 200_000, pkt.ClassLossless))
		id++
		tb.hosts[src].StartFlow(tb.flow(id, src, 3, 200_000, pkt.ClassLossy))
	}
	tb.eng.RunAll()

	if got := len(tb.completed); got != 6 {
		t.Fatalf("completed %d flows, want 6", got)
	}
	if st := tb.sw.Stats(); st.LosslessViolations != 0 {
		t.Errorf("lossless violations = %d", st.LosslessViolations)
	}
	for _, h := range tb.hosts {
		if h.LosslessGaps() != 0 {
			t.Errorf("host %s saw gaps", h.Name())
		}
	}
}

func TestTCPSurvivesDropsUnderOverload(t *testing.T) {
	// Tiny buffer guarantees lossy drops; DCTCP must still deliver
	// everything via retransmission.
	eng := sim.NewEngine(3)
	cfg := switchsim.DefaultConfig()
	cfg.TotalShared = 64 << 10
	sw := switchsim.NewSwitch(eng, "tor", cfg, core.NewDT())
	completed := make(map[pkt.FlowID]sim.Time)
	var hosts []*Host
	for i := 0; i < 5; i++ {
		h := New(eng, i, "h"+string(rune('0'+i)), dctcp.DefaultConfig(), dcqcn.DefaultConfig(25e9))
		hp, sp := netdev.Connect(eng, h, sw, 25e9, sim.Microsecond)
		h.SetNIC(hp)
		sw.AddPort(sp)
		h.SetCompletionHandler(func(id pkt.FlowID, at sim.Time) { completed[id] = at })
		hosts = append(hosts, h)
	}
	sw.SetRouter(func(p *pkt.Packet, _ int) int { return p.Dst })

	for src := 0; src < 4; src++ {
		hosts[src].StartFlow(&transport.Flow{
			ID: pkt.FlowID(src + 1), Src: src, Dst: 4, Size: 300_000,
			Priority: pkt.PrioLossy, Class: pkt.ClassLossy,
		})
	}
	eng.RunAll()

	if st := sw.Stats(); st.LossyDropsIngress+st.LossyDropsEgress == 0 {
		t.Error("expected drops with a 64KB buffer under 4:1 incast")
	}
	if len(completed) != 4 {
		t.Fatalf("completed %d flows, want 4 (retransmission must recover)", len(completed))
	}
	var retrans uint64
	for src := 0; src < 4; src++ {
		retrans += hosts[src].TCPSender(pkt.FlowID(src + 1)).Retransmissions
	}
	if retrans == 0 {
		t.Error("expected retransmissions after drops")
	}
}

func TestRDMAIncastProtectedByPFC(t *testing.T) {
	tb := newTestbed(t, 9, core.NewDT())
	for src := 0; src < 8; src++ {
		tb.hosts[src].StartFlow(tb.flow(pkt.FlowID(src+1), src, 8, 500_000, pkt.ClassLossless))
	}
	tb.eng.RunAll()

	if got := len(tb.completed); got != 8 {
		t.Fatalf("completed %d flows, want 8", got)
	}
	st := tb.sw.Stats()
	if st.LosslessViolations != 0 {
		t.Errorf("violations = %d, want 0", st.LosslessViolations)
	}
	if tb.hosts[8].LosslessGaps() != 0 {
		t.Error("receiver saw gaps")
	}
	if st.PauseFramesSent == 0 {
		t.Error("8:1 lossless incast should trigger PFC")
	}
}

func TestStartFlowValidation(t *testing.T) {
	tb := newTestbed(t, 2, core.NewDT())
	t.Run("wrong host", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		tb.hosts[0].StartFlow(tb.flow(9, 1, 0, 1000, pkt.ClassLossy))
	})
	t.Run("control class", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		f := tb.flow(10, 0, 1, 1000, pkt.ClassControl)
		tb.hosts[0].StartFlow(f)
	})
}

func TestHostAccessors(t *testing.T) {
	tb := newTestbed(t, 2, core.NewDT())
	h := tb.hosts[0]
	if h.ID() != 0 || h.Name() != "h0" {
		t.Error("identity accessors wrong")
	}
	if h.NIC() == nil {
		t.Error("NIC not set")
	}
	f := tb.flow(1, 0, 1, 1000, pkt.ClassLossless)
	h.StartFlow(f)
	if h.RDMASender(1) == nil {
		t.Error("RDMA sender not registered")
	}
	if h.TCPSender(1) != nil {
		t.Error("flow registered under wrong protocol")
	}
}

// TestTransportFootprint holds the per-flow endpoint state to its size
// classes: every RDMA flow owns one dcqcn.Sender and one dcqcn.Receiver,
// every TCP flow one dctcp.Sender, and each holds its Config by value, so
// a parameter no run varies belongs in a constant, not in these structs.
func TestTransportFootprint(t *testing.T) {
	for _, c := range []struct {
		name       string
		size, want uintptr
	}{
		{"dcqcn.Sender", unsafe.Sizeof(dcqcn.Sender{}), 312},
		{"dcqcn.Receiver", unsafe.Sizeof(dcqcn.Receiver{}), 160},
		{"dctcp.Sender", unsafe.Sizeof(dctcp.Sender{}), 216},
	} {
		if c.size > c.want {
			t.Errorf("%s is %d bytes, want <= %d", c.name, c.size, c.want)
		}
	}
}
