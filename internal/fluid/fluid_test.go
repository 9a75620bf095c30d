package fluid

import (
	"testing"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/topo"
	"l2bm/internal/transport"
	"l2bm/internal/workload"
)

func tinyModel() *Model { return NewModel(topo.TinyConfig()) }

func mkFlow(id uint64, src, dst int, size int64, class pkt.Class, start sim.Time) transport.Flow {
	prio := pkt.PrioLossless
	if class == pkt.ClassLossy {
		prio = pkt.PrioLossy
	}
	return transport.Flow{ID: pkt.FlowID(id), Src: src, Dst: dst, Size: size,
		Priority: prio, Class: class, Start: start}
}

// A flow served alone must complete in exactly its ideal FCT (±1 ps of
// rounding): the fluid layer's slowdown-of-1.0 construction invariant.
func TestSoloFlowCompletesAtIdealFCT(t *testing.T) {
	m := tinyModel()
	cfg := m.Cfg
	s := NewSim(m, DefaultParams(), nil, 0)
	var got []Completion
	s.OnComplete = func(c Completion) { got = append(got, c) }

	f := mkFlow(1, 0, cfg.ServersPerToR, 1<<20, pkt.ClassLossless, 0) // cross-rack
	s.Inject(f, f.Size, false)
	at, reason := s.Advance(sim.Second)
	if reason != CutNone || at != sim.Second {
		t.Fatalf("Advance = (%v, %v), want (1s, none)", at, reason)
	}
	if len(got) != 1 {
		t.Fatalf("completions = %d, want 1", len(got))
	}
	ideal := cfg.IdealFCT(f.Src, f.Dst, f.Size)
	fct := got[0].At - f.Start
	if d := fct - ideal; d < -1 || d > 1 {
		t.Errorf("solo FCT = %v, ideal %v (diff %d ps)", fct, ideal, int64(d))
	}
}

// Two flows sharing a source uplink each get half the access rate; the
// completion order and rate redistribution follow max-min filling.
func TestMaxMinSharesAccessLink(t *testing.T) {
	m := tinyModel()
	f1 := &FlowState{Flow: mkFlow(1, 0, 1, 1000, pkt.ClassLossless, 0), RemainingWire: 1000}
	f2 := &FlowState{Flow: mkFlow(2, 0, 2, 1000, pkt.ClassLossless, 0), RemainingWire: 1000}
	f3 := &FlowState{Flow: mkFlow(3, 3, 2, 1000, pkt.ClassLossless, 0), RemainingWire: 1000}
	for _, fs := range []*FlowState{f1, f2, f3} {
		fs.nLink = len(m.AppendLinks(fs.links[:0], fs.Flow.ID, fs.Flow.Src, fs.Flow.Dst))
	}
	sc := newSolveScratch(m.nLinks)
	m.solve([]*FlowState{f1, f2, f3}, sc)

	half := float64(m.Cfg.ServerRate) / 2
	// f1, f2 share hostUp[0]; f2, f3 share hostDown[2]: everyone at half rate.
	for i, fs := range []*FlowState{f1, f2, f3} {
		if fs.rate != half {
			t.Errorf("flow %d rate = %g, want %g", i+1, fs.rate, half)
		}
	}
}

func TestSoloFlowPathAndRate(t *testing.T) {
	m := NewModel(topo.DefaultConfig())
	cfg := m.Cfg
	intra := &FlowState{Flow: mkFlow(1, 0, 1, 1000, pkt.ClassLossless, 0)}
	inter := &FlowState{Flow: mkFlow(2, 0, cfg.ServersPerToR*cfg.ToRCount-1, 1000, pkt.ClassLossless, 0)}
	intra.nLink = len(m.AppendLinks(intra.links[:0], intra.Flow.ID, intra.Flow.Src, intra.Flow.Dst))
	inter.nLink = len(m.AppendLinks(inter.links[:0], inter.Flow.ID, inter.Flow.Src, inter.Flow.Dst))
	if intra.nLink != 2 {
		t.Errorf("intra-rack path links = %d, want 2", intra.nLink)
	}
	if inter.nLink != 6 {
		t.Errorf("inter-pod path links = %d, want 6", inter.nLink)
	}
	sc := newSolveScratch(m.nLinks)
	m.solve([]*FlowState{inter}, sc)
	if inter.rate != float64(cfg.ServerRate) {
		t.Errorf("solo rate = %g, want %g", inter.rate, float64(cfg.ServerRate))
	}
}

// The ECMP choices the model prices must match the routers' healthy-fabric
// hash function (PathOf is shared, but the link indices must be in range
// and stable).
func TestAppendLinksDeterministic(t *testing.T) {
	m := NewModel(topo.DefaultConfig())
	for id := uint64(1); id < 100; id++ {
		a := m.AppendLinks(nil, pkt.FlowID(id), 3, 100)
		b := m.AppendLinks(nil, pkt.FlowID(id), 3, 100)
		if len(a) != len(b) {
			t.Fatalf("path length changed between calls")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("path changed between calls: %v vs %v", a, b)
			}
			if a[i] < 0 || a[i] >= m.nLinks {
				t.Fatalf("link index %d out of range [0,%d)", a[i], m.nLinks)
			}
		}
	}
}

func TestDegreeTriggerCutsBeforeArrival(t *testing.T) {
	m := tinyModel()
	big := int64(100 << 20) // far from completing during the test
	var arrivals []FlowArrival
	// Four flows converging on host 0 from distinct sources, 1 µs apart.
	for i := 0; i < 4; i++ {
		arrivals = append(arrivals, FlowArrival{
			Flow: mkFlow(uint64(10+i), i+1, 0, big, pkt.ClassLossless, sim.Time(i+1)*sim.Time(sim.Microsecond)),
		})
	}
	p := DefaultParams()
	p.DegreeTrigger = 4
	s := NewSim(m, p, arrivals, 0)
	at, reason := s.Advance(sim.Second)
	if reason != CutDegree {
		t.Fatalf("reason = %v, want degree", reason)
	}
	if want := 4 * sim.Time(sim.Microsecond); at != want {
		t.Errorf("cut at %v, want %v", at, want)
	}
	if s.Consumed() != 3 {
		t.Errorf("consumed %d arrivals, want 3 (trigger arrival left unconsumed)", s.Consumed())
	}
}

func TestBurstPreTrigger(t *testing.T) {
	m := tinyModel()
	burstAt := 500 * sim.Time(sim.Microsecond)
	arrivals := []FlowArrival{{
		Flow:   mkFlow(1, 1, 0, 1000, pkt.ClassLossless, burstAt),
		Incast: true,
	}}
	p := DefaultParams()
	p.PreMargin = 50 * sim.Microsecond
	s := NewSim(m, p, arrivals, 0)
	at, reason := s.Advance(sim.Second)
	if reason != CutBurst {
		t.Fatalf("reason = %v, want burst", reason)
	}
	if want := burstAt - 50*sim.Time(sim.Microsecond); at != want {
		t.Errorf("cut at %v, want %v", at, want)
	}
	if s.Consumed() != 0 {
		t.Errorf("burst arrival consumed in fluid mode")
	}
}

func TestSlowStartExtra(t *testing.T) {
	rate := int64(25e9)
	rtt := 10 * sim.Microsecond
	if got := SlowStartExtra(5_000, rtt, rate); got != 0 {
		t.Errorf("IW-covered flow charged %v slow-start", got)
	}
	small := SlowStartExtra(100_000, rtt, rate)
	large := SlowStartExtra(1_000_000, rtt, rate)
	if small <= 0 {
		t.Errorf("mid-size flow charged %v, want > 0", small)
	}
	if large < small {
		t.Errorf("slow-start charge not monotone: %v then %v", small, large)
	}
	// Charge is bounded by ramp rounds: ≤ rtt × log2(bdp/IW) + rtt.
	if max := 10 * rtt; large > sim.Duration(max) {
		t.Errorf("charge %v exceeds ramp bound %v", large, max)
	}
}

// Extraction is deterministic and produces a plausible schedule: flows
// ascending in time, inside the window, with incast queries registered.
func TestExtractDeterministicAndOrdered(t *testing.T) {
	cfg := topo.TinyConfig()
	hosts := make([]int, cfg.ToRCount*cfg.ServersPerToR)
	for i := range hosts {
		hosts[i] = i
	}
	window := 2 * sim.Millisecond
	wl := Workload{
		Poisson: []workload.PoissonConfig{{
			Sources: hosts[:4], Dests: hosts, Load: 0.4,
			HostRate: cfg.ServerRate, Sizes: workload.WebSearchCDF(),
			Priority: pkt.PrioLossless, Class: pkt.ClassLossless,
			Window: window, StreamName: "rdma", IDTag: 1,
		}},
		Incast: &workload.IncastConfig{
			Hosts: hosts, Fanout: 3, RequestBytes: 1 << 20, QueryRate: 2000,
			Window: window, Priority: pkt.PrioLossless, Class: pkt.ClassLossless,
			StreamName: "incast", IDTag: 3,
		},
	}
	s1, err := Extract(12345, wl)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Extract(12345, wl)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1.Flows) == 0 {
		t.Fatal("empty schedule")
	}
	if len(s1.Flows) != len(s2.Flows) {
		t.Fatalf("extraction not deterministic: %d vs %d flows", len(s1.Flows), len(s2.Flows))
	}
	nIncast := 0
	for i := range s1.Flows {
		if s1.Flows[i].Flow != s2.Flows[i].Flow || s1.Flows[i].Incast != s2.Flows[i].Incast {
			t.Fatalf("extraction not deterministic at flow %d", i)
		}
		if i > 0 && s1.Flows[i].Flow.Start < s1.Flows[i-1].Flow.Start {
			t.Fatalf("schedule not time-ordered at %d", i)
		}
		if s1.Flows[i].Flow.Start >= sim.Time(window) {
			t.Fatalf("flow %d starts at %v, beyond the window", i, s1.Flows[i].Flow.Start)
		}
		if s1.Flows[i].Incast {
			nIncast++
			if byte(s1.Flows[i].Flow.ID>>56) != 3 {
				t.Fatalf("incast flow %d lacks the incast ID tag", i)
			}
		}
	}
	if nIncast == 0 {
		t.Error("no incast flows extracted")
	}
	if s1.Incast == nil || len(s1.Incast.Queries()) == 0 {
		t.Error("incast generator bookkeeping not retained")
	}
	// Per-query responder count must equal the fanout.
	if got := nIncast; got != 3*len(s1.Incast.Queries()) {
		t.Errorf("incast flows = %d, want fanout·queries = %d", got, 3*len(s1.Incast.Queries()))
	}
}

func TestNextIncastAt(t *testing.T) {
	sch := &Schedule{Flows: []FlowArrival{
		{Flow: mkFlow(1, 0, 1, 10, pkt.ClassLossy, 5)},
		{Flow: mkFlow(2, 0, 1, 10, pkt.ClassLossless, 7), Incast: true},
	}}
	if at, ok := sch.NextIncastAt(0); !ok || at != 7 {
		t.Errorf("NextIncastAt(0) = (%v,%v), want (7,true)", at, ok)
	}
	if _, ok := sch.NextIncastAt(2); ok {
		t.Error("NextIncastAt past the end reported a burst")
	}
}
