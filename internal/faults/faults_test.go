package faults

import (
	"math"
	"reflect"
	"testing"

	"l2bm/internal/core"
	"l2bm/internal/netdev"
	"l2bm/internal/pkt"
	"l2bm/internal/psim"
	"l2bm/internal/sim"
	"l2bm/internal/switchsim"
)

func TestPlanValidateRejectsGarbage(t *testing.T) {
	bad := []Plan{
		{FlapRate: math.NaN()},
		{FlapRate: math.Inf(1)},
		{FlapRate: -1},
		{FlapRate: 10}, // flapping without a downtime
		{FlapRate: 10, FlapDowntime: sim.Microsecond, FlapWindow: -1},
		{BER: math.NaN()},
		{BER: -0.1},
		{BER: 1},
		{PFCLossRate: math.NaN()},
		{PFCLossRate: 1.5},
		{Blackouts: []Blackout{{Switch: "sw", At: 0, Duration: 0}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: plan %+v accepted", i, p)
		}
	}
	good := Plan{FlapRate: 100, FlapDowntime: 20 * sim.Microsecond, BER: 1e-6, PFCLossRate: 0.01}
	if err := good.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	if !good.Active() {
		t.Error("plan with faults reported inactive")
	}
	zero := Plan{}
	if zero.Active() {
		t.Error("zero plan reported active")
	}
}

func TestFrameCorruptionProb(t *testing.T) {
	if p := FrameCorruptionProb(pkt.MTUBytes, 0); p != 0 {
		t.Errorf("prob at BER 0 = %v", p)
	}
	p := FrameCorruptionProb(pkt.MTUBytes, 1e-6)
	approx := 8 * float64(pkt.MTUBytes) * 1e-6 // small-rate linearization
	if math.Abs(p-approx)/approx > 0.01 {
		t.Errorf("prob = %v, want ≈ %v", p, approx)
	}
	if FrameCorruptionProb(2*pkt.MTUBytes, 1e-6) <= p {
		t.Error("corruption probability must grow with frame size")
	}
}

// fakeNode is a minimal netdev.Node for injector-level tests.
type fakeNode struct{ name string }

func (n *fakeNode) HandleArrival(*pkt.Packet, *netdev.Port) {}
func (n *fakeNode) Name() string                            { return n.name }

// testLink builds one cable between two fake nodes and records SetLive
// transitions with timestamps.
func testLink(eng *sim.Engine, name string) (Link, *[]bool) {
	a, b := &fakeNode{name + ".a"}, &fakeNode{name + ".b"}
	pa, pb := netdev.Connect(eng, a, b, 25e9, sim.Microsecond)
	var states []bool
	l := Link{
		Name: name, A: pa, B: pb, AName: a.name, BName: b.name,
		SetLive: func(up bool) {
			states = append(states, up)
			pa.SetCarrier(up)
			pb.SetCarrier(up)
		},
	}
	return l, &states
}

func TestInjectorRejectsBadBindings(t *testing.T) {
	eng := sim.NewEngine(1)
	l1, _ := testLink(eng, "l1")
	noLive := l1
	noLive.SetLive = nil
	if _, err := NewInjector(eng, Plan{}, []Link{noLive}); err == nil {
		t.Error("link without SetLive accepted")
	}
	if _, err := NewInjector(eng, Plan{}, []Link{l1, l1}); err == nil {
		t.Error("duplicate link names accepted")
	}
	plan := Plan{Scheduled: []ScheduledEvent{{Link: "ghost", At: 0, Up: false}}}
	if _, err := NewInjector(eng, plan, []Link{l1}); err == nil {
		t.Error("scheduled event for unknown link accepted")
	}
}

func TestScheduledEventsFireInOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	l, states := testLink(eng, "l1")
	plan := Plan{Scheduled: []ScheduledEvent{
		{Link: "l1", At: sim.Millisecond, Up: false},
		{Link: "l1", At: 2 * sim.Millisecond, Up: true},
	}}
	inj, err := NewInjector(eng, plan, []Link{l})
	if err != nil {
		t.Fatal(err)
	}
	inj.Install()
	eng.Run(3 * sim.Millisecond)

	if want := []bool{false, true}; !reflect.DeepEqual(*states, want) {
		t.Fatalf("transitions = %v, want %v", *states, want)
	}
	st := inj.Stats()
	if st.LinkDownEvents != 1 || st.LinkUpEvents != 1 {
		t.Errorf("stats = %+v, want 1 down / 1 up", st)
	}
}

func TestZeroRatePlanInstallsNoHooks(t *testing.T) {
	eng := sim.NewEngine(1)
	l, _ := testLink(eng, "l1")
	inj, err := NewInjector(eng, Plan{FlapRate: 0, BER: 0, PFCLossRate: 0}, []Link{l})
	if err != nil {
		t.Fatal(err)
	}
	inj.Install()
	if l.A.RxFault != nil || l.B.RxFault != nil {
		t.Error("zero-rate plan installed receive hooks")
	}
	if eng.Pending() != 0 {
		t.Errorf("zero-rate plan scheduled %d events", eng.Pending())
	}
}

// flapTimes runs a Poisson flap plan and returns the carrier transition
// sequence (as observed by SetLive).
func flapTimes(seed int64) []bool {
	eng := sim.NewEngine(seed)
	l, states := testLink(eng, "l1")
	plan := Plan{
		FlapRate: 2000, FlapDowntime: 20 * sim.Microsecond,
		FlapWindow: 5 * sim.Millisecond,
	}
	inj, err := NewInjector(eng, plan, []Link{l})
	if err != nil {
		panic(err)
	}
	inj.Install()
	eng.Run(10 * sim.Millisecond)
	return *states
}

func TestFlapProcessDeterministicPerSeedAndStream(t *testing.T) {
	a, b := flapTimes(7), flapTimes(7)
	if len(a) == 0 {
		t.Fatal("flap process produced no transitions")
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed + plan produced different flap sequences")
	}
	// The sequence must strictly alternate down/up and end repaired.
	for i, up := range a {
		if up != (i%2 == 1) {
			t.Fatalf("transition %d = %v, want alternating starting down", i, up)
		}
	}
	if a[len(a)-1] != true {
		t.Error("flap window closed with the link still down")
	}
}

// runObserved runs eng to horizon the way a run drives the detector and the
// watchdog: as a one-engine conductor with tick as a barrier task.
func runObserved(eng *sim.Engine, every sim.Duration, tick func(now sim.Time), horizon sim.Time) {
	cond := psim.New([]*sim.Engine{eng}, nil, 0)
	cond.AddTask(every, tick)
	cond.Run(horizon)
}

func TestWatchdogDistinguishesStallFromIdle(t *testing.T) {
	for _, tc := range []struct {
		name       string
		resident   int64
		progress   bool // counter advances every window
		wantStalls bool
	}{
		{"wedged buffers", 1 << 20, false, true},
		{"rto quiet period", 0, false, false},
		{"healthy delivery", 1 << 20, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			var delivered uint64
			wd := NewWatchdog(func() uint64 { return delivered }, func() int64 { return tc.resident })
			wd.Window = sim.Millisecond
			if tc.progress {
				var tick func()
				tick = func() {
					delivered++
					eng.Schedule(wd.Window/2, tick)
				}
				eng.Schedule(wd.Window/2, tick)
			}
			runObserved(eng, wd.Window, wd.TickOnce, 10*sim.Millisecond)
			if got := wd.Stalls > 0; got != tc.wantStalls {
				t.Errorf("stalls = %d, want stalls? %v", wd.Stalls, tc.wantStalls)
			}
			if tc.wantStalls && (wd.Stalls != 10 || wd.FirstStallAt != sim.Millisecond) {
				t.Errorf("%d stalls, first at %v, want one per window from 1ms", wd.Stalls, wd.FirstStallAt)
			}
		})
	}
}

// ringOfSwitches wires n switches pairwise (i ↔ (i+1)%n) and returns them
// plus, for each i, the port on switch i facing switch (i+1)%n.
func ringOfSwitches(eng *sim.Engine, n int) ([]*switchsim.Switch, []*netdev.Port) {
	sws := make([]*switchsim.Switch, n)
	for i := range sws {
		sws[i] = switchsim.NewSwitch(eng, "sw"+string(rune('0'+i)), switchsim.DefaultConfig(), core.NewDT())
	}
	fwd := make([]*netdev.Port, n)
	for i := range sws {
		j := (i + 1) % n
		pi, pj := netdev.Connect(eng, sws[i], sws[j], 100e9, sim.Microsecond)
		sws[i].AddPort(pi)
		sws[j].AddPort(pj)
		fwd[i] = pi
	}
	return sws, fwd
}

// pauseRing makes every switch in the ring pause its upstream neighbour's
// forward port: the wait-for cycle sw0→sw1→…→sw0 a cyclic dependency
// produces. Pauses are delivered as real PFC frames over the links.
func pauseRing(fwd []*netdev.Port) {
	for _, p := range fwd {
		// The peer (the next switch) asserts XOFF toward this port.
		p.Peer().SendPFC(pkt.PrioLossless, true)
	}
}

func TestDeadlockDetectorConfirmsCycle(t *testing.T) {
	eng := sim.NewEngine(1)
	sws, fwd := ringOfSwitches(eng, 3)
	pauseRing(fwd)

	var seen [][]string
	det := NewDeadlockDetector(sws)
	det.OnCycle = func(c []string) { seen = append(seen, append([]string(nil), c...)) }
	runObserved(eng, det.Period, det.ScanOnce, 2*sim.Millisecond)

	st := det.Stats()
	if st.CyclesDetected == 0 {
		t.Fatal("persistent 3-cycle never confirmed")
	}
	if st.CyclesBroken != 0 {
		t.Error("detection-only mode must not break cycles")
	}
	if len(det.LastCycle()) != 3 {
		t.Errorf("cycle = %v, want all 3 switches", det.LastCycle())
	}
	if len(seen) == 0 {
		t.Error("OnCycle observer never fired")
	}
	// Every port still paused: nothing was forced.
	for i, p := range fwd {
		if !p.Paused(pkt.PrioLossless) {
			t.Errorf("port %d resumed without Break", i)
		}
	}
}

func TestDeadlockDetectorBreaksCycleWhenAsked(t *testing.T) {
	eng := sim.NewEngine(1)
	sws, fwd := ringOfSwitches(eng, 3)
	pauseRing(fwd)

	det := NewDeadlockDetector(sws)
	det.Break = true
	runObserved(eng, det.Period, det.ScanOnce, 2*sim.Millisecond)

	if det.Stats().CyclesBroken == 0 {
		t.Fatal("Break mode never forced a resume")
	}
	resumed := 0
	for _, p := range fwd {
		if !p.Paused(pkt.PrioLossless) {
			resumed++
		}
	}
	if resumed == 0 {
		t.Error("no port actually resumed")
	}
}

func TestDeadlockDetectorQuietWithoutCycle(t *testing.T) {
	eng := sim.NewEngine(1)
	sws, fwd := ringOfSwitches(eng, 3)
	// Acyclic waits: sw0 waits on sw1, sw1 waits on sw2; sw2 is free.
	fwd[0].Peer().SendPFC(pkt.PrioLossless, true)
	fwd[1].Peer().SendPFC(pkt.PrioLossless, true)

	det := NewDeadlockDetector(sws)
	runObserved(eng, det.Period, det.ScanOnce, 2*sim.Millisecond)

	st := det.Stats()
	if st.Scans == 0 {
		t.Fatal("detector never scanned")
	}
	if st.CyclesDetected != 0 {
		t.Errorf("false positive: %d cycles on an acyclic wait graph", st.CyclesDetected)
	}
}

func TestDeadlockDetectorIgnoresTransientPauses(t *testing.T) {
	eng := sim.NewEngine(1)
	sws, fwd := ringOfSwitches(eng, 2)
	// A full 2-cycle that resolves before MinPauseAge: both sides XON after
	// 150 µs, under the 300 µs age filter.
	pauseRing(fwd)
	eng.Schedule(150*sim.Microsecond, func() {
		for _, p := range fwd {
			p.Peer().SendPFC(pkt.PrioLossless, false)
		}
	})

	det := NewDeadlockDetector(sws)
	runObserved(eng, det.Period, det.ScanOnce, 2*sim.Millisecond)

	if n := det.Stats().CyclesDetected; n != 0 {
		t.Errorf("transient pause reported as deadlock (%d cycles)", n)
	}
}
