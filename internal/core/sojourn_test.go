package core

import (
	"testing"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// admit builds a data packet stamped as the MMU would: admitted at ingress
// (inPort, prio), queued at egress outPort.
func admit(inPort, prio, outPort int) *pkt.Packet {
	p := pkt.NewData(1, 0, 1, prio, ClassOfPriority(prio), 0, pkt.MTUPayload)
	p.InPort, p.InPrio, p.OutPort = inPort, prio, outPort
	return p
}

func TestSojournEmptyQueue(t *testing.T) {
	s := newFakeState()
	tab := NewSojournTable(true)
	if got := tab.Tau(s, 0, 0); got != 0 {
		t.Errorf("τ of empty queue = %v, want 0", got)
	}
	if tab.Resident(0, 0) != 0 {
		t.Error("empty queue should have no residents")
	}
}

func TestSojournSingleEnqueue(t *testing.T) {
	s := newFakeState()
	tab := NewSojournTable(true)

	// 50 KB already queued at egress port 3 priority 0, draining at line
	// rate: expected sojourn is its serialization time.
	s.qout[[2]int{3, 0}] = 50_000
	tab.OnEnqueue(s, admit(0, 0, 3))

	want := sim.TxTime(50_000, s.line)
	if got := tab.Tau(s, 0, 0); got != want {
		t.Errorf("τ = %v, want %v", got, want)
	}
	if tab.Resident(0, 0) != 1 {
		t.Error("resident count wrong")
	}
}

func TestSojournDecaysWithTime(t *testing.T) {
	s := newFakeState()
	tab := NewSojournTable(true)
	s.qout[[2]int{3, 0}] = 50_000
	tab.OnEnqueue(s, admit(0, 0, 3))
	tau0 := tab.Tau(s, 0, 0)

	step := 2 * sim.Microsecond
	s.now += step
	if got, want := tab.Tau(s, 0, 0), tau0-step; got != want {
		t.Errorf("τ after %v = %v, want %v", step, got, want)
	}
}

func TestSojournClampsAtZero(t *testing.T) {
	s := newFakeState()
	tab := NewSojournTable(true)
	s.qout[[2]int{3, 0}] = 1000
	tab.OnEnqueue(s, admit(0, 0, 3))

	s.now += sim.Second // far beyond any drain estimate
	if got := tab.Tau(s, 0, 0); got != 0 {
		t.Errorf("τ = %v, want clamp at 0", got)
	}
}

func TestSojournAveragesAcrossPackets(t *testing.T) {
	s := newFakeState()
	tab := NewSojournTable(true)

	s.qout[[2]int{3, 0}] = 100_000
	tab.OnEnqueue(s, admit(0, 0, 3))
	s.qout[[2]int{4, 0}] = 300_000
	tab.OnEnqueue(s, admit(0, 0, 4))

	want := (sim.TxTime(100_000, s.line) + sim.TxTime(300_000, s.line)) / 2
	if got := tab.Tau(s, 0, 0); got != want {
		t.Errorf("τ = %v, want mean %v", got, want)
	}
}

func TestSojournDequeueEmptiesState(t *testing.T) {
	s := newFakeState()
	tab := NewSojournTable(true)
	s.qout[[2]int{3, 0}] = 100_000
	p := admit(0, 0, 3)
	tab.OnEnqueue(s, p)
	tab.OnDequeue(s, p)

	if tab.Resident(0, 0) != 0 {
		t.Error("resident count should be zero after dequeue")
	}
	if got := tab.Tau(s, 0, 0); got != 0 {
		t.Errorf("τ after queue emptied = %v, want 0 (total reset)", got)
	}
}

func TestSojournDequeueKeepsRemainderSane(t *testing.T) {
	s := newFakeState()
	tab := NewSojournTable(true)
	s.qout[[2]int{3, 0}] = 100_000
	p1 := admit(0, 0, 3)
	tab.OnEnqueue(s, p1)
	s.qout[[2]int{3, 0}] = 200_000
	p2 := admit(0, 0, 3)
	tab.OnEnqueue(s, p2)

	tab.OnDequeue(s, p1)
	if tab.Resident(0, 0) != 1 {
		t.Fatal("one packet should remain")
	}
	if tau := tab.Tau(s, 0, 0); tau < 0 {
		t.Errorf("τ = %v, want non-negative", tau)
	}
}

func TestSojournPauseExclusion(t *testing.T) {
	// With the §III-D mitigation on, time the destination egress priority
	// spends paused by downstream PFC must not shrink the estimate.
	s := newFakeState()
	tab := NewSojournTable(true)
	s.qout[[2]int{3, 0}] = 100_000
	tab.OnEnqueue(s, admit(0, 0, 3))
	tau0 := tab.Tau(s, 0, 0)

	// Advance 10 µs of which the egress was paused the whole time.
	s.now += 10 * sim.Microsecond
	s.paused[[2]int{3, 0}] += 10 * sim.Microsecond
	if got := tab.Tau(s, 0, 0); got != tau0 {
		t.Errorf("τ with full pause overlap = %v, want unchanged %v", got, tau0)
	}

	// Another 10 µs, half paused: only the unpaused half counts.
	s.now += 10 * sim.Microsecond
	s.paused[[2]int{3, 0}] += 5 * sim.Microsecond
	if got, want := tab.Tau(s, 0, 0), tau0-5*sim.Microsecond; got != want {
		t.Errorf("τ with half pause overlap = %v, want %v", got, want)
	}
}

func TestSojournPauseExclusionDisabled(t *testing.T) {
	s := newFakeState()
	tab := NewSojournTable(false)
	s.qout[[2]int{3, 0}] = 100_000
	tab.OnEnqueue(s, admit(0, 0, 3))
	tau0 := tab.Tau(s, 0, 0)

	s.now += 10 * sim.Microsecond
	s.paused[[2]int{3, 0}] += 10 * sim.Microsecond
	if got, want := tab.Tau(s, 0, 0), tau0-10*sim.Microsecond; got != want {
		t.Errorf("τ with exclusion off = %v, want full decay to %v", got, want)
	}
}

func TestSojournPauseOnlyAffectsMatchingEgress(t *testing.T) {
	s := newFakeState()
	tab := NewSojournTable(true)
	s.qout[[2]int{3, 0}] = 100_000
	tab.OnEnqueue(s, admit(0, 0, 3))
	tau0 := tab.Tau(s, 0, 0)

	// Pause a different egress port: decay proceeds normally.
	s.now += 10 * sim.Microsecond
	s.paused[[2]int{5, 0}] += 10 * sim.Microsecond
	if got, want := tab.Tau(s, 0, 0), tau0-10*sim.Microsecond; got != want {
		t.Errorf("τ = %v, want %v (pause of unrelated port ignored)", got, want)
	}
}

func TestSojournZeroDrainRateFallsBackToLineRate(t *testing.T) {
	s := newFakeState()
	tab := NewSojournTable(true)
	s.qout[[2]int{3, 0}] = 100_000
	s.drain[[2]int{3, 0}] = 0
	tab.OnEnqueue(s, admit(0, 0, 3))
	if got, want := tab.Tau(s, 0, 0), sim.TxTime(100_000, s.line); got != want {
		t.Errorf("τ = %v, want fallback to line rate %v", got, want)
	}
}

func TestSumActiveTauAndFloor(t *testing.T) {
	s := newFakeState()
	tab := NewSojournTable(true)

	floor := sim.Microsecond
	// Queue A: τ = 32 µs (100 KB at 25G). Queue B: τ ≈ 0 → floored.
	s.qout[[2]int{3, 0}] = 100_000
	tab.OnEnqueue(s, admit(0, 0, 3))
	s.qout[[2]int{4, 1}] = 0
	tab.OnEnqueue(s, admit(1, 1, 4))

	sum, active := tab.SumActiveTau(s, floor)
	if active != 2 {
		t.Fatalf("active = %d, want 2", active)
	}
	want := sim.TxTime(100_000, s.line) + floor
	if sum != want {
		t.Errorf("sum = %v, want %v", sum, want)
	}

	maxTau, active := tab.MaxActiveTau(s, floor)
	if active != 2 || maxTau != sim.TxTime(100_000, s.line) {
		t.Errorf("max = %v (active %d), want %v (2)", maxTau, active, sim.TxTime(100_000, s.line))
	}
}

func TestSumActiveTauSkipsEmptyQueues(t *testing.T) {
	s := newFakeState()
	tab := NewSojournTable(true)
	s.qout[[2]int{3, 0}] = 100_000
	p := admit(0, 0, 3)
	tab.OnEnqueue(s, p)
	tab.OnDequeue(s, p)

	if sum, active := tab.SumActiveTau(s, sim.Microsecond); active != 0 || sum != 0 {
		t.Errorf("sum/active over emptied table = %v/%d, want 0/0", sum, active)
	}
}

func TestSojournPausedEgressGrowsTau(t *testing.T) {
	// Regression for the DrainRate bug: a packet headed to a PAUSED egress
	// priority must not be charged a finite backlog/(rate-share) drain time.
	// DrainRate now reports 0 for paused queues; without §III-D exclusion
	// the estimate is elapsed-pause (renewal rule for the remaining pause)
	// plus backlog at the post-resume line rate.
	s := newFakeState()
	tab := NewSojournTable(false)
	backlog := int64(50_000)
	s.qout[[2]int{3, 0}] = backlog
	s.drain[[2]int{3, 0}] = 0                        // paused: no service
	s.pausedFor[[2]int{3, 0}] = 40 * sim.Microsecond // paused for 40µs already
	tab.OnEnqueue(s, admit(0, 0, 3))

	want := 40*sim.Microsecond + sim.TxTime(int(backlog), s.line)
	if got := tab.Tau(s, 0, 0); got != want {
		t.Errorf("τ behind paused port = %v, want %v (pause + line-rate drain)", got, want)
	}
	// Pin the growth: the pre-fix estimate (backlog at a rate/(n+1) share,
	// say half line rate) is strictly smaller.
	buggy := sim.TxTime(int(backlog), s.line/2)
	if got := tab.Tau(s, 0, 0); got <= buggy {
		t.Errorf("τ = %v did not grow beyond the buggy estimate %v", got, buggy)
	}
}

func TestSojournPausedEgressWithExclusionChargesDrainOnly(t *testing.T) {
	// With §III-D pause exclusion on, pause time never counts toward the
	// sojourn estimate (advance won't decay it while paused either), so the
	// enqueue charge is the post-resume drain alone — charging the elapsed
	// pause too would double-count.
	s := newFakeState()
	tab := NewSojournTable(true)
	backlog := int64(50_000)
	s.qout[[2]int{3, 0}] = backlog
	s.drain[[2]int{3, 0}] = 0
	s.pausedFor[[2]int{3, 0}] = 40 * sim.Microsecond
	tab.OnEnqueue(s, admit(0, 0, 3))

	want := sim.TxTime(int(backlog), s.line)
	if got := tab.Tau(s, 0, 0); got != want {
		t.Errorf("τ with exclusion = %v, want %v (line-rate drain only)", got, want)
	}
}

func TestPeekActiveMatchesTauWithoutMutation(t *testing.T) {
	s := newFakeState()
	tab := NewSojournTable(true)
	s.qout[[2]int{3, 0}] = 50_000
	s.qout[[2]int{2, 4}] = 20_000
	tab.OnEnqueue(s, admit(0, 0, 3))
	tab.OnEnqueue(s, admit(1, 4, 2))
	s.now += 2 * sim.Microsecond

	// Peek twice, then compare with Tau: all three must agree (the
	// observer-effect guarantee the trace sampler depends on).
	floor := sim.Duration(1)
	peek1 := tab.PeekActiveAppend(nil, s, floor)
	peek2 := tab.PeekActiveAppend(nil, s, floor)
	if len(peek1) != 2 || len(peek2) != 2 {
		t.Fatalf("PeekActiveAppend sizes = %d, %d, want 2, 2", len(peek1), len(peek2))
	}
	for i := range peek1 {
		if peek1[i] != peek2[i] {
			t.Errorf("repeated peek diverged: %+v vs %+v", peek1[i], peek2[i])
		}
	}
	// (port, prio) ordering: port 1 queue (prio 4) has index 1*8+4 = 12,
	// port 0 queue (prio 0) index 0 — ascending index order.
	if peek1[0].Port != 0 || peek1[0].Prio != 0 || peek1[1].Port != 1 || peek1[1].Prio != 4 {
		t.Fatalf("PeekActiveAppend order = %+v", peek1)
	}
	if got := tab.Tau(s, 0, 0); got != peek1[0].Tau {
		t.Errorf("Tau(0,0) = %v, peeked %v", got, peek1[0].Tau)
	}
	if got := tab.Tau(s, 1, 4); got != peek1[1].Tau {
		t.Errorf("Tau(1,4) = %v, peeked %v", got, peek1[1].Tau)
	}
}

// Reads must not create state: OnEnqueue is the table's only creator, so a
// queue that is merely asked about — Tau, Resident, or a threshold
// evaluation for a port no packet ever entered — costs nothing and leaves
// the table as it was. Each run reads a different never-enqueued port, so a
// read that allocates on first touch cannot hide behind AllocsPerRun's
// warm-up call.
func TestSojournReadsDoNotAllocate(t *testing.T) {
	s := newFakeState()
	cfg := DefaultL2BMConfig()
	cfg.BoundsLossless = WeightBounds{} // unpinned, so both classes evaluate τ
	l := NewL2BM(cfg)
	tab := l.Sojourn()
	tab.OnEnqueue(s, admit(0, pkt.PrioLossy, 1)) // one live queue, so the aggregates have work
	slots := len(tab.queues)

	port := 1
	allocs := testing.AllocsPerRun(200, func() {
		port++
		if tab.Tau(s, port, pkt.PrioLossy) != 0 || tab.Resident(port, pkt.PrioLossless) != 0 {
			t.Fatal("never-enqueued queue reads as non-empty")
		}
		l.Weight(s, port, pkt.PrioLossy)
		l.IngressThreshold(s, port, pkt.PrioLossless)
	})
	if allocs != 0 {
		t.Errorf("reading never-enqueued queues allocates %v times per run, want 0", allocs)
	}
	if len(tab.queues) != slots || len(tab.active) != 1 {
		t.Errorf("reads grew the table to %d slots / %d active, want %d / 1", len(tab.queues), len(tab.active), slots)
	}
}

// BenchmarkSojournAggregatesWide prices Σ τ on a wide switch the way a long
// run leaves it: 34 ports × 8 priorities have all carried traffic at some
// point, two queues hold packets now. The clock moves every iteration, as
// it does between admissions, so each call really decays the active
// queues' estimates. The cost must follow the 2, not the 272.
func BenchmarkSojournAggregatesWide(b *testing.B) {
	const ports = 34
	s := newFakeState()
	s.ports = ports
	tab := NewSojournTable(true)
	for port := 0; port < ports; port++ {
		for prio := 0; prio < pkt.NumPriorities; prio++ {
			p := admit(port, prio, (port+1)%ports)
			tab.OnEnqueue(s, p)
			tab.OnDequeue(s, p)
		}
	}
	s.qout[[2]int{5, pkt.PrioLossy}] = 200_000
	tab.OnEnqueue(s, admit(3, pkt.PrioLossy, 5))
	tab.OnEnqueue(s, admit(20, pkt.PrioLossless, 7))

	floor := sim.TxTime(pkt.MTUBytes, 25e9)
	var sum sim.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.now++
		d, _ := tab.SumActiveTau(s, floor)
		sum += d
	}
	benchSink = sum
}

var benchSink sim.Duration
