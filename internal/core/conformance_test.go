package core

import (
	"fmt"
	"testing"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// conformanceScenarios are the MMU states every registered policy must
// survive: thresholds stay finite and inside [0, TotalShared] no matter
// how empty, full, or degenerate the view is. The degenerate cases are
// the historical bug farm — 0/0 drain quotients, zero congested queues,
// occupancy above the pool (transiently possible during headroom
// absorption).
func conformanceScenarios() map[string]*fakeState {
	empty := newFakeState()

	half := newFakeState()
	half.used = half.total / 2
	half.pool[pkt.ClassLossy] = half.total / 4
	half.pool[pkt.ClassLossless] = half.total / 4
	half.now = 3 * sim.Millisecond
	for port := 0; port < half.ports; port++ {
		for prio := 0; prio < pkt.NumPriorities; prio++ {
			half.qout[[2]int{port, prio}] = 20_000
		}
	}
	half.congested[pkt.PrioLossy] = 3
	half.drain[[2]int{0, pkt.PrioLossy}] = 5e9

	full := newFakeState()
	full.used = full.total
	full.pool[pkt.ClassLossy] = full.total / 2
	full.pool[pkt.ClassLossless] = full.total / 2
	full.now = 9 * sim.Millisecond
	for prio := 0; prio < pkt.NumPriorities; prio++ {
		full.congested[prio] = full.ports
	}

	overfull := newFakeState()
	overfull.used = overfull.total + 1<<20
	overfull.pool[pkt.ClassLossy] = overfull.total + 1<<20
	overfull.now = sim.Second

	degenerate := newFakeState()
	degenerate.line = 0 // idle estimator: 0/0 drain quotient upstream
	degenerate.used = degenerate.total / 3
	for port := 0; port < degenerate.ports; port++ {
		for prio := 0; prio < pkt.NumPriorities; prio++ {
			degenerate.drain[[2]int{port, prio}] = 0
			degenerate.pausedFor[[2]int{port, prio}] = sim.Millisecond
			degenerate.paused[[2]int{port, prio}] = 10 * sim.Millisecond
		}
	}

	return map[string]*fakeState{
		"empty": empty, "half": half, "full": full,
		"overfull": overfull, "degenerate": degenerate,
	}
}

// TestRegistryConformanceThresholdBounds sweeps every registered policy
// over every scenario: no threshold may be negative, exceed the shared
// pool, or be a NaN/Inf escapee (int64(NaN) would show up far outside
// the bounds).
func TestRegistryConformanceThresholdBounds(t *testing.T) {
	for _, name := range RegisteredPolicies() {
		for scen, s := range conformanceScenarios() {
			pol := MustNewPolicy(name)
			for port := 0; port < s.ports; port++ {
				for prio := 0; prio < pkt.NumPriorities; prio++ {
					ing := pol.IngressThreshold(s, port, prio)
					eg := pol.EgressThreshold(s, port, prio)
					if ing < 0 || ing > s.total {
						t.Errorf("%s/%s: IngressThreshold(%d,%d) = %d, want in [0, %d]",
							name, scen, port, prio, ing, s.total)
					}
					if eg < 0 || eg > s.total {
						t.Errorf("%s/%s: EgressThreshold(%d,%d) = %d, want in [0, %d]",
							name, scen, port, prio, eg, s.total)
					}
				}
			}
		}
	}
}

// TestRegistryConformanceNames: constructors must hand back a policy
// whose Name round-trips to its registry key, and NewPolicy must reject
// what the registry does not hold.
func TestRegistryConformanceNames(t *testing.T) {
	for _, name := range RegisteredPolicies() {
		pol, err := NewPolicy(name)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if pol.Name() != name {
			t.Errorf("NewPolicy(%q).Name() = %q, want the registry key", name, pol.Name())
		}
		if !IsRegistered(name) {
			t.Errorf("IsRegistered(%q) = false for a registered policy", name)
		}
	}
	if _, err := NewPolicy("nope"); err == nil {
		t.Error("NewPolicy(\"nope\") succeeded, want an error listing the registry")
	}
	if IsRegistered("nope") {
		t.Error("IsRegistered(\"nope\") = true")
	}
}

// conformanceTranscript drives one fresh policy instance through a fixed
// deterministic life: interleaved enqueues, threshold queries and FIFO
// dequeues across several queues, with advancing time. It returns every
// observable output, so two transcripts comparing equal means the policy
// is a pure function of its call history.
func conformanceTranscript(pol Policy) string {
	s := newFakeState()
	out := ""
	type held struct{ p *pkt.Packet }
	var fifo []held
	for step := 0; step < 60; step++ {
		s.now = sim.Time(step) * 50 * sim.Microsecond
		port := step % 4
		prio := pkt.PrioLossy
		class := pkt.ClassLossy
		if step%3 == 0 {
			prio, class = pkt.PrioLossless, pkt.ClassLossless
		}
		p := pkt.NewData(pkt.FlowID(step%5+1), port, (port+1)%4, prio, class, int64(step)*1500, 1500)
		p.InPort, p.InPrio, p.OutPort = port, prio, (port+1)%4
		s.qout[[2]int{p.OutPort, prio}] += int64(p.Size)
		s.used += int64(p.Size)
		s.pool[class] += int64(p.Size)
		pol.OnEnqueue(s, p)
		fifo = append(fifo, held{p})

		out += fmt.Sprintf("%d: ing=%d eg=%d\n", step,
			pol.IngressThreshold(s, port, prio),
			pol.EgressThreshold(s, p.OutPort, prio))

		// Dequeue the oldest resident every other step, FIFO like the MMU.
		if step%2 == 1 {
			q := fifo[0].p
			fifo = fifo[1:]
			s.qout[[2]int{q.OutPort, q.InPrio}] -= int64(q.Size)
			s.used -= int64(q.Size)
			s.pool[ClassOfPriority(q.InPrio)] -= int64(q.Size)
			pol.OnDequeue(s, q)
		}
	}
	return out
}

// TestRegistryConformanceDeterminism: two fresh instances of the same
// policy fed the identical call history must emit identical thresholds —
// the per-policy precondition for run-level reproducibility (same seed =>
// byte-identical results) that the sharded engine's invariance tests
// assume. Stateful policies (L2BM and BShare's sojourn tables, EDT/TDT
// state machines) are the reason this is worth pinning.
func TestRegistryConformanceDeterminism(t *testing.T) {
	for _, name := range RegisteredPolicies() {
		a := conformanceTranscript(MustNewPolicy(name))
		b := conformanceTranscript(MustNewPolicy(name))
		if a != b {
			t.Errorf("%s: two identically driven instances diverged:\n--- a ---\n%.1500s\n--- b ---\n%.1500s", name, a, b)
		}
	}
}
