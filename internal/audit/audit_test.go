package audit

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"l2bm/internal/core"
	"l2bm/internal/pkt"
	"l2bm/internal/psim"
	"l2bm/internal/sim"
	"l2bm/internal/topo"
	"l2bm/internal/transport"
)

// buildTiny builds a minimal cluster for in-package sweeps. The
// end-to-end auditor behavior (observer-freedom, catching seeded
// corruption, fault tolerance, FuzzSpecRun) is exercised in internal/exp;
// these tests pin the package's own contract surface.
func buildTiny(t *testing.T) *topo.Cluster {
	t.Helper()
	eng := sim.NewEngine(1)
	cl, err := topo.Build(eng, topo.TinyConfig(), func() core.Policy { return core.NewDT() }, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestConfigDefaults: the zero Config must be usable — 500 µs period,
// 64-violation retention.
func TestConfigDefaults(t *testing.T) {
	a := New(buildTiny(t), Config{})
	if a.Every() != 500*sim.Microsecond {
		t.Errorf("default period = %v, want 500µs", a.Every())
	}
	if a.cfg.Limit != 64 {
		t.Errorf("default retention limit = %d, want 64", a.cfg.Limit)
	}
}

// TestCleanIdleSweep: an idle, freshly built cluster passes every check,
// including the drain-time finals.
func TestCleanIdleSweep(t *testing.T) {
	a := New(buildTiny(t), Config{MaxPauseAge: sim.Duration(sim.Millisecond)})
	a.CheckOnce(0)
	a.Final(0)
	if len(a.Violations()) != 0 || a.Total() != 0 {
		t.Fatalf("idle cluster flagged: %v", a.Violations())
	}
	if a.Checks() != 2 { // CheckOnce + Final's sweep
		t.Errorf("checks = %d, want 2", a.Checks())
	}
}

// TestCatchesSkewAndCapsRetention: a seeded shared-pool skew is flagged on
// every sweep, retention stops at Limit while Total keeps counting.
func TestCatchesSkewAndCapsRetention(t *testing.T) {
	cl := buildTiny(t)
	cl.ToRs[0].SkewSharedUsedForTest(1 << 20)
	a := New(cl, Config{Limit: 3})
	for i := 0; i < 10; i++ {
		a.CheckOnce(sim.Time(i))
	}
	if len(a.Violations()) != 3 {
		t.Fatalf("retained %d violations, want the cap of 3: %v", len(a.Violations()), a.Violations())
	}
	if a.Total() < 10 {
		t.Errorf("total = %d, want >= 10 (one per sweep past the cap)", a.Total())
	}
	if v := a.Violations()[0]; !strings.Contains(v, "sharedUsed") || !strings.Contains(v, "audit t=") {
		t.Errorf("violation text missing diagnosis or timestamp: %q", v)
	}
}

// TestSweepsAsBarrierTask drives the auditor the way a run does — CheckOnce
// as a task of a one-engine conductor: one sweep per period, each stamped
// with its barrier instant, none as an engine event.
func TestSweepsAsBarrierTask(t *testing.T) {
	cl := buildTiny(t)
	cl.ToRs[0].SkewSharedUsedForTest(1 << 20)
	a := New(cl, Config{Every: 100 * sim.Microsecond})
	cond := psim.New(cl.Engines, cl.Inbound(), cl.Lookahead, 1)
	defer cond.Close()
	cond.AddTask(a.Every(), a.CheckOnce)
	cond.Run(sim.Time(1050 * sim.Microsecond))
	if a.Checks() != 10 || cond.Stats().TaskFirings != 10 {
		t.Errorf("after 1.05ms at 100µs: %d checks, %d task firings, want 10 and 10",
			a.Checks(), cond.Stats().TaskFirings)
	}
	if cl.Engines[0].Events() != 0 {
		t.Errorf("sweeps executed %d engine events, want 0", cl.Engines[0].Events())
	}
	if v := a.Violations()[9]; !strings.Contains(v, "audit t=1ms") {
		t.Errorf("tenth sweep not stamped with its barrier instant: %q", v)
	}
}

// TestGatedSweepMatchesUngated is the auditor's differential test: the
// version gate may only ever skip work, never change a verdict. Two
// auditors watch one fabric through a random script of flow launches and of
// shared-pool skews planted and lifted on random switches — busy ones and
// ones no packet ever visits; one auditor sweeps as shipped, the other
// re-checks every switch every time. After every sweep they must have
// recorded exactly the same violations. Small buffers under a preemptive
// policy make the busy switches' MMUs see admissions, drops, evictions and
// PFC between sweeps; all traffic stays under ToR 0, so ToR 1, the
// aggregation layer and the core change version only when the script skews
// them.
func TestGatedSweepMatchesUngated(t *testing.T) {
	for _, policy := range []string{"L2BM", "Occamy"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			cfg := topo.TinyConfig()
			cfg.Switch.TotalShared = 150_000
			cl, err := topo.Build(sim.NewEngine(11), cfg, func() core.Policy { return core.MustNewPolicy(policy) }, nil)
			if err != nil {
				t.Fatal(err)
			}
			gated, ungated := New(cl, Config{Limit: 1 << 20}), New(cl, Config{Limit: 1 << 20})
			compare := func(when string) {
				t.Helper()
				if gated.Total() != ungated.Total() || !reflect.DeepEqual(gated.Violations(), ungated.Violations()) {
					t.Fatalf("%s: gated auditor recorded %d violations, ungated %d\ngated:   %q\nungated: %q",
						when, gated.Total(), ungated.Total(), tail(gated.Violations()), tail(ungated.Violations()))
				}
			}

			rng := rand.New(rand.NewSource(3))
			switches := cl.AllSwitches()
			skew := make([]int64, len(switches))
			skewedSweeps, idleSkewedSweeps := 0, 0
			nextFlow := pkt.FlowID(1)
			for step := 0; step < 400; step++ {
				switch roll := rng.Intn(10); {
				case roll < 4: // a burst of flows between hosts of ToR 0
					for n := 1 + rng.Intn(3); n > 0; n-- {
						src := rng.Intn(cfg.ServersPerToR)
						dst := (src + 1 + rng.Intn(cfg.ServersPerToR-1)) % cfg.ServersPerToR
						f := &transport.Flow{ID: nextFlow, Src: src, Dst: dst, Size: int64(20_000 + rng.Intn(400_000)),
							Priority: pkt.PrioLossy, Class: pkt.ClassLossy}
						if rng.Intn(2) == 0 {
							f.Priority, f.Class = pkt.PrioLossless, pkt.ClassLossless
						}
						nextFlow++
						cl.Hosts[src].StartFlow(f)
					}
				case roll < 6: // plant a skew (any switch; ToR 0 is index 0)
					i := rng.Intn(len(switches))
					delta := int64(1 + rng.Intn(1<<20))
					switches[i].SkewSharedUsedForTest(delta)
					skew[i] += delta
				case roll < 8: // lift one
					i := rng.Intn(len(switches))
					switches[i].SkewSharedUsedForTest(-skew[i])
					skew[i] = 0
				}
				cl.Engines[0].Run(cl.Engines[0].Now() + sim.Duration(1+rng.Intn(30))*sim.Microsecond)

				now := cl.Engines[0].Now()
				gated.CheckOnce(now)
				ungated.sweep(now, true)
				compare(fmt.Sprintf("step %d (t=%v)", step, now))
				for i, d := range skew {
					if d != 0 {
						skewedSweeps++
						if i > 0 {
							idleSkewedSweeps++
						}
					}
				}
			}
			if cl.ToRs[0].MMUVersion() < 1000 || cl.Cores[0].Stats().RxPackets != 0 {
				t.Fatalf("script shape: ToR 0 at MMU version %d (want busy), core saw %d packets (want none)",
					cl.ToRs[0].MMUVersion(), cl.Cores[0].Stats().RxPackets)
			}
			// A standing skew is reported on every sweep it stands, by both.
			if idleSkewedSweeps < 50 || gated.Total() < uint64(skewedSweeps) {
				t.Fatalf("%d sweeps saw a skewed switch (%d an idle one) but only %d violations were recorded",
					skewedSweeps, idleSkewedSweeps, gated.Total())
			}

			for i := range switches {
				switches[i].SkewSharedUsedForTest(-skew[i])
			}
			cl.Engines[0].Run(cl.Engines[0].Now() + 50*sim.Millisecond)
			before := gated.Total()
			gated.Final(cl.Engines[0].Now())
			ungated.Final(cl.Engines[0].Now())
			compare("after Final")
			if gated.Total() != before {
				t.Fatalf("clean drained fabric: Final recorded %v", tail(gated.Violations()))
			}
		})
	}
}

// tail returns the last few violations for a failure message.
func tail(v []string) []string {
	if len(v) > 3 {
		v = v[len(v)-3:]
	}
	return v
}
