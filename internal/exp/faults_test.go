package exp

import (
	"bytes"
	"testing"

	"l2bm/internal/sim"
)

// TestFaultToleranceAcceptance is the headline robustness guarantee: under
// the default scenario (1% link-flap duty cycle + 1e-6 BER) at tiny scale,
// every policy completes every flow, the MMU audit stays clean, and the
// detection machinery reports nothing on a deadlock-free fabric.
func TestFaultToleranceAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep across all policies is slow")
	}
	var buf bytes.Buffer
	specs, out, err := NewHarness(0).Run("faults", ScaleTiny, nil, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(PolicyNames) {
		t.Fatalf("got %d policies, want %d", len(out), len(PolicyNames))
	}
	for i, pol := range PolicyNames {
		res := out[i]
		if res == nil || specs[i].Policy != pol {
			t.Fatalf("%s: no result (point %d ran %q)", pol, i, specs[i].Policy)
		}
		if res.FlowsStarted == 0 {
			t.Fatalf("%s: no flows started", pol)
		}
		if res.FlowsCompleted != res.FlowsStarted {
			var ids []int64
			for _, rec := range res.Incomplete {
				ids = append(ids, int64(rec.Flow.ID))
			}
			t.Errorf("%s: completed %d/%d flows, stuck ids %v",
				pol, res.FlowsCompleted, res.FlowsStarted, ids)
		}
		// The scenario must actually have injected damage...
		if res.LinkDownEvents == 0 {
			t.Errorf("%s: no link flaps fired", pol)
		}
		if res.CorruptedFrames == 0 {
			t.Errorf("%s: no frames corrupted", pol)
		}
		// ...and recovery must have been exercised, not dodged.
		if res.RecoveryBytes == 0 {
			t.Errorf("%s: faults injected but nothing retransmitted", pol)
		}
		// Integrity and detection: clean fabric semantics must survive.
		if len(res.AuditErrors) != 0 {
			t.Errorf("%s: MMU audit errors: %v", pol, res.AuditErrors)
		}
		if res.LosslessViolations != 0 {
			t.Errorf("%s: %d lossless violations", pol, res.LosslessViolations)
		}
		if res.WatchdogStalls != 0 {
			t.Errorf("%s: watchdog reported %d stalls on a recovering fabric", pol, res.WatchdogStalls)
		}
		if res.DeadlockCycles != 0 {
			t.Errorf("%s: detector claimed %d deadlock cycles on a cycle-free Clos", pol, res.DeadlockCycles)
		}
		if res.DeadlockScans == 0 {
			t.Errorf("%s: deadlock detector never scanned", pol)
		}
	}
	if buf.Len() == 0 {
		t.Error("no tables rendered")
	}
}

// TestFaultRunsAreDeterministic: the whole point of seeded fault streams is
// that a fault run is exactly reproducible. Same seed, same plan — the
// rendered tables must be byte-identical and the structured results equal.
func TestFaultRunsAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fault scenario twice")
	}
	run := func() (*Result, string) {
		var buf bytes.Buffer
		res, err := RunHybrid(HybridSpec{
			Name: "faults", Policy: "L2BM", Scale: ScaleTiny,
			RDMALoad: 0.4, TCPLoad: 0.4,
			DrainOverride: FaultDrain * ScaleTiny.Window(),
			Faults:        DefaultFaultScenario(ScaleTiny),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, buf.String()
	}
	a, _ := run()
	b, _ := run()

	type key struct {
		started, completed int
		recovery           int64
		nacks, rtos        uint64
		flaps, corrupt     uint64
		lostPFC, carrier   uint64
		gaps               uint64
		pause, reissue     uint64
	}
	ka := key{a.FlowsStarted, a.FlowsCompleted, a.RecoveryBytes,
		a.RDMANACKs, a.RDMATimeouts, a.LinkDownEvents, a.CorruptedFrames,
		a.LostPFC, a.CarrierDrops, a.LosslessGaps, a.PauseFrames, a.PFCReissues}
	kb := key{b.FlowsStarted, b.FlowsCompleted, b.RecoveryBytes,
		b.RDMANACKs, b.RDMATimeouts, b.LinkDownEvents, b.CorruptedFrames,
		b.LostPFC, b.CarrierDrops, b.LosslessGaps, b.PauseFrames, b.PFCReissues}
	if ka != kb {
		t.Fatalf("identical fault runs diverged:\n  a=%+v\n  b=%+v", ka, kb)
	}
}

// TestFaultTablesAreByteIdentical renders the full comparison twice and
// demands byte equality — the tables are what a reader diffs across commits.
func TestFaultTablesAreByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full fault sweep twice")
	}
	var a, b bytes.Buffer
	if _, _, err := NewHarness(0).Run("faults", ScaleTiny, nil, &a); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewHarness(0).Run("faults", ScaleTiny, nil, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("fault tables differ between identical runs:\n--- a ---\n%s\n--- b ---\n%s", a.String(), b.String())
	}
}

// TestFaultsDoNotPerturbWorkload: fault randomness lives on its own named
// RNG streams, so arming a fault plan must not change the workload's arrival
// process — a clean and a faulted run of one spec start the same flows.
func TestFaultsDoNotPerturbWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a fault scenario")
	}
	run := func(fs *FaultSpec) *Result {
		res, err := RunHybrid(HybridSpec{
			Name: "faults", Policy: "DT", Scale: ScaleTiny,
			RDMALoad: 0.4, TCPLoad: 0.4,
			DrainOverride: FaultDrain * ScaleTiny.Window(),
			Faults:        fs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean, faulted := run(nil), run(DefaultFaultScenario(ScaleTiny))
	if faulted.LinkDownEvents == 0 || faulted.CorruptedFrames == 0 {
		t.Fatalf("the fault plan injected nothing: %d flaps, %d corrupted frames",
			faulted.LinkDownEvents, faulted.CorruptedFrames)
	}
	if clean.FlowsStarted == 0 || clean.FlowsStarted != faulted.FlowsStarted {
		t.Fatalf("arming faults changed the workload: %d vs %d flows started",
			clean.FlowsStarted, faulted.FlowsStarted)
	}
}

// TestDrainOverrideExtendsHorizon: the fault recovery horizon is a spec knob,
// not a hard-coded constant. A zero override falls back to the scale default.
func TestDrainOverrideExtendsHorizon(t *testing.T) {
	if FaultDrain*ScaleTiny.Window() <= ScaleTiny.Drain() {
		t.Fatalf("FaultDrain horizon %v not longer than default drain %v",
			FaultDrain*ScaleTiny.Window(), ScaleTiny.Drain())
	}
	if d := sim.Duration(FaultDrain) * ScaleTiny.Window(); d <= 0 {
		t.Fatal("fault drain horizon must be positive")
	}
}
