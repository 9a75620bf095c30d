package exp

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"l2bm/internal/faults"
	"l2bm/internal/sim"
	"l2bm/internal/topo"
)

// auditSpec is a tiny hybrid data point with the packet-pool audit armed,
// shared by the auditor suite.
func auditSpec(shards int) HybridSpec {
	return HybridSpec{
		Name:     "audit-suite",
		Policy:   "L2BM",
		Scale:    ScaleTiny,
		RDMALoad: 0.4,
		TCPLoad:  0.5,
		Incast:   &IncastSpec{Fanout: 3, RequestBytes: 100_000, QueryRate: 2000},
		Shards:   shards,
		TopoOverride: func(cfg *topo.Config) {
			cfg.PacketPoolDebug = true
		},
	}
}

// TestAuditorObserverFree is the tentpole contract: an auditor-on run must
// produce byte-identical results and trace files to an auditor-off run, on
// one engine and on two shards. (Result.Events is left out of the comparison:
// it counts the sweeps.)
func TestAuditorObserverFree(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism suite")
	}
	for _, shards := range []int{0, 2} {
		ref, refCol := runAuditVariant(t, shards, nil)
		aud, audCol := runAuditVariant(t, shards, &AuditSpec{
			Every:       200 * sim.Microsecond,
			MaxPauseAge: 5 * sim.Millisecond,
		})
		if ref != aud {
			t.Errorf("shards=%d: auditor perturbed the run:\n--- off ---\n%.2000s\n--- on ---\n%.2000s",
				shards, ref, aud)
		}
		if !bytes.Equal(refCol, audCol) {
			t.Errorf("shards=%d: auditor perturbed the exported trace", shards)
		}
	}
}

// runAuditVariant runs the suite spec with/without the auditor and returns
// the result fingerprint plus the exported columnar trace.
func runAuditVariant(t *testing.T, shards int, as *AuditSpec) (string, []byte) {
	t.Helper()
	spec := auditSpec(shards)
	spec.Audit = as
	spec.Trace = &TraceSpec{SampleEvery: 100 * sim.Microsecond, Capacity: 1 << 16}
	res, err := RunHybrid(spec)
	if err != nil {
		t.Fatalf("shards=%d audit=%v: %v", shards, as != nil, err)
	}
	if res.FlowsCompleted == 0 {
		t.Fatalf("shards=%d: no flows completed", shards)
	}
	if len(res.AuditErrors) > 0 {
		t.Fatalf("shards=%d audit=%v: violations on a clean run: %v",
			shards, as != nil, res.AuditErrors)
	}
	if as != nil && res.AuditChecks == 0 {
		t.Fatalf("shards=%d: auditor armed but never swept", shards)
	}
	res.Events = 0
	return shardFingerprint(res), colBytes(t, res)
}

// TestAuditorCleanUnderFaults: a faulty fabric (flaps, corruption, PFC
// loss) stresses every kill site the flow-byte ledger must cover; the
// auditor must still see conservation hold. The run is required to lose
// frames both ways and to drain, so that Final's exact balance check runs
// with every ledger writer exercised: dropping any one write — a host's
// injected or delivered bytes, a port's carrier or fault drops — fails this
// test (the first mid-run, as a negative ledger; the others at the drain).
func TestAuditorCleanUnderFaults(t *testing.T) {
	for _, shards := range []int{0, 2} {
		spec := auditSpec(shards)
		spec.DrainOverride = 40 * sim.Millisecond
		spec.Faults = &FaultSpec{Plan: faults.Plan{
			FlapRate:     1000,
			FlapDowntime: 300 * sim.Microsecond,
			FlapWindow:   sim.Millisecond,
			BER:          2e-7,
			PFCLossRate:  0.02,
		}}
		spec.Audit = &AuditSpec{Every: 250 * sim.Microsecond}
		res, err := RunHybrid(spec)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if len(res.AuditErrors) > 0 {
			t.Errorf("shards=%d: violations under faults: %v", shards, res.AuditErrors)
		}
		if res.AuditChecks == 0 {
			t.Errorf("shards=%d: auditor never swept", shards)
		}
		if res.CarrierDrops == 0 || res.CorruptedFrames == 0 || res.PoolLive != 0 {
			t.Errorf("shards=%d: want carrier drops, corrupted frames and a drained fabric, have %d, %d and %d live packets",
				shards, res.CarrierDrops, res.CorruptedFrames, res.PoolLive)
		}
	}
}

// TestAuditorCatchesSeededSkew is the mutation test: plant a one-sided
// accounting bug (sharedUsed skewed away from the per-queue counters it is
// derived from) and require the auditor to flag it, classic and sharded.
func TestAuditorCatchesSeededSkew(t *testing.T) {
	for _, shards := range []int{0, 2} {
		spec := auditSpec(shards)
		spec.Audit = &AuditSpec{Every: 200 * sim.Microsecond}
		spec.Hooks = &RunHooks{PostBuild: func(cl *topo.Cluster) {
			cl.ToRs[0].SkewSharedUsedForTest(4096)
		}}
		res, err := RunHybrid(spec)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if len(res.AuditErrors) == 0 {
			t.Fatalf("shards=%d: seeded sharedUsed skew went undetected", shards)
		}
		found := false
		for _, v := range res.AuditErrors {
			if strings.Contains(v, "sharedUsed") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("shards=%d: violations name the wrong invariant: %v", shards, res.AuditErrors)
		}
	}
}

// TestRunHybridCtxCancelled: an already-cancelled context returns before
// building anything.
func TestRunHybridCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, shards := range []int{0, 2} {
		spec := auditSpec(shards)
		res, err := RunHybridCtx(ctx, spec)
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Errorf("shards=%d: got (%v, %v), want (nil, context.Canceled)", shards, res, err)
		}
	}
}

// TestRunHybridCtxTimeout: a deadline far shorter than the run's wall time
// interrupts the event loop mid-run and discards the torn state.
func TestRunHybridCtxTimeout(t *testing.T) {
	for _, shards := range []int{0, 2} {
		spec := shardSpec(max(shards, 0))
		spec.Shards = shards
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		res, err := RunHybridCtx(ctx, spec)
		cancel()
		if res != nil || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("shards=%d: got (res=%v, err=%v), want (nil, DeadlineExceeded)", shards, res != nil, err)
		}
	}
}
