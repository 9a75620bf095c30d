package exp

import (
	"bytes"
	"context"
	"testing"

	"l2bm/internal/faults"
	"l2bm/internal/sim"
	"l2bm/internal/topo"
)

// The two scheduler configurations, by name. No spec can select the heap:
// it is the reference the production wheel is held to, reached through
// runHybrid's engine-constructor parameter.
const (
	SchedWheel = "wheel"
	SchedHeap  = "heap"
)

// heapEngine is the reference scheduler (sim.NewHeapEngine): one exact heap,
// no delay lines.
func heapEngine(_ *topo.Config, seed int64) *sim.Engine { return sim.NewHeapEngine(seed) }

// runSched executes one spec under the given scheduler backend and returns
// its full deterministic fingerprint plus the executed-event count (which,
// unlike the shard suite, must ALSO match across backends: the wheel
// re-orders nothing, it only re-homes pending events).
func runSched(t *testing.T, spec HybridSpec, sched string) (string, uint64, *Result) {
	t.Helper()
	newEngine := wheelEngine
	if sched == SchedHeap {
		newEngine = heapEngine
	}
	res, err := runHybrid(context.Background(), spec, newEngine)
	if err != nil {
		t.Fatalf("sched=%s: %v", sched, err)
	}
	if res.FlowsCompleted == 0 {
		t.Fatalf("sched=%s: no flows completed", sched)
	}
	return shardFingerprint(res), res.Events, res
}

// schedSpecs are figure-representative data points: the Fig. 3 motivation
// setup (DT, inter-rack Poisson), a Fig. 7 sweep cell (L2BM, hybrid load +
// incast) and the Fig. 8 load point (heaviest TCP). Tiny scale keeps the
// suite CI-sized; the workloads still cross every subsystem (PFC, ECN,
// DCQCN, DCTCP, incast barriers).
func schedSpecs() []HybridSpec {
	return []HybridSpec{
		{Name: "sched-det-fig3", Policy: "DT", Scale: ScaleTiny,
			RDMALoad: 0.4, TCPLoad: 0.4, InterRackOnly: true},
		{Name: "sched-det-fig7", Policy: "L2BM", Scale: ScaleTiny,
			RDMALoad: 0.4, TCPLoad: 0.5,
			Incast: &IncastSpec{Fanout: 4, RequestBytes: 200_000, QueryRate: 2000}},
		{Name: "sched-det-fig8", Policy: "ABM", Scale: ScaleTiny,
			RDMALoad: 0.4, TCPLoad: 0.8},
	}
}

// TestSchedBackendIdentity is the timer wheel's acceptance test at the
// experiment layer: for figure-representative points, the wheel and heap
// backends must produce byte-identical results — every observable,
// including exported trace files and the executed-event count.
func TestSchedBackendIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism suite")
	}
	for _, spec := range schedSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			spec.Trace = &TraceSpec{SampleEvery: 100 * sim.Microsecond, Capacity: 1 << 17}

			heapFP, heapEvents, heapRes := runSched(t, spec, SchedHeap)
			wheelFP, wheelEvents, wheelRes := runSched(t, spec, SchedWheel)

			if wheelFP != heapFP {
				t.Errorf("wheel diverged from heap:\n--- heap ---\n%.2000s\n--- wheel ---\n%.2000s",
					heapFP, wheelFP)
			}
			if wheelEvents != heapEvents {
				t.Errorf("executed events: heap %d vs wheel %d", heapEvents, wheelEvents)
			}

			if !bytes.Equal(colBytes(t, heapRes), colBytes(t, wheelRes)) {
				t.Error("exported columnar trace differs between heap and wheel")
			}
		})
	}
}

// TestSchedBackendIdentityUnderFaults re-checks wheel-vs-heap identity with
// the fault-injection subsystem armed: flap timers, corruption draws and
// the PFC watchdog all schedule through the same API and must replay
// identically on both backends.
func TestSchedBackendIdentityUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism suite")
	}
	spec := shardSpec(0)
	spec.Name = "sched-det-faults"
	spec.Faults = &FaultSpec{
		Plan: faults.Plan{
			FlapRate:     40,
			FlapDowntime: 200 * sim.Microsecond,
			FlapWindow:   2 * sim.Millisecond,
			BER:          2e-9,
			PFCLossRate:  0.02,
		},
	}
	heapFP, heapEvents, heapRes := runSched(t, spec, SchedHeap)
	wheelFP, wheelEvents, _ := runSched(t, spec, SchedWheel)
	if heapRes.LinkDownEvents == 0 {
		t.Fatal("fault plan injected nothing")
	}
	if wheelFP != heapFP {
		t.Errorf("faulted wheel diverged from heap:\n--- heap ---\n%.2000s\n--- wheel ---\n%.2000s",
			heapFP, wheelFP)
	}
	if wheelEvents != heapEvents {
		t.Errorf("executed events: heap %d vs wheel %d", heapEvents, wheelEvents)
	}
}

// TestSchedBackendIdentityAcrossShards crosses the two invariance axes:
// {heap, wheel} × {1, 2, 4} shards must all land on one fingerprint. The
// wheel sits under the sharded conductor's conservative-time peeks
// (NextEventTime) and cross-shard arrival imports, so this pins the
// bucket/heap invariant where it is hardest to keep.
func TestSchedBackendIdentityAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism suite")
	}
	var ref string
	for _, sched := range []string{SchedHeap, SchedWheel} {
		for _, shards := range []int{1, 2, 4} {
			spec := shardSpec(shards)
			spec.Name = "sched-det-shards"
			fp, _, _ := runSched(t, spec, sched)
			if ref == "" {
				ref = fp
				continue
			}
			if fp != ref {
				t.Errorf("sched=%s shards=%d diverged from heap shards=1:\n--- ref ---\n%.2000s\n--- got ---\n%.2000s",
					sched, shards, ref, fp)
			}
		}
	}
}
