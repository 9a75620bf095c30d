package exp

import (
	"bytes"
	"context"
	"testing"

	"l2bm/internal/faults"
	"l2bm/internal/sim"
)

// The two scheduler configurations, by name. No spec can select the heap:
// it is the reference the production engine — heap plus delay lines — is
// held to, reached through runHybrid's engine-constructor parameter.
const (
	SchedLines = "lines"
	SchedHeap  = "heap"
)

// runSched executes one spec under the given scheduler backend and returns
// its full deterministic fingerprint plus the executed-event count (which,
// unlike the shard suite, must ALSO match across backends: the delay lines
// re-order nothing, they only re-home pending events).
func runSched(t *testing.T, spec HybridSpec, sched string) (string, uint64, *Result) {
	t.Helper()
	newEngine := sim.NewEngine
	if sched == SchedHeap {
		newEngine = sim.NewHeapEngine
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

// TestSchedBackendIdentity is the delay lines' acceptance test at the
// experiment layer: for figure-representative points, the production engine
// and the reference heap must produce byte-identical results — every
// observable, including exported trace files and the executed-event count.
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
			linesFP, linesEvents, linesRes := runSched(t, spec, SchedLines)

			if linesFP != heapFP {
				t.Errorf("lines diverged from heap:\n--- heap ---\n%.2000s\n--- lines ---\n%.2000s",
					heapFP, linesFP)
			}
			if linesEvents != heapEvents {
				t.Errorf("executed events: heap %d vs lines %d", heapEvents, linesEvents)
			}

			if !bytes.Equal(colBytes(t, heapRes), colBytes(t, linesRes)) {
				t.Error("exported columnar trace differs between heap and lines")
			}
		})
	}
}

// TestSchedBackendIdentityUnderFaults re-checks lines-vs-heap identity with
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
	linesFP, linesEvents, _ := runSched(t, spec, SchedLines)
	if heapRes.LinkDownEvents == 0 {
		t.Fatal("fault plan injected nothing")
	}
	if linesFP != heapFP {
		t.Errorf("faulted lines diverged from heap:\n--- heap ---\n%.2000s\n--- lines ---\n%.2000s",
			heapFP, linesFP)
	}
	if linesEvents != heapEvents {
		t.Errorf("executed events: heap %d vs lines %d", heapEvents, linesEvents)
	}
}

// TestSchedBackendIdentityAcrossShards crosses the two invariance axes:
// {heap, lines} × {1, 2, 4} shards must all land on one fingerprint. The
// lines sit under the sharded conductor's conservative-time peeks
// (NextEventTime) and cross-shard arrival imports, so this pins the
// line/heap order where it is hardest to keep.
func TestSchedBackendIdentityAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism suite")
	}
	var ref string
	for _, sched := range []string{SchedHeap, SchedLines} {
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
