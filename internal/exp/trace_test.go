package exp

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"l2bm/internal/colfmt"
	"l2bm/internal/sim"
	"l2bm/internal/trace"
)

// tracedTinySpec arms the flight recorder on the shared tiny smoke spec.
func tracedTinySpec(policy string) HybridSpec {
	s := tinySpec(policy)
	s.Trace = &TraceSpec{}
	return s
}

// TestTracedRunDoesNotPerturbSimulation is the observer-effect guarantee:
// arming the flight recorder must not change a single model-level outcome.
// The only permitted difference is the engine's executed-event count (the
// sampler's own ticks) — everything the paper's figures are built from must
// match exactly.
func TestTracedRunDoesNotPerturbSimulation(t *testing.T) {
	plain, err := RunHybrid(tinySpec("L2BM"))
	if err != nil {
		t.Fatal(err)
	}
	traced, err := RunHybrid(tracedTinySpec("L2BM"))
	if err != nil {
		t.Fatal(err)
	}
	if traced.Trace == nil {
		t.Fatal("traced run has no recorder")
	}
	if plain.Trace != nil {
		t.Fatal("untraced run grew a recorder")
	}

	if traced.FlowsStarted != plain.FlowsStarted || traced.FlowsCompleted != plain.FlowsCompleted {
		t.Errorf("flow counts diverged: traced %d/%d, plain %d/%d",
			traced.FlowsCompleted, traced.FlowsStarted, plain.FlowsCompleted, plain.FlowsStarted)
	}
	if traced.PauseFrames != plain.PauseFrames || traced.LossyDrops != plain.LossyDrops ||
		traced.ECNMarked != plain.ECNMarked || traced.LosslessViolations != plain.LosslessViolations {
		t.Errorf("switch counters diverged: traced pause=%d drops=%d ecn=%d viol=%d, plain pause=%d drops=%d ecn=%d viol=%d",
			traced.PauseFrames, traced.LossyDrops, traced.ECNMarked, traced.LosslessViolations,
			plain.PauseFrames, plain.LossyDrops, plain.ECNMarked, plain.LosslessViolations)
	}
	if traced.EndTime != plain.EndTime {
		t.Errorf("end time diverged: traced %v, plain %v", traced.EndTime, plain.EndTime)
	}
	if !reflect.DeepEqual(traced.RDMASlowdowns, plain.RDMASlowdowns) {
		t.Error("RDMA slowdowns diverged under tracing")
	}
	if !reflect.DeepEqual(traced.TCPSlowdowns, plain.TCPSlowdowns) {
		t.Error("TCP slowdowns diverged under tracing")
	}
	if !reflect.DeepEqual(traced.TorOccupancy, plain.TorOccupancy) {
		t.Error("ToR occupancy timelines diverged under tracing")
	}
	if traced.Events < plain.Events {
		t.Errorf("traced run fired fewer events (%d) than plain (%d)", traced.Events, plain.Events)
	}
	if st := traced.Trace.Stats(); st.OccSamples == 0 {
		t.Error("recorder armed but captured no occupancy samples")
	}
}

// TestTracedFigureOutputByteIdentical renders the same figure with tracing
// on and off: the emitted tables and progress lines must be byte-identical.
func TestTracedFigureOutputByteIdentical(t *testing.T) {
	var plain bytes.Buffer
	if _, _, err := NewHarness(1).Run("fig3a", ScaleTiny, nil, &plain); err != nil {
		t.Fatal(err)
	}

	h := NewHarness(1)
	h.Trace = &TraceSpec{}
	h.TraceDir = t.TempDir()
	var traced bytes.Buffer
	if _, _, err := h.Run("fig3a", ScaleTiny, nil, &traced); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(plain.Bytes(), traced.Bytes()) {
		t.Errorf("figure output diverged under tracing:\n--- plain ---\n%s\n--- traced ---\n%s",
			plain.String(), traced.String())
	}
	files, err := filepath.Glob(filepath.Join(h.TraceDir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Error("traced harness exported no artifacts")
	}
}

// TestHarnessReportsTraceEvictions: a point whose rings overflowed says how
// many rows it lost — on its Result (trace.Merge used to zero the counts) and,
// summed, on the harness — and a recording that fits reports none.
func TestHarnessReportsTraceEvictions(t *testing.T) {
	for _, tc := range []struct {
		capacity  int
		fidelity  string
		wantEvict bool
	}{{8, FidelityPacket, true}, {8, FidelityHybrid, true}, {0, FidelityPacket, false}} {
		h := NewHarness(1)
		spec := tracedTinySpec("L2BM")
		spec.Trace.Capacity, spec.Fidelity = tc.capacity, tc.fidelity
		spec.Shards = 1 // the row count below is one recorder's; each shard has its own
		results, err := h.runAll([]HybridSpec{spec, spec}, nil)
		if err != nil {
			t.Fatal(err)
		}
		st := results[0].Trace.Stats()
		if got := st.Evicted() > 0; got != tc.wantEvict {
			t.Errorf("capacity %d, %s: point stats %+v, evictions reported = %v, want %v", tc.capacity, tc.fidelity, st, got, tc.wantEvict)
		}
		if tc.wantEvict && st.OccSamples != 8 {
			t.Errorf("capacity 8 kept %d occupancy rows", st.OccSamples)
		}
		if got, want := h.TraceRowsEvicted(), 2*st.Evicted(); got != want {
			t.Errorf("capacity %d: harness counts %d evicted rows over two identical points, want %d", tc.capacity, got, want)
		}
	}
}

// TestTracedRunsProduceByteIdenticalTraceFiles replays one traced point and
// diffs the exported artifact byte-for-byte: the recorder's rings and the
// exporter's ordering must be deterministic.
func TestTracedRunsProduceByteIdenticalTraceFiles(t *testing.T) {
	spec := tracedTinySpec("L2BM")
	spec.Trace.SampleEvery = 50 * sim.Microsecond

	export := func() []byte {
		t.Helper()
		res, err := RunHybrid(spec)
		if err != nil {
			t.Fatal(err)
		}
		return colBytes(t, res)
	}

	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Errorf("exported trace differs between identical traced runs (%d vs %d bytes)", len(a), len(b))
	}
	// The occupancy timeline must carry data: an empty trace would make the
	// byte-diff vacuous.
	d, err := colfmt.Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	if occ := d.Channel(trace.ColOccupancy); occ == nil || occ.Rows() < 3 {
		t.Errorf("occupancy channel nearly empty: %v", occ)
	}
}

// TestTraceFileStemShape pins the deterministic artifact naming.
func TestTraceFileStemShape(t *testing.T) {
	res := &Result{Spec: tinySpec("L2BM"), Policy: "L2BM"}
	if got, want := res.TraceFileStem(), "smoke-l2bm-r40-t40"; got != want {
		t.Errorf("stem = %q, want %q", got, want)
	}
	spec := tinySpec("DT")
	spec.Incast = &IncastSpec{Fanout: 8}
	res = &Result{Spec: spec, Policy: "DT"}
	if got, want := res.TraceFileStem(), "smoke-dt-r40-t40-n8"; got != want {
		t.Errorf("stem = %q, want %q", got, want)
	}
}
