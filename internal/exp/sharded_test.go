package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"l2bm/internal/core"
	"l2bm/internal/faults"
	"l2bm/internal/sim"
	"l2bm/internal/topo"
)

// shardFingerprint serializes every deterministic observable of a Result,
// Events included (one simulated event, one count — whatever the shard
// count), apart from the raw Trace pointer (compared separately via exported
// files).
func shardFingerprint(res *Result) string {
	s := fmt.Sprintf("rdma=%v tcp=%v incast=%v queries=%v\n",
		res.RDMASlowdowns, res.TCPSlowdowns, res.IncastSlowdowns, res.QueryDelays)
	s += fmt.Sprintf("flows=%d/%d gaps=%d end=%v events=%d\n",
		res.FlowsStarted, res.FlowsCompleted, res.LosslessGaps, res.EndTime, res.Events)
	s += fmt.Sprintf("pause=%d/%d/%d/%d drops=%d evict=%d viol=%d ecn=%d reissue=%d\n",
		res.PauseFrames, res.ToRPauseFrames, res.AggPauseFrames, res.CorePauseFrames,
		res.LossyDrops, res.LossyEvictions, res.LosslessViolations, res.ECNMarked, res.PFCReissues)
	s += fmt.Sprintf("recov=%d nacks=%d tmo=%d down=%d corrupt=%d lostpfc=%d carrier=%d stalls=%d cycles=%d broken=%d\n",
		res.RecoveryBytes, res.RDMANACKs, res.RDMATimeouts, res.LinkDownEvents,
		res.CorruptedFrames, res.LostPFC, res.CarrierDrops,
		res.WatchdogStalls, res.DeadlockCycles, res.DeadlocksBroken)
	s += fmt.Sprintf("audit=%v poolLive=%d\n", res.AuditErrors, res.PoolLive)
	for i, tr := range res.TorOccupancy {
		s += fmt.Sprintf("tor%d=%v\n", i, tr)
	}
	for _, fr := range res.Incomplete {
		s += fmt.Sprintf("inc=%d\n", fr.Flow.ID)
	}
	return s
}

// shardSpec is the shared data point for the shard-determinism suite:
// ScaleSmall has four ToRs (legal shard counts 1, 2 and 4), hybrid RDMA +
// TCP + incast traffic, and a short overridden window to keep CI fast.
func shardSpec(shards int) HybridSpec {
	return HybridSpec{
		Name:           "shards-det",
		Policy:         "L2BM",
		Scale:          ScaleSmall,
		RDMALoad:       0.4,
		TCPLoad:        0.5,
		Incast:         &IncastSpec{Fanout: 5, RequestBytes: 200_000, QueryRate: 2000},
		WindowOverride: 2 * sim.Millisecond,
		DrainOverride:  10 * sim.Millisecond,
		Shards:         shards,
	}
}

// TestShardCountInvariance is the tentpole acceptance test: the same data
// point run at 1, 2 and 4 shards must produce byte-identical results,
// including the exported columnar trace.
func TestShardCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism suite")
	}
	cols := map[int][]byte{}
	prints := map[int]string{}
	for _, shards := range []int{1, 2, 4} {
		spec := shardSpec(shards)
		spec.Trace = &TraceSpec{SampleEvery: 100 * sim.Microsecond, Capacity: 1 << 17}
		res, err := RunHybrid(spec)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.FlowsCompleted == 0 {
			t.Fatalf("shards=%d: no flows completed", shards)
		}
		if len(res.AuditErrors) > 0 {
			t.Fatalf("shards=%d: audit errors: %v", shards, res.AuditErrors)
		}
		prints[shards] = shardFingerprint(res)
		cols[shards] = colBytes(t, res)
	}

	for _, shards := range []int{2, 4} {
		if prints[shards] != prints[1] {
			t.Errorf("shards=%d diverged from shards=1:\n--- 1 ---\n%.2000s\n--- %d ---\n%.2000s",
				shards, prints[1], shards, prints[shards])
		}
		if !bytes.Equal(cols[shards], cols[1]) {
			t.Errorf("shards=%d: columnar trace differs from shards=1", shards)
		}
	}
}

// TestShardCountInvarianceRegistrySweep runs every registered policy —
// the paper's four plus the related work, including the stateful BShare
// (sojourn table) and preemptive Occamy — through the same data point at
// 1 and 2 shards. Shard count is an execution strategy, never a workload
// parameter, so every observable must be byte-identical per policy.
func TestShardCountInvarianceRegistrySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism suite")
	}
	for _, pol := range core.RegisteredPolicies() {
		pol := pol
		t.Run(pol, func(t *testing.T) {
			t.Parallel()
			prints := map[int]string{}
			for _, shards := range []int{1, 2} {
				spec := HybridSpec{
					Name:     "shards-det-registry",
					Policy:   pol,
					Scale:    ScaleTiny,
					RDMALoad: 0.4,
					TCPLoad:  0.6,
					Incast:   &IncastSpec{Fanout: 4, RequestBytes: 200_000, QueryRate: 2000},
					Audit:    &AuditSpec{},
					Shards:   shards,
				}
				res, err := RunHybrid(spec)
				if err != nil {
					t.Fatalf("%s shards=%d: %v", pol, shards, err)
				}
				if res.FlowsCompleted == 0 {
					t.Fatalf("%s shards=%d: no flows completed", pol, shards)
				}
				if len(res.AuditErrors) > 0 {
					t.Fatalf("%s shards=%d: audit errors: %v", pol, shards, res.AuditErrors)
				}
				prints[shards] = shardFingerprint(res)
			}
			if prints[2] != prints[1] {
				t.Errorf("%s: shards=2 diverged from shards=1:\n--- 1 ---\n%.2000s\n--- 2 ---\n%.2000s",
					pol, prints[1], prints[2])
			}
		})
	}
}

// colBytes renders res's one export — every flight-recorder channel and
// metrics series (WriteCol) — for byte comparison.
func colBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteCol(&buf); err != nil {
		t.Fatalf("WriteCol: %v", err)
	}
	if res.Trace != nil && buf.Len() == 0 {
		t.Fatal("traced run exported nothing")
	}
	return buf.Bytes()
}

// TestShardCountInvarianceUnderFaults re-runs the invariance check with the
// fault-injection subsystem armed: link flaps, frame corruption, PFC loss
// and the barrier-driven detector/watchdog all replay identically across
// shard counts.
func TestShardCountInvarianceUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism suite")
	}
	prints := map[int]string{}
	for _, shards := range []int{1, 2, 4} {
		spec := shardSpec(shards)
		spec.Name = "shards-det-faults"
		spec.Faults = &FaultSpec{
			Plan: faults.Plan{
				FlapRate:     40,
				FlapDowntime: 200 * sim.Microsecond,
				FlapWindow:   2 * sim.Millisecond,
				BER:          2e-9,
				PFCLossRate:  0.02,
			},
		}
		res, err := RunHybrid(spec)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.LinkDownEvents == 0 {
			t.Fatalf("shards=%d: fault plan injected nothing", shards)
		}
		prints[shards] = shardFingerprint(res)
	}
	for _, shards := range []int{2, 4} {
		if prints[shards] != prints[1] {
			t.Errorf("faulted shards=%d diverged from shards=1:\n--- 1 ---\n%.2000s\n--- %d ---\n%.2000s",
				shards, prints[1], shards, prints[shards])
		}
	}
}

// TestShardsZeroIsOne: a self-sized run (Shards 0: one engine per pod where
// the machine has the cores and the fabric the hosts; see
// TestResultBytesShardInvariant for fabrics that do) and Shards 1 differ in
// execution strategy only,
// so the whole Result — Events included — and the exported trace are equal
// byte for byte, and the two specs share a cache entry. The rows are the pinned
// shapes that arm global observers: audited + traced, faulted with the
// detector's forced resumes on, and both at once.
func TestShardsZeroIsOne(t *testing.T) {
	points := map[string]HybridSpec{}
	for _, p := range pinnedPoints() {
		points[p.spec.Name] = p.spec
	}
	both := points["zz-faults"]
	both.Name, both.Audit = "zz-audited-faults", &AuditSpec{}
	for _, spec := range []HybridSpec{points["zz-observed"], points["zz-faults"], both} {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			var body, col [2][]byte
			var key [2]string
			var events [2]uint64
			for shards := range body {
				spec.Shards = shards
				res, err := RunHybrid(spec)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if spec.Audit != nil && res.AuditChecks < 2 || spec.Faults != nil && res.DeadlockScans == 0 {
					t.Fatalf("shards=%d: no observer ever fired", shards)
				}
				if body[shards], err = json.Marshal(res); err != nil {
					t.Fatal(err)
				}
				col[shards], events[shards] = colBytes(t, res), res.Events
				plain := spec // the key of the spec's plain-data part
				plain.TopoOverride, plain.Trace = nil, nil
				if key[shards], err = CacheKey(plain); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(body[0], body[1]) {
				t.Errorf("json.Marshal(Result) differs (Events %d at Shards 0, %d at Shards 1)", events[0], events[1])
			}
			if !bytes.Equal(col[0], col[1]) {
				t.Error("WriteCol bytes differ between Shards 0 and Shards 1")
			}
			if key[0] != key[1] {
				t.Errorf("CacheKey: %s at Shards 0, %s at Shards 1", key[0], key[1])
			}
		})
	}
}

// TestShardedMatchesClassicClean: TestShardsZeroIsOne's equality at
// ScaleSmall (four ToRs), clean and under each kind of global observer
// (Events rides in the fingerprint).
func TestShardedMatchesClassicClean(t *testing.T) {
	flaps := &FaultSpec{
		Plan: faults.Plan{
			FlapRate:     40,
			FlapDowntime: 200 * sim.Microsecond,
			FlapWindow:   2 * sim.Millisecond,
			BER:          2e-9,
			PFCLossRate:  0.02,
		},
		DetectorPeriod: 50 * sim.Microsecond,
		WatchdogWindow: 300 * sim.Microsecond,
	}
	for _, row := range []struct {
		name   string
		audit  *AuditSpec
		faults *FaultSpec
	}{
		{name: "clean"},
		{name: "audited", audit: &AuditSpec{}},
		{name: "faulted", faults: flaps},
		{name: "audited+faulted", audit: &AuditSpec{}, faults: flaps},
	} {
		t.Run(row.name, func(t *testing.T) {
			if testing.Short() && row.name != "clean" {
				t.Skip("multi-run determinism suite")
			}
			t.Parallel()
			run := func(shards int) *Result {
				spec := shardSpec(shards)
				spec.Audit, spec.Faults = row.audit, row.faults
				res, err := RunHybrid(spec)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				return res
			}
			classic, sharded := run(0), run(1)
			if shardFingerprint(classic) != shardFingerprint(sharded) {
				t.Errorf("sharded(1) diverged from classic:\n--- classic ---\n%.2000s\n--- sharded ---\n%.2000s",
					shardFingerprint(classic), shardFingerprint(sharded))
			}
			if classic.AuditChecks != sharded.AuditChecks || classic.DeadlockScans != sharded.DeadlockScans {
				t.Errorf("observer firings: classic %d sweeps / %d scans vs sharded(1) %d / %d",
					classic.AuditChecks, classic.DeadlockScans, sharded.AuditChecks, sharded.DeadlockScans)
			}
			if (row.audit != nil && classic.AuditChecks < 2) || (row.faults != nil && classic.DeadlockScans == 0) {
				t.Fatal("no observer ever fired")
			}
			if classic.Events != sharded.Events {
				t.Errorf("Events: classic %d, sharded(1) %d, want equal", classic.Events, sharded.Events)
			}
		})
	}
}

// TestTruncatedFlowsAcrossShards: flows still in flight at window + drain
// are surfaced as Result.TruncatedFlows, and the classic and sharded paths
// must agree exactly for every legal shard count — truncation accounting is
// part of the result, not an engine artifact. The spec's short drain
// guarantees mid-transfer elephants are actually cut (the regression this
// pins: the classic path used to absorb them silently into in-flight
// bytes).
func TestTruncatedFlowsAcrossShards(t *testing.T) {
	spec := shardSpec(0)
	spec.DrainOverride = 500 * sim.Microsecond
	classic, err := RunHybrid(spec)
	if err != nil {
		t.Fatal(err)
	}
	if classic.TruncatedFlows == 0 {
		t.Fatalf("spec did not truncate any flows (started %d, completed %d) — drain too long for the regression to bite",
			classic.FlowsStarted, classic.FlowsCompleted)
	}
	if got, want := classic.TruncatedFlows, classic.FlowsStarted-classic.FlowsCompleted; got != want {
		t.Errorf("classic TruncatedFlows = %d, want started−completed = %d", got, want)
	}
	for _, shards := range []int{1, 2, 4} {
		s := spec
		s.Shards = shards
		res, err := RunHybrid(s)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.TruncatedFlows != classic.TruncatedFlows {
			t.Errorf("shards=%d: TruncatedFlows = %d, classic = %d",
				shards, res.TruncatedFlows, classic.TruncatedFlows)
		}
		if res.FlowsStarted != classic.FlowsStarted || res.FlowsCompleted != classic.FlowsCompleted {
			t.Errorf("shards=%d: flow counts (%d started, %d completed) diverged from classic (%d, %d)",
				shards, res.FlowsStarted, res.FlowsCompleted, classic.FlowsStarted, classic.FlowsCompleted)
		}
	}
}

// TestResultBytesShardInvariant: the shard count — which a self-sized run
// takes from the machine — never reaches a result's bytes. json.Marshal(Result)
// and the WriteCol export are equal at Shards 0, 1, 2 and 4 (0, 1 and 2 on the
// two-ToR tiny fabric) for the traced incast point of the determinism suite
// (incast replica + per-shard trace sampler), the same traffic on four pods
// (Shards 0 is four shards, claimed by fewer threads at -cpu 2), the pinned
// zz-observed point (auditor on the barrier), an audited + faulted point
// (injector replica, detector, watchdog) and two hybrid-fidelity points, the
// pinned zz-hybrid and an audited, traced incast one at ScaleSmall, whose
// packet segments run on every shard count in turn (shard logs drained per
// slice, per-shard occupancy chains). Before Result.Events counted a
// replicated tick chain once, every packet row here differed in Events alone.
func TestResultBytesShardInvariant(t *testing.T) {
	traced := shardSpec(0)
	traced.Trace = &TraceSpec{SampleEvery: 100 * sim.Microsecond, Capacity: 1 << 17}
	faulted := shardSpec(0)
	faulted.Name, faulted.Audit = "shards-det-audited-faults", &AuditSpec{}
	faulted.Faults = &FaultSpec{
		Plan: faults.Plan{
			FlapRate:     40,
			FlapDowntime: 200 * sim.Microsecond,
			FlapWindow:   2 * sim.Millisecond,
			BER:          2e-9,
			PFCLossRate:  0.02,
		},
		DetectorPeriod: 50 * sim.Microsecond,
		WatchdogWindow: 300 * sim.Microsecond,
	}
	hybrid := shardSpec(0)
	hybrid.Name, hybrid.Fidelity = "shards-det-hybrid", FidelityHybrid
	hybrid.RDMALoad, hybrid.TCPLoad, hybrid.WindowOverride = 0.05, 0.05, 20*sim.Millisecond
	hybrid.Audit, hybrid.Trace = &AuditSpec{}, traced.Trace
	// Four pods of 16 hosts: Shards 0 is a shard per pod, and on fewer cores
	// than pods its threads claim them.
	pods := shardSpec(0)
	pods.Name = "shards-det-4pods"
	pods.TopoOverride = func(c *topo.Config) { c.Pods, c.ToRCount, c.AggCount, c.ServersPerToR = 4, 4, 4, 16 }
	pinned := map[string]HybridSpec{}
	for _, p := range pinnedPoints() {
		pinned[p.spec.Name] = p.spec
	}
	for _, row := range []struct {
		spec   HybridSpec
		counts []int
	}{
		{traced, []int{0, 1, 2, 4}},
		{pods, []int{0, 1, 2, 4}},
		{pinned["zz-observed"], []int{0, 1, 2}},
		{faulted, []int{0, 1, 2, 4}},
		{pinned["zz-hybrid"], []int{0, 1, 2}},
		{hybrid, []int{0, 1, 2, 4}},
	} {
		t.Run(row.spec.Name, func(t *testing.T) {
			t.Parallel()
			var body, col []byte
			var events uint64
			for _, shards := range row.counts {
				spec := row.spec
				spec.Shards = shards
				res, err := RunHybrid(spec)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if spec.Fidelity == FidelityHybrid && (res.PacketSegments == 0 || res.FluidFlows == 0) {
					t.Fatalf("shards=%d: %d packet segments, %d fluid flows: not a hybrid run", shards, res.PacketSegments, res.FluidFlows)
				}
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				c := colBytes(t, res)
				if shards == row.counts[0] {
					body, col, events = b, c, res.Events
					continue
				}
				if !bytes.Equal(b, body) {
					t.Errorf("shards=%d: json.Marshal(Result) differs from shards=%d (Events %d vs %d)",
						shards, row.counts[0], res.Events, events)
				}
				if !bytes.Equal(c, col) {
					t.Errorf("shards=%d: WriteCol bytes differ from shards=%d", shards, row.counts[0])
				}
			}
		})
	}
}
