package topo

import (
	"testing"

	"l2bm/internal/host"
	"l2bm/internal/sim"
)

// TestComputePartitionShape checks the pod/ToR-granularity map on the
// paper-scale config: contiguous ToR bands, hosts following their rack,
// aggs dealt across their pod's shards, cores spread evenly.
func TestComputePartitionShape(t *testing.T) {
	cfg := DefaultConfig() // 2 pods, 4 ToRs, 4 aggs, 2 cores
	p, err := ComputePartition(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantToR := []int{0, 0, 1, 1}
	for i, w := range wantToR {
		if p.ToR[i] != w {
			t.Errorf("ToR[%d] = %d, want %d", i, p.ToR[i], w)
		}
	}
	for h := range p.Host {
		if p.Host[h] != p.ToR[h/cfg.ServersPerToR] {
			t.Errorf("host %d shard %d does not follow its ToR", h, p.Host[h])
		}
	}
	// Pod 0 aggs (0,1) belong to pod 0's shard band; pod 1 aggs to pod 1's.
	wantAgg := []int{0, 0, 1, 1}
	for i, w := range wantAgg {
		if p.Agg[i] != w {
			t.Errorf("Agg[%d] = %d, want %d", i, p.Agg[i], w)
		}
	}
	wantCore := []int{0, 1}
	for i, w := range wantCore {
		if p.Core[i] != w {
			t.Errorf("Core[%d] = %d, want %d", i, p.Core[i], w)
		}
	}
}

// TestComputePartitionBounds rejects shard counts outside [1, ToRCount].
func TestComputePartitionBounds(t *testing.T) {
	cfg := TinyConfig() // 2 ToRs
	if _, err := ComputePartition(cfg, 0); err == nil {
		t.Error("shards=0 accepted")
	}
	if _, err := ComputePartition(cfg, 3); err == nil {
		t.Error("shards=3 > ToRCount=2 accepted")
	}
	for s := 1; s <= 2; s++ {
		if _, err := ComputePartition(cfg, s); err != nil {
			t.Errorf("shards=%d rejected: %v", s, err)
		}
	}
}

// TestComputePartitionEveryShardOwnsARack: each shard must own at least one
// ToR for every legal shard count, so no engine sits idle by construction.
func TestComputePartitionEveryShardOwnsARack(t *testing.T) {
	cfg := DefaultConfig()
	for s := 1; s <= cfg.ToRCount; s++ {
		p, err := ComputePartition(cfg, s)
		if err != nil {
			t.Fatalf("shards=%d: %v", s, err)
		}
		owned := make([]bool, s)
		for _, sh := range p.ToR {
			owned[sh] = true
		}
		for sh, ok := range owned {
			if !ok {
				t.Errorf("shards=%d: shard %d owns no ToR", s, sh)
			}
		}
	}
}

// TestBuildShardedWiring verifies the sharded build's invariants: engine
// affinity follows the partition, there is one lane per ordered shard pair
// some cable crosses, the lookahead equals the smallest cross-shard
// propagation delay, and arrival keys are wiring-order identical to the
// classic build.
func TestBuildShardedWiring(t *testing.T) {
	cfg := DefaultConfig()
	part, err := ComputePartition(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	engines := []*sim.Engine{sim.NewEngine(7), sim.NewEngine(7)}
	cl, err := BuildSharded(engines, part, cfg, dtFactory,
		func(int) host.CompletionHandler { return nil })
	if err != nil {
		t.Fatal(err)
	}

	// Engine affinity follows the partition on every tier.
	for h, hst := range cl.Hosts {
		if hst.NIC().Engine() != engines[part.Host[h]] {
			t.Fatalf("host %d NIC on wrong engine", h)
		}
	}
	for t2, sw := range cl.ToRs {
		if sw.Port(0).Engine() != engines[part.ToR[t2]] {
			t.Fatalf("tor %d ports on wrong engine", t2)
		}
	}

	// One lane per crossed ordered shard pair, listed under its receiving
	// shard; a one-engine build has none.
	checkLanes := func(cl *Cluster) {
		t.Helper()
		wantIn := make([]int, cl.Part.Shards)
		crossed := map[[2]int]bool{}
		for _, l := range cl.Links() {
			if l.CrossShard() && !crossed[[2]int{l.AShard, l.BShard}] {
				crossed[[2]int{l.AShard, l.BShard}], crossed[[2]int{l.BShard, l.AShard}] = true, true
				wantIn[l.AShard]++
				wantIn[l.BShard]++
			}
		}
		if cl.Part.Shards > 1 && len(crossed) == 0 {
			t.Fatalf("no cross-shard links in a %d-shard default build", cl.Part.Shards)
		}
		for s, in := range cl.Inbound() {
			if len(in) != wantIn[s] {
				t.Errorf("%d shards: shard %d receives on %d lanes, want %d", cl.Part.Shards, s, len(in), wantIn[s])
			}
		}
	}
	checkLanes(cl)
	checkLanes(MustBuild(sim.NewEngine(7), cfg, dtFactory, nil))

	// Lookahead is the smallest cross-shard propagation delay. At 2 shards
	// pods stay whole, so only agg-core trunks (5 µs) cross; at 4 shards
	// pods split and ToR-agg cables (1 µs) cross too.
	if cl.Lookahead != cfg.AggCoreDelay {
		t.Fatalf("Lookahead = %v, want %v", cl.Lookahead, cfg.AggCoreDelay)
	}
	part4, err := ComputePartition(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng4 := []*sim.Engine{sim.NewEngine(7), sim.NewEngine(7), sim.NewEngine(7), sim.NewEngine(7)}
	cl4, err := BuildSharded(eng4, part4, cfg, dtFactory,
		func(int) host.CompletionHandler { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if cl4.Lookahead != cfg.TorAggDelay {
		t.Fatalf("4-shard Lookahead = %v, want %v", cl4.Lookahead, cfg.TorAggDelay)
	}
	checkLanes(cl4)

	// Arrival keys are a pure function of wiring order: identical between
	// the classic and sharded builds, and unique across ports.
	classic := MustBuild(sim.NewEngine(7), cfg, dtFactory, nil)
	seen := map[uint64]bool{}
	for i, l := range cl.Links() {
		cla := classic.Links()[i]
		if l.A.ArrivalKey() != cla.A.ArrivalKey() || l.B.ArrivalKey() != cla.B.ArrivalKey() {
			t.Fatalf("link %s: arrival keys differ between classic and sharded builds", l.Name)
		}
		for _, k := range []uint64{l.A.ArrivalKey(), l.B.ArrivalKey()} {
			if k == 0 || seen[k] {
				t.Fatalf("link %s: key %d zero or duplicated", l.Name, k)
			}
			seen[k] = true
		}
	}
}

// TestBuildShardedNeedsLookahead: a sharded build with a zero fabric delay
// has no lookahead and must be rejected, not wedged.
func TestBuildShardedNeedsLookahead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TorAggDelay = 0
	part, err := ComputePartition(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	engines := []*sim.Engine{sim.NewEngine(1), sim.NewEngine(1)}
	if _, err := BuildSharded(engines, part, cfg, dtFactory,
		func(int) host.CompletionHandler { return nil }); err == nil {
		t.Fatal("zero-lookahead sharded build accepted")
	}
}
