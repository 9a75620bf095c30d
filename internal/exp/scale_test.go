package exp

import (
	"context"
	"runtime"
	"testing"

	"l2bm/internal/topo"
)

// TestScale10kLiveHeap is the memory gate of the workload "where memory is
// the headline": the -exp scale point on the 10,240-host fabric, with the
// cluster (and through it the engine and every port) kept alive past the
// run. What is then live is what a running fabric retains — ports, switch
// counter tables, hosts, the engine's heap and delay-line rings, the event
// and packet pools — and it must stay proportional to what the run used, not
// to what the fabric provisions: 21,840 ports of which under a tenth carry a
// frame.
// Measured 18.7 MB over ten shards (17.7 MB on one engine) against a 22 MB
// limit. It read 26.8 MB while shard pools kept every packet that crossed
// into them and every switch port held MMU cells for all eight priorities;
// with every port provisioning eight queues, eight pause clocks and eight
// scheduler credits and every slot of the since-removed timer wheel keeping
// its high-water array it was 45 MB.
func TestScale10kLiveHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-host run in -short")
	}
	cfg, err := HyperscaleFor(ScaleSmall).Config()
	if err != nil {
		t.Fatal(err)
	}
	spec := scaleSpec(ScaleSmall, cfg)
	var cl *topo.Cluster
	spec.Hooks = &RunHooks{PostBuild: func(c *topo.Cluster) { cl = c }}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := RunHybridCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if cl == nil || len(cl.Hosts) != cfg.Hosts() || res.FlowsCompleted == 0 {
		t.Fatalf("the run did not build and drive the 10k-host fabric: cluster %v, %d flows", cl != nil, res.FlowsCompleted)
	}
	live := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	const limit = 22 << 20
	t.Logf("live heap across build + run, cluster retained: %.1f MB", live/(1<<20))
	if live > limit {
		t.Fatalf("%.1f MB live after the scale_10k point, want <= %d MB", live/(1<<20), limit>>20)
	}
	runtime.KeepAlive(cl)
}
