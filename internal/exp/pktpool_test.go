package exp

import (
	"bytes"
	"reflect"
	"testing"

	"l2bm/internal/sim"
	"l2bm/internal/topo"
)

// disablePool is the pool-disabled control arm: packets come straight off
// the heap, exactly the pre-pool behaviour.
func disablePool(c *topo.Config) { c.DisablePacketPool = true }

// stripPoolFields removes everything that legitimately differs between a
// pooled run and its pool-disabled control: the pool counters, the recorder
// pointer (trace files are diffed separately), and the spec (which carries
// the TopoOverride closure). Everything else — every figure-level metric,
// the event count, the end time — must match exactly.
func stripPoolFields(r *Result) Result {
	c := *r
	c.PoolGets, c.PoolLive = 0, 0
	c.Trace = nil
	c.Spec = HybridSpec{}
	return c
}

// TestPooledFig7PointByteIdentical is the tentpole's hard constraint on a
// Fig. 7 point: a pooled run and a pool-disabled run must be byte-identical
// — same Result down to every metric, and a byte-for-byte identical exported
// trace. Pooling is a memory-management change, never a model change.
func TestPooledFig7PointByteIdentical(t *testing.T) {
	base := HybridSpec{
		Name: "fig7", Policy: "L2BM", Scale: ScaleTiny,
		RDMALoad: 0.4, TCPLoad: 0.6,
		Trace: &TraceSpec{SampleEvery: 50 * sim.Microsecond},
	}

	run := func(override func(*topo.Config)) (*Result, []byte) {
		t.Helper()
		spec := base
		spec.TopoOverride = override
		res, err := RunHybrid(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res, colBytes(t, res)
	}

	pooled, pooledCol := run(nil)
	plain, plainCol := run(disablePool)

	// The two arms must actually be different configurations.
	if pooled.PoolGets == 0 {
		t.Fatal("pooled run checked out no packets — pool not wired")
	}
	if plain.PoolGets != 0 {
		t.Fatal("pool-disabled run still used a pool")
	}

	if a, b := stripPoolFields(pooled), stripPoolFields(plain); !reflect.DeepEqual(a, b) {
		t.Errorf("pooled and pool-disabled results diverged:\n  pooled: %+v\n  plain:  %+v", a, b)
	}
	if !bytes.Equal(pooledCol, plainCol) {
		t.Errorf("exported columnar trace differs between pooled and pool-disabled runs (%d vs %d bytes)",
			len(pooledCol), len(plainCol))
	}
}

// TestPooledFaultPointIdentical repeats the byte-identity check on a
// fault-tolerance point: recycling must survive retransmissions, corrupted
// frames, carrier drops and go-back-N rewinds without perturbing a single
// recovery counter.
func TestPooledFaultPointIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fault scenario twice")
	}
	base := HybridSpec{
		Name: "faults", Policy: "L2BM", Scale: ScaleTiny,
		RDMALoad: 0.4, TCPLoad: 0.4,
		DrainOverride: FaultDrain * ScaleTiny.Window(),
		Faults:        DefaultFaultScenario(ScaleTiny),
	}
	run := func(override func(*topo.Config)) *Result {
		t.Helper()
		spec := base
		spec.TopoOverride = override
		res, err := RunHybrid(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pooled := run(nil)
	plain := run(disablePool)
	if pooled.PoolGets == 0 || plain.PoolGets != 0 {
		t.Fatalf("arm mixup: pooled gets=%d, plain gets=%d", pooled.PoolGets, plain.PoolGets)
	}
	if a, b := stripPoolFields(pooled), stripPoolFields(plain); !reflect.DeepEqual(a, b) {
		t.Errorf("fault-point results diverged between pooled and pool-disabled runs:\n  pooled: %+v\n  plain:  %+v", a, b)
	}
}

// TestPooledRunAuditBalances is the leak audit: with the debug pool armed,
// every Get must be matched by exactly one Put once the fabric drains (the
// packet-level analogue of switchsim's CheckDrained). A fully completed tiny
// run leaves zero packets checked out; a leak here means some sink forgot
// to recycle or some path dropped a frame on the floor.
func TestPooledRunAuditBalances(t *testing.T) {
	spec := tinySpec("L2BM")
	spec.TopoOverride = func(c *topo.Config) { c.PacketPoolDebug = true }
	res, err := RunHybrid(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.PoolGets == 0 {
		t.Fatal("debug pool saw no traffic")
	}
	if len(res.Incomplete) != 0 {
		t.Fatalf("tiny smoke run no longer drains (%d incomplete flows); audit needs a drained run",
			len(res.Incomplete))
	}
	if res.PoolLive != 0 {
		t.Errorf("pool audit: %d packets still checked out after a drained run (of %d gets)",
			res.PoolLive, res.PoolGets)
	}
	if len(res.AuditErrors) != 0 {
		t.Errorf("MMU audit errors alongside pool audit: %v", res.AuditErrors)
	}
}

// TestShardedPoolsAllocateLikeOneEngine: splitting a run across shards must
// not make its packet pools allocate for the traffic that crossed a shard
// boundary. A frame dies in the pool of the shard it was delivered to, so
// without the lanes handing spares back a sender allocates afresh for every
// frame it ever sent across; with them the fleet's fresh allocations follow
// what is in flight, as one engine's do. The counts are exact, so the bound
// does not depend on timing.
func TestShardedPoolsAllocateLikeOneEngine(t *testing.T) {
	news := func(shards int) uint64 {
		spec := HybridSpec{Name: "b", Policy: "L2BM", Scale: ScaleTiny, RDMALoad: 0.4, TCPLoad: 0.8,
			Incast: &IncastSpec{Fanout: 16, RequestBytes: 1 << 20, QueryRate: 3000}, Shards: shards}
		var cl *topo.Cluster
		spec.Hooks = &RunHooks{PostBuild: func(c *topo.Cluster) { cl = c }}
		if _, err := RunHybrid(spec); err != nil {
			t.Fatal(err)
		}
		if len(cl.Pools) != shards {
			t.Fatalf("Shards %d built %d pools", shards, len(cl.Pools))
		}
		var sum uint64
		for _, pl := range cl.Pools {
			sum += pl.Stats().News
		}
		return sum
	}
	one, two := news(1), news(2)
	t.Logf("fresh packets: %d on one engine, %d over two shards (%.3fx)", one, two, float64(two)/float64(one))
	if two*100 > one*105 {
		t.Errorf("two shards allocated %d fresh packets, one engine %d: want at most 1.05x", two, one)
	}
}
