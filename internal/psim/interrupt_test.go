package psim

import (
	"runtime"
	"sync/atomic"
	"testing"

	"l2bm/internal/host"
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/topo"
	"l2bm/internal/transport"
)

// TestConductorInterrupt: an interrupt poll flipping true abandons the run
// early — the conductor clock never reaches the horizon — for both the
// single-engine and sharded conductor paths. The poll must be goroutine-
// safe (shard workers check it concurrently), hence the atomic.
func TestConductorInterrupt(t *testing.T) {
	for _, shards := range []int{1, 2} {
		cfg := topo.TinyConfig()
		part, err := topo.ComputePartition(cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		engines := make([]*sim.Engine, shards)
		for i := range engines {
			engines[i] = sim.NewEngine(11)
		}
		cl, err := topo.BuildSharded(engines, part, cfg, dtFactory,
			func(int) host.CompletionHandler { return nil })
		if err != nil {
			t.Fatal(err)
		}
		cl.StartFlow(&transport.Flow{
			ID: 1, Src: 0, Dst: cl.NumHosts() - 1, Size: 10_000_000,
			Priority: pkt.PrioLossless, Class: pkt.ClassLossless,
		})

		c := ForCluster(cl, runtime.GOMAXPROCS(0))
		var stop atomic.Bool
		c.AddTask(50*sim.Microsecond, func(now sim.Time) {
			if now >= sim.Time(200*sim.Microsecond) {
				stop.Store(true)
			}
		})
		c.SetInterrupt(64, func() bool { return stop.Load() })
		c.Run(100 * sim.Millisecond)
		c.Close()

		now := c.Now()
		if now >= sim.Time(100*sim.Millisecond) {
			t.Errorf("shards=%d: interrupt ignored, clock ran to %v", shards, now)
		}
		if now < sim.Time(200*sim.Microsecond) {
			t.Errorf("shards=%d: stopped at %v, before the poll could flip", shards, now)
		}
	}
}

// TestConductorInterruptObserverFree: an armed poll that never fires leaves
// the run byte-identical (event counts, clocks, epoch structure — the Stats
// fields the simulation decides, not the ones the machine does).
func TestConductorInterruptObserverFree(t *testing.T) {
	run := func(arm bool) (uint64, [3]uint64) {
		cfg := topo.TinyConfig()
		part, err := topo.ComputePartition(cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		engines := []*sim.Engine{sim.NewEngine(5), sim.NewEngine(5)}
		cl, err := topo.BuildSharded(engines, part, cfg, dtFactory,
			func(int) host.CompletionHandler { return nil })
		if err != nil {
			t.Fatal(err)
		}
		cl.StartFlow(&transport.Flow{
			ID: 2, Src: 0, Dst: cl.NumHosts() - 1, Size: 200_000,
			Priority: pkt.PrioLossless, Class: pkt.ClassLossless,
		})
		c := ForCluster(cl, runtime.GOMAXPROCS(0))
		defer c.Close()
		if arm {
			c.SetInterrupt(16, func() bool { return false })
		}
		c.Run(5 * sim.Millisecond)
		st := c.Stats()
		return c.Events(), [3]uint64{st.Epochs, st.Delivered, st.TaskFirings}
	}
	offEvents, offStats := run(false)
	onEvents, onStats := run(true)
	if offEvents != onEvents || offStats != onStats {
		t.Errorf("armed-but-idle interrupt perturbed the run:\n off: events=%d %+v\n on:  events=%d %+v",
			offEvents, offStats, onEvents, onStats)
	}
}
