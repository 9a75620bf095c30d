package topo

import (
	"fmt"
	"runtime"
	"testing"

	"l2bm/internal/core"
	"l2bm/internal/sim"
)

// BenchmarkBuildHyperscale measures fabric construction at 1k/10k/100k hosts
// and reports bytes/host — the flyweight proof. Shared role/tier/transport
// descriptors mean the per-host cost is the host struct, its access link and
// its slice of the switch counter tables, NOT a copy of the configuration.
func BenchmarkBuildHyperscale(b *testing.B) {
	presets := []struct {
		name string
		h    HyperscaleConfig
	}{
		{"1k", Hyperscale1k()},
		{"10k", Hyperscale10k()},
		{"100k", Hyperscale100k()},
	}
	for _, p := range presets {
		b.Run(p.name, func(b *testing.B) {
			cfg, err := p.h.Config()
			if err != nil {
				b.Fatal(err)
			}
			hosts := float64(cfg.Hosts())
			b.ReportAllocs()
			var before, after runtime.MemStats
			var sink *Cluster
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sink = nil
				runtime.GC()
				runtime.ReadMemStats(&before)
				b.StartTimer()
				eng := sim.NewEngineWheel(1, sim.WheelGranularityFor(cfg.MinPropDelay()))
				cl, err := Build(eng, cfg, func() core.Policy { return core.NewDT() }, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				sink = cl
				runtime.GC()
				runtime.ReadMemStats(&after)
				b.StartTimer()
			}
			if sink == nil || len(sink.Hosts) != cfg.Hosts() {
				b.Fatal("build lost its hosts")
			}
			resident := float64(after.HeapAlloc) - float64(before.HeapAlloc)
			if resident < 0 {
				resident = 0
			}
			b.ReportMetric(resident/hosts, "bytes/host")
		})
	}
}

// TestHyperscaleBytesPerHost bounds what a built, idle fabric retains per
// host: shared role/tier/transport descriptors, and ports, hosts and switch
// tables that hold only what every one of them needs before traffic flows.
// The limit is 2 KiB against a measured ~1.55 kB, tight enough to see one
// more per-port array (an [8]int64 on each of the 2.1 ports per host is
// +136 B) long before it doubles the footprint; the benchmark reports the
// precise number.
func TestHyperscaleBytesPerHost(t *testing.T) {
	if testing.Short() {
		t.Skip("hyperscale build in -short")
	}
	cfg, err := Hyperscale10k().Config()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng := sim.NewEngineWheel(1, sim.WheelGranularityFor(cfg.MinPropDelay()))
	cl, err := Build(eng, cfg, func() core.Policy { return core.NewDT() }, nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perHost := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(len(cl.Hosts))
	const limit = 2 << 10 // 2 KiB/host
	if perHost > limit {
		t.Fatalf("build cost %.0f bytes/host, want <= %d", perHost, limit)
	}
	t.Log(fmt.Sprintf("10k-host build: %.0f bytes/host", perHost))
}
