package audit

import (
	"math/rand"
	"testing"

	"l2bm/internal/core"
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/topo"
	"l2bm/internal/transport"
)

// BenchmarkAuditSweep times one CheckOnce over the 10,240-host pod Clos
// (342 switches, ~24k ports). idle: no event fires between sweeps, the
// state of nearly every switch at nearly every sweep of a hyperscale smoke.
// busy: 64 long flows keep a few dozen switches' MMUs moving between sweeps
// (the engine runs off the clock), so the sweep re-checks those and skips
// the rest.
func BenchmarkAuditSweep(b *testing.B) {
	build := func(b *testing.B) *topo.Cluster {
		cfg, err := topo.Hyperscale10k().Config()
		if err != nil {
			b.Fatal(err)
		}
		eng := sim.NewEngine(1)
		cl, err := topo.Build(eng, cfg, func() core.Policy { return core.NewDefaultL2BM() }, nil)
		if err != nil {
			b.Fatal(err)
		}
		return cl
	}
	b.Run("idle-10k", func(b *testing.B) {
		a := New(build(b), Config{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a.CheckOnce(0)
		}
		if a.Total() != 0 {
			b.Fatal(a.Violations())
		}
	})
	b.Run("busy-10k", func(b *testing.B) {
		cl := build(b)
		rng := rand.New(rand.NewSource(1))
		for id := 1; id <= 64; id++ {
			src := rng.Intn(len(cl.Hosts))
			dst := (src + 1 + rng.Intn(len(cl.Hosts)-1)) % len(cl.Hosts)
			f := &transport.Flow{ID: pkt.FlowID(id), Src: src, Dst: dst, Size: 1 << 30, Priority: pkt.PrioLossy, Class: pkt.ClassLossy}
			if id%2 == 0 {
				f.Priority, f.Class = pkt.PrioLossless, pkt.ClassLossless
			}
			cl.Hosts[src].StartFlow(f)
		}
		cl.Engines[0].Run(100 * sim.Microsecond) // past slow start
		a := New(cl, Config{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cl.Engines[0].Run(cl.Engines[0].Now() + 2*sim.Microsecond)
			b.StartTimer()
			a.CheckOnce(cl.Engines[0].Now())
		}
		if a.Total() != 0 {
			b.Fatal(a.Violations())
		}
	})
}
