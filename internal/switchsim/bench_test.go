package switchsim

import (
	"testing"

	"l2bm/internal/core"
	"l2bm/internal/netdev"
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/trace"
)

// benchSink recycles every delivered frame back into the pool — the same
// sink behaviour host.Host has in the production fabric (delivery is where
// packets die), minus the transport machinery. With a nil pool Put is a
// no-op, so one sink serves both the pooled and unpooled benchmarks.
type benchSink struct {
	name string
	pool *pkt.Pool
	port *netdev.Port
	n    int
}

func (h *benchSink) HandleArrival(p *pkt.Packet, _ *netdev.Port) {
	h.n++
	h.pool.Put(p)
}

func (h *benchSink) Name() string { return h.name }

// admitFixture builds a 5-port L2BM switch with the given recorder and pool
// installed (pl == nil is the heap-allocating control arm) and returns the
// driver of its admission/dequeue/PFC hot path: inject(i) offers the i-th MTU
// packet of a sustained hybrid (lossless + lossy) fan-in, and the engine
// drains every 128 packets so the switch stays backlogged (thresholds, ECN
// and PFC all exercised) without unbounded queue growth.
func admitFixture(rec *trace.Recorder, pl *pkt.Pool) (inject func(i int), eng *sim.Engine) {
	eng = sim.NewEngine(42)
	sw := NewSwitch(eng, "sw", DefaultConfig(), core.NewDefaultL2BM())
	sw.SetTracer(rec)
	sinks := make([]*benchSink, 5)
	for i := range sinks {
		h := &benchSink{name: "h" + string(rune('0'+i)), pool: pl}
		hp, sp := netdev.Connect(eng, h, sw, 25e9, sim.Microsecond)
		h.port = hp
		hp.SetPool(pl)
		sw.AddPort(sp)
		sinks[i] = h
	}
	sw.SetPool(pl)
	sw.SetRouter(func(p *pkt.Packet, _ int) int { return p.Dst })
	return func(i int) {
		src := i & 3
		prio, class := pkt.PrioLossy, pkt.ClassLossy
		if i&1 == 0 {
			prio, class = pkt.PrioLossless, pkt.ClassLossless
		}
		p := pl.Data(pkt.FlowID(src+1), src, 4, prio, class,
			int64(i)*pkt.MTUPayload, pkt.MTUPayload)
		sinks[src].port.Enqueue(p)
		if i&127 == 127 {
			eng.RunAll()
		}
	}, eng
}

// benchAdmit prices the fixture: one benchmark op is one injected packet.
func benchAdmit(b *testing.B, rec *trace.Recorder, pl *pkt.Pool) {
	b.Helper()
	inject, eng := admitFixture(rec, pl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inject(i)
	}
	eng.RunAll()
}

// TestAdmitSteadyStateAllocs: once the pools, rings and first-use queue
// tables are warm, admitting, queueing, transmitting and delivering a packet
// allocates nothing — with no recorder installed and with one armed (on
// two-row rings, so a probe that fires overwrites). One run is a 128-packet
// batch including its drain.
func TestAdmitSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  *trace.Recorder
	}{{"tracer nil", nil}, {"tracer armed", trace.NewRecorder(2)}} {
		inject, _ := admitFixture(tc.rec, pkt.NewPool())
		next := 0
		batch := func() {
			for end := next + 128; next < end; next++ {
				inject(next)
			}
		}
		for i := 0; i < 64; i++ {
			batch()
		}
		if allocs := testing.AllocsPerRun(100, batch); allocs != 0 {
			t.Errorf("%s: %.0f allocations per 128-packet batch in steady state, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkAdmit is the production configuration: packet pool wired (as
// topo.Build wires every cluster), probes compiled in, no recorder ever
// installed. TestAdmitSteadyStateAllocs holds its allocs/op at zero.
func BenchmarkAdmit(b *testing.B) { benchAdmit(b, nil, pkt.NewPool()) }

// BenchmarkAdmitUnpooled is the heap-allocating control arm (the pre-pool
// fast path, still reachable via topo.Config.DisablePacketPool) —
// informational, for measuring what the pool buys.
func BenchmarkAdmitUnpooled(b *testing.B) { benchAdmit(b, nil, nil) }

// BenchmarkAdmitTraceOff measures the branch-on-nil guard with tracing
// explicitly disarmed (benchAdmit calls SetTracer(nil)): the
// disabled-tracing hot path, to read next to BenchmarkAdmitTraceOn. The
// flight recorder's design budget for disabled tracing is ≤1% against a
// probe-free switch, so TraceOff must sit at the noise floor (the benchmark's
// ledger rows switchsim.admit_ns.L2BM / admit_traced_ns.L2BM track both).
func BenchmarkAdmitTraceOff(b *testing.B) { benchAdmit(b, nil, pkt.NewPool()) }

// BenchmarkAdmitTraceOn prices enabled tracing (ring pushes on every drop,
// ECN mark and PFC edge) for comparison; it is informational, not guarded.
func BenchmarkAdmitTraceOn(b *testing.B) {
	benchAdmit(b, trace.NewRecorder(0), pkt.NewPool())
}
