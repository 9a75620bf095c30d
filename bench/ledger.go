package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"l2bm/internal/audit"
	"l2bm/internal/core"
	"l2bm/internal/dcqcn"
	"l2bm/internal/dctcp"
	"l2bm/internal/exp"
	"l2bm/internal/fluid"
	"l2bm/internal/host"
	"l2bm/internal/metrics"
	"l2bm/internal/netdev"
	"l2bm/internal/pkt"
	"l2bm/internal/serve"
	"l2bm/internal/sim"
	"l2bm/internal/switchsim"
	"l2bm/internal/topo"
	"l2bm/internal/trace"
	"l2bm/internal/transport"
	"l2bm/internal/workload"
)

// The ledger prices each layer from outside: a micro-driver loops over a
// package's exported functions with inputs shaped like the named workload
// and reports nanoseconds per call. Nothing here reaches into a package, so
// a driver survives any refactor that keeps the exported surface.

// sampler runs n ops on a fixture built beforehand and returns how long the
// n ops took.
type sampler func(n int) time.Duration

// ledger runs the drivers and collects their unit costs.
type ledger struct {
	tr     *tracer
	root   span
	target time.Duration // wall time per sample
	rounds int           // samples per driver; the median is reported
	out    map[string]float64
}

func newLedger(rc *runCtx, tr *tracer) *ledger {
	l := &ledger{tr: tr, target: 50 * time.Millisecond, rounds: 5, out: map[string]float64{}}
	if rc.smoke {
		l.target, l.rounds = 2*time.Millisecond, 2
	}
	l.root = tr.start(span{}, "ledger", 0)
	return l
}

// measure times one driver under a ledger.<name> span: build makes the
// fixture (off the clock), the sampler it returns is first sized so a sample
// lasts about l.target, then sampled l.rounds times. It returns the median,
// in nanoseconds per op.
func (l *ledger) measure(name string, build func() sampler) float64 {
	sp := l.span(name)
	defer sp.end()
	run := build()
	n := 64
	for {
		d := run(n)
		if d >= l.target/4 || n >= 1<<24 {
			n = max(int(float64(n)*float64(l.target)/float64(d+1)), 1)
			break
		}
		n *= 4
	}
	samples := make([]float64, l.rounds)
	for i := range samples {
		samples[i] = float64(run(n)) / float64(n)
	}
	return median(samples)
}

// unit stores a driver's cost under the metric's own name, in the unit the
// name ends in.
func (l *ledger) unit(name string, build func() sampler) {
	ns := l.measure(name, build)
	switch {
	case strings.HasSuffix(name, "_us"):
		ns /= 1e3
	case strings.HasSuffix(name, "_ms"):
		ns /= 1e6
	}
	l.out[name] = ns
}

// span opens the span of a driver too coarse to loop.
func (l *ledger) span(name string) span { return l.tr.start(l.root, "ledger."+name, 0) }

func (l *ledger) close() { l.root.end() }

// --- sim ---------------------------------------------------------------

// simChurn keeps a fixed population of pending events on the timer wheel:
// every dispatched event schedules its successor at a uniform offset within
// 2^spanBits ps, as internal/sim's BenchmarkWheelVsHeap does. One op is one
// schedule + dispatch. Two regimes matter: a port's events land within a
// microsecond or two of now (spanBits 21, few pending — what most events of
// a packet run are), and a large fabric's timers spread over a millisecond
// (spanBits 30, 10k–1M pending — where the wheel's upper levels work).
func simChurn(pending int, spanBits uint) func() sampler {
	return func() sampler {
		eng := sim.NewEngineWheel(1, sim.WheelGranularityFor(sim.Microsecond))
		span := sim.Duration(1) << spanBits
		x := uint64(88172645463325252)
		next := func() sim.Duration {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return sim.Duration(x & uint64(span-1))
		}
		remaining := 0
		var churn sim.ArgCallback
		churn = func(any) {
			remaining--
			if remaining <= 0 {
				eng.Stop()
				return
			}
			eng.ScheduleArg(next(), churn, nil)
		}
		for i := 0; i < pending; i++ {
			eng.ScheduleArg(next(), churn, nil)
		}
		spin := func(n int) {
			// Stop fires with one event consumed and not replaced; put it
			// back so the population holds.
			remaining = n
			for remaining > 0 {
				eng.RunAll()
			}
			eng.ScheduleArg(next(), churn, nil)
		}
		spin(pending) // one full rotation: buckets and free list at steady state
		return func(n int) time.Duration {
			t0 := time.Now()
			spin(n)
			return time.Since(t0)
		}
	}
}

// simCancel is the retransmission-timer pattern: every packet cancels the
// pending far-future timer and arms a new one. The clock advances a little
// every 1024 ops so the wheel turns and dead entries are reclaimed as they
// are in a run.
func simCancel() sampler {
	eng := sim.NewEngineWheel(1, sim.WheelGranularityFor(sim.Microsecond))
	noop := func() {}
	ref := eng.Schedule(sim.Millisecond, noop)
	return func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			ref.Cancel()
			ref = eng.Schedule(sim.Millisecond, noop)
			if i&1023 == 1023 {
				eng.Run(eng.Now() + sim.Time(sim.Microsecond))
			}
		}
		return time.Since(t0)
	}
}

// --- pkt ---------------------------------------------------------------

func pktGetPut() sampler {
	pool := pkt.NewPool()
	return func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			p := pool.Data(1, 0, 1, pkt.PrioLossy, pkt.ClassLossy, int64(i)*pkt.MTUPayload, pkt.MTUPayload)
			pool.Put(p)
		}
		return time.Since(t0)
	}
}

// --- netdev ------------------------------------------------------------

// sinkNode is where the drivers' packets die, as host.Host is in the fabric.
type sinkNode struct {
	pool *pkt.Pool
	port *netdev.Port
	n    int
}

func (s *sinkNode) HandleArrival(p *pkt.Packet, _ *netdev.Port) {
	s.n++
	s.pool.Put(p)
}

func (s *sinkNode) Name() string { return "sink" }

// netdevHop is one link: Enqueue on one side, serialization, propagation,
// receive on the other. The engine drains every 128 packets so the port
// stays backlogged, as a busy port is.
func netdevHop() sampler {
	eng := sim.NewEngineWheel(1, sim.WheelGranularityFor(sim.Microsecond))
	pool := pkt.NewPool()
	a, b := &sinkNode{pool: pool}, &sinkNode{pool: pool}
	pa, pb := netdev.Connect(eng, a, b, 25e9, sim.Microsecond)
	pa.SetPool(pool)
	pb.SetPool(pool)
	a.port, b.port = pa, pb
	return func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			pa.Enqueue(pool.Data(1, 0, 1, pkt.PrioLossy, pkt.ClassLossy, int64(i)*pkt.MTUPayload, pkt.MTUPayload))
			if i&127 == 127 {
				eng.RunAll()
			}
		}
		eng.RunAll()
		return time.Since(t0)
	}
}

// --- switchsim ---------------------------------------------------------

// switchAdmit drives a sustained hybrid (lossless + lossy) 4-into-1 fan-in
// through a 5-port switch under the named policy: the admission, dequeue,
// ECN and PFC hot path, shaped as internal/switchsim's BenchmarkAdmit is but
// on the timer wheel, the scheduler runs use. One op is one injected MTU
// packet, NIC to sink.
func switchAdmit(policy string, rec *trace.Recorder) func() sampler {
	return func() sampler {
		eng := sim.NewEngineWheel(42, sim.WheelGranularityFor(sim.Microsecond))
		pool := pkt.NewPool()
		sw := switchsim.NewSwitch(eng, "sw", switchsim.DefaultConfig(), core.MustNewPolicy(policy))
		sw.SetTracer(rec)
		sinks := make([]*sinkNode, 5)
		for i := range sinks {
			h := &sinkNode{pool: pool}
			hp, sp := netdev.Connect(eng, h, sw, 25e9, sim.Microsecond)
			hp.SetPool(pool)
			h.port = hp
			sw.AddPort(sp)
			sinks[i] = h
		}
		sw.SetPool(pool)
		sw.SetRouter(func(p *pkt.Packet, _ int) int { return p.Dst })
		seq := 0
		return func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				src := seq & 3
				prio, class := pkt.PrioLossy, pkt.ClassLossy
				if seq&1 == 0 {
					prio, class = pkt.PrioLossless, pkt.ClassLossless
				}
				p := pool.Data(pkt.FlowID(src+1), src, 4, prio, class, int64(seq)*pkt.MTUPayload, pkt.MTUPayload)
				sinks[src].port.Enqueue(p)
				if seq&127 == 127 {
					eng.RunAll()
				}
				seq++
			}
			eng.RunAll()
			return time.Since(t0)
		}
	}
}

// --- core --------------------------------------------------------------

// fakeView is a switch MMU as a policy sees it: 33 ports, 32 of them with
// an active ingress queue, half the shared pool in use. The clock is the
// driver's to move.
type fakeView struct{ now sim.Time }

const fakePorts = 33

func (v *fakeView) Now() sim.Time                          { return v.now }
func (v *fakeView) TotalShared() int64                     { return 4 << 20 }
func (v *fakeView) SharedUsed() int64                      { return 2 << 20 }
func (v *fakeView) EgressPoolUsed(pkt.Class) int64         { return 1 << 20 }
func (v *fakeView) IngressQueueBytes(port, _ int) int64    { return int64(port+1) * 4096 }
func (v *fakeView) EgressQueueBytes(port, _ int) int64     { return int64(port+1) * 2048 }
func (v *fakeView) EgressDrainRate(int, int) int64         { return 12_500_000_000 }
func (v *fakeView) EgressLineRate(int) int64               { return 25_000_000_000 }
func (v *fakeView) EgressPausedTime(int, int) sim.Duration { return 0 }
func (v *fakeView) EgressPausedFor(int, int) sim.Duration  { return 0 }
func (v *fakeView) NumPorts() int                          { return fakePorts }
func (v *fakeView) CongestedEgressQueues(int) int          { return 8 }

// activate parks two packets in each of 32 ingress queues of pol (ports
// 0..31, alternating the lossless and lossy priority), all bound for port
// 32, so stateful policies see 32 active queues.
func activate(pol core.Policy, v *fakeView) []*pkt.Packet {
	var parked []*pkt.Packet
	for port := 0; port < 32; port++ {
		prio := pkt.PrioLossy
		if port&1 == 0 {
			prio = pkt.PrioLossless
		}
		for k := 0; k < 2; k++ {
			p := pkt.NewData(pkt.FlowID(port+1), port, 32, prio, core.ClassOfPriority(prio), int64(k)*pkt.MTUPayload, pkt.MTUPayload)
			p.InPort, p.InPrio, p.OutPort = port, prio, 32
			pol.OnEnqueue(v, p)
			parked = append(parked, p)
		}
	}
	return parked
}

// coreThreshold is one admission's worth of policy evaluation: the ingress
// and the egress threshold of one queue. The clock moves 80 ns per op (one
// MTU at 100 Gb/s), so a policy that caches per instant, as L2BM's sojourn
// table does, recomputes as often as it would in a run.
func coreThreshold(policy string) func() sampler {
	return func() sampler {
		pol := core.MustNewPolicy(policy)
		v := &fakeView{}
		activate(pol, v)
		var sink int64
		return func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				v.now += sim.Time(80 * sim.Nanosecond)
				port := i & 31
				prio := pkt.PrioLossy
				if port&1 == 0 {
					prio = pkt.PrioLossless
				}
				sink += pol.IngressThreshold(v, port, prio)
				sink += pol.EgressThreshold(v, 32, prio)
			}
			d := time.Since(t0)
			runtime.KeepAlive(sink)
			return d
		}
	}
}

// coreSojourn is L2BM's per-packet bookkeeping: one OnEnqueue and the
// matching OnDequeue against a table with 32 active queues.
func coreSojourn() sampler {
	pol := core.NewDefaultL2BM()
	v := &fakeView{}
	parked := activate(pol, v)
	return func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			v.now += sim.Time(80 * sim.Nanosecond)
			p := parked[i%len(parked)]
			pol.OnEnqueue(v, p)
			pol.OnDequeue(v, p)
		}
		return time.Since(t0)
	}
}

// --- transports, host, workload ------------------------------------------

// benchEnv is the world a transport endpoint sees (transport.Env), with a
// real engine behind the timers and a NIC that recycles whatever it is
// handed.
type benchEnv struct {
	eng  *sim.Engine
	pool *pkt.Pool
	sent int
}

func newBenchEnv() *benchEnv {
	return &benchEnv{eng: sim.NewEngineWheel(1, sim.WheelGranularityFor(sim.Microsecond)), pool: pkt.NewPool()}
}

func (e *benchEnv) Now() sim.Time { return e.eng.Now() }
func (e *benchEnv) Send(p *pkt.Packet) {
	e.sent++
	e.pool.Put(p)
}
func (e *benchEnv) Schedule(d sim.Duration, fn func()) sim.EventRef { return e.eng.Schedule(d, fn) }
func (e *benchEnv) NICBacklog(int) int                              { return 0 }
func (e *benchEnv) Pool() *pkt.Pool                                 { return e.pool }

var _ transport.Env = (*benchEnv)(nil)

const endlessFlow = int64(1) << 50

// dctcpAck is Sender.HandleAck in steady state: each ACK advances one MSS,
// releases new segments and re-arms the RTO; one ACK in 16 carries an ECN
// echo, which keeps the window bounded the way marking does in a run.
func dctcpAck() sampler {
	env := newBenchEnv()
	cfg := dctcp.DefaultConfig()
	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: endlessFlow, Priority: pkt.PrioLossy, Class: pkt.ClassLossy}
	s := dctcp.NewSender(env, cfg, flow, nil)
	s.Start()
	cum := int64(0)
	ack := pkt.NewAck(1, 1, 0, 0, false)
	i := 0
	return func(n int) time.Duration {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			cum += int64(cfg.MSS)
			ack.Seq = cum
			ack.ECE = i&15 == 0
			s.HandleAck(ack)
			i++
		}
		return time.Since(t0)
	}
}

// dctcpOOO is Receiver.HandleData during loss recovery: in-order segments
// arrive below a standing backlog of 128 out-of-order segments that a
// second hole keeps from merging — the state a receiver sits in while a
// burst of drops is being repaired, and where the fig7 profile spends a
// quarter of its time on loss-heavy seeds.
func dctcpOOO() sampler {
	env := newBenchEnv()
	r := dctcp.NewReceiver(env, 1, 1, 0, nil)
	const far = int64(1) << 40
	for k := int64(0); k < 128; k++ {
		p := pkt.NewData(1, 0, 1, pkt.PrioLossy, pkt.ClassLossy, far+k*pkt.MTUPayload, pkt.MTUPayload)
		r.HandleData(p)
	}
	seq := int64(0)
	p := pkt.NewData(1, 0, 1, pkt.PrioLossy, pkt.ClassLossy, 0, pkt.MTUPayload)
	return func(n int) time.Duration {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			p.Seq = seq
			r.HandleData(p)
			seq += pkt.MTUPayload
		}
		return time.Since(t0)
	}
}

// dcqcnPkt is the paced send loop: one packet out, the pacing timer armed,
// the timer dispatched. One op is one packet.
func dcqcnPkt() sampler {
	env := newBenchEnv()
	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: endlessFlow, Priority: pkt.PrioLossless, Class: pkt.ClassLossless}
	s := dcqcn.NewSender(env, dcqcn.DefaultConfig(25e9), flow, nil)
	s.Start()
	return func(n int) time.Duration {
		target := env.sent + n
		env.eng.SetInterrupt(1, func() bool { return env.sent >= target })
		t0 := time.Now()
		env.eng.RunAll()
		d := time.Since(t0)
		env.eng.SetInterrupt(0, nil)
		return d
	}
}

// dcqcnCNP is the reaction-point cut: rate and α update, both timers
// cancelled and re-armed.
func dcqcnCNP() sampler {
	env := newBenchEnv()
	flow := &transport.Flow{ID: 1, Src: 0, Dst: 1, Size: endlessFlow, Priority: pkt.PrioLossless, Class: pkt.ClassLossless}
	s := dcqcn.NewSender(env, dcqcn.DefaultConfig(25e9), flow, nil)
	return func(n int) time.Duration {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			s.HandleCNP()
			if k&1023 == 1023 {
				env.eng.Run(env.eng.Now() + sim.Time(sim.Microsecond))
			}
		}
		return time.Since(t0)
	}
}

// hostDeliver is Host.HandleArrival on data: demultiplex, receiver state,
// the ACK (DCTCP) or nothing (unmarked DCQCN) back out through the NIC, and
// the frame recycled. Packets alternate between one lossy and one lossless
// flow.
func hostDeliver() sampler {
	eng := sim.NewEngineWheel(1, sim.WheelGranularityFor(sim.Microsecond))
	pool := pkt.NewPool()
	h := host.New(eng, 1, "h1", dctcp.DefaultConfig(), dcqcn.DefaultConfig(25e9))
	peer := &sinkNode{pool: pool}
	hp, pp := netdev.Connect(eng, h, peer, 25e9, sim.Microsecond)
	hp.SetPool(pool)
	pp.SetPool(pool)
	h.SetNIC(hp)
	h.SetPool(pool)
	seq := int64(0)
	return func(n int) time.Duration {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			var p *pkt.Packet
			if k&1 == 0 {
				p = pool.Data(1, 0, 1, pkt.PrioLossy, pkt.ClassLossy, seq, pkt.MTUPayload)
			} else {
				p = pool.Data(2, 0, 1, pkt.PrioLossless, pkt.ClassLossless, seq, pkt.MTUPayload)
				seq += pkt.MTUPayload
			}
			h.HandleArrival(p, hp)
			if k&127 == 127 {
				eng.RunAll()
			}
		}
		eng.RunAll()
		return time.Since(t0)
	}
}

// nullSink swallows generated flows.
type nullSink struct{ n int }

func (s *nullSink) StartFlow(*transport.Flow) { s.n++ }

// workloadArrival is one Poisson arrival: the exponential gap, the
// flow-size CDF sample, the destination pick, the flow handed to a sink
// that drops it. 32 sources at the headline TCP load.
func workloadArrival() sampler {
	return func(n int) time.Duration {
		eng := sim.NewEngineWheel(1, sim.WheelGranularityFor(sim.Microsecond))
		sink := &nullSink{}
		hosts := make([]int, 32)
		for i := range hosts {
			hosts[i] = i
		}
		g, err := newPoissonDriver(eng, sink, hosts)
		if err != nil {
			panic(err) // constants; only a bug makes them invalid
		}
		g.Install()
		eng.SetInterrupt(1, func() bool { return sink.n >= n })
		t0 := time.Now()
		eng.RunAll()
		return time.Since(t0)
	}
}

// --- topo, audit, metrics, trace, colfmt -----------------------------------

func policyFactory(name string) topo.PolicyFactory {
	return func() core.Policy { return core.MustNewPolicy(name) }
}

// topoBuild times one topo.Build of cfg, and reports the heap the built
// cluster holds per host.
func topoBuild(cfg topo.Config) (seconds, bytesPerHost float64, cl *topo.Cluster, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng := sim.NewEngineWheel(1, sim.WheelGranularityFor(cfg.MinPropDelay()))
	t0 := time.Now()
	cl, err = topo.Build(eng, cfg, policyFactory("L2BM"), nil)
	seconds = time.Since(t0).Seconds()
	if err != nil {
		return 0, 0, nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	bytesPerHost = float64(after.HeapAlloc-before.HeapAlloc) / float64(cfg.Hosts())
	return seconds, bytesPerHost, cl, nil
}

// auditSweep is one invariant sweep over an idle ScaleSmall cluster.
func auditSweep(cl *topo.Cluster) func() sampler {
	return func() sampler {
		aud := audit.New(cl, audit.Config{})
		return func(n int) time.Duration {
			t0 := time.Now()
			for k := 0; k < n; k++ {
				aud.CheckOnce(0)
			}
			return time.Since(t0)
		}
	}
}

// metricsCollect is the end-of-run collection over 1,000 finished flows:
// per-class slowdowns (sorted), their p99s, the counts and the incomplete
// list, as RunHybridCtx gathers them into a Result.
func metricsCollect() sampler {
	rec := metrics.NewFCTRecorder()
	for i := 0; i < 1000; i++ {
		class, prio := pkt.ClassLossy, pkt.PrioLossy
		if i&1 == 0 {
			class, prio = pkt.ClassLossless, pkt.PrioLossless
		}
		f := &transport.Flow{ID: pkt.FlowID(i + 1), Src: i % 32, Dst: (i + 7) % 32, Size: int64(1000 + i*977), Priority: prio, Class: class}
		rec.Started(f, sim.Duration(10+i)*sim.Microsecond)
		rec.Completed(f.ID, sim.Time(sim.Duration(25+3*i)*sim.Microsecond))
	}
	var sink float64
	return func(n int) time.Duration {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			rdma := rec.Slowdowns(pkt.ClassLossless)
			tcp := rec.Slowdowns(pkt.ClassLossy)
			sink += metrics.PercentileSorted(rdma, 99) + metrics.PercentileSorted(tcp, 99)
			started, done := rec.Counts()
			sink += float64(started + done + len(rec.IncompleteRecords()))
		}
		d := time.Since(t0)
		runtime.KeepAlive(sink)
		return d
	}
}

func traceRecord() sampler {
	rec := trace.NewRecorder(0)
	return func(n int) time.Duration {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			rec.RecordPacketEvent(trace.PacketEvent{
				At: sim.Time(k), Switch: "tor0", Port: k & 7, Prio: pkt.PrioLossy,
				Size: pkt.MTUBytes, Class: pkt.ClassLossy,
			})
		}
		return time.Since(t0)
	}
}

// exportResult is a Result shaped like a burst_observed point's: four ToR
// occupancy series over the window and a few hundred slowdowns per class.
func exportResult() *exp.Result {
	res := &exp.Result{Policy: "L2BM", TorOccupancy: make([][]metrics.Reading, 4)}
	for tor := range res.TorOccupancy {
		for k := 0; k < 1000; k++ {
			res.TorOccupancy[tor] = append(res.TorOccupancy[tor],
				metrics.Reading{At: sim.Time(k) * sim.Time(100*sim.Microsecond), Value: int64((k*7919 + tor*104729) % (4 << 20))})
		}
	}
	for k := 0; k < 400; k++ {
		res.RDMASlowdowns = append(res.RDMASlowdowns, 1+float64(k)*0.013)
		res.TCPSlowdowns = append(res.TCPSlowdowns, 1+float64(k)*0.041)
	}
	return res
}

// colfmtWrite returns the columnar writer's throughput in MB/s.
func colfmtWrite(l *ledger) float64 {
	res := exportResult()
	var bytesPerOp int64
	ns := l.measure("colfmt.write_mb_per_s", func() sampler {
		return func(n int) time.Duration {
			t0 := time.Now()
			for k := 0; k < n; k++ {
				cw := &countingWriter{}
				if err := res.WriteCol(cw); err != nil {
					panic(err) // a counting writer cannot fail
				}
				bytesPerOp = cw.n
			}
			return time.Since(t0)
		}
	})
	return ratio(float64(bytesPerOp), ns) * 1e3 // B/ns → MB/s
}

// --- fluid ---------------------------------------------------------------

// fluidAdvance steps the fluid solver over a synthetic schedule on the
// ScaleSmall fabric: 4,000 flows of 0.2–2 MB arriving every 20 µs between
// pseudo-random host pairs, so a dozen are active at any instant and every
// arrival and completion re-solves the max-min allocation. The fidelity
// triggers are parked out of reach, so Advance never cuts to packet mode:
// this prices the solver, not the controller. Reports µs per step.
func fluidAdvance(l *ledger) float64 {
	cfg := exp.ScaleSmall.Topo()
	model := fluid.NewModel(cfg)
	hosts := cfg.Hosts()
	arrivals := make([]fluid.FlowArrival, 4000)
	x := uint64(2463534242)
	rnd := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	for i := range arrivals {
		src := rnd(hosts)
		dst := (src + 1 + rnd(hosts-1)) % hosts
		class, prio := pkt.ClassLossy, pkt.PrioLossy
		if i&1 == 0 {
			class, prio = pkt.ClassLossless, pkt.PrioLossless
		}
		arrivals[i] = fluid.FlowArrival{Flow: transport.Flow{
			ID: pkt.FlowID(i + 1), Src: src, Dst: dst, Size: int64(200_000 + rnd(1_800_000)),
			Priority: prio, Class: class, Start: sim.Time(i) * sim.Time(20*sim.Microsecond),
		}}
	}
	params := fluid.DefaultParams()
	params.DegreeTrigger = 1 << 30
	params.GuardFrac = 1e9
	var steps uint64
	var elapsed time.Duration
	sp := l.span("fluid.advance_us_per_step")
	for round := 0; round < l.rounds; round++ {
		fs := fluid.NewSim(model, params, arrivals, 0)
		t0 := time.Now()
		if _, reason := fs.Advance(sim.Time(10 * sim.Second)); reason != fluid.CutNone {
			panic("bench: the fluid driver's schedule tripped a fidelity trigger: " + reason.String())
		}
		elapsed += time.Since(t0)
		steps += fs.Steps
	}
	sp.end()
	return ratio(float64(elapsed)/1e3, float64(steps))
}

// --- exp -----------------------------------------------------------------

// expDrivers prices the experiment layer's own work around one point.
func expDrivers(l *ledger, rc *runCtx, spec exp.HybridSpec) error {
	// assemble: the workload's own spec with no traffic offered, so a run is
	// build + observers + collect.
	idle := spec
	idle.RDMALoad, idle.TCPLoad, idle.Incast, idle.Hooks = 0, 0, nil, nil
	idle.Fidelity = ""
	sp := l.span("exp.assemble_ms")
	t0 := time.Now()
	_, err := exp.RunHybridCtx(context.Background(), idle)
	l.out["exp.assemble_ms"] = ms(time.Since(t0))
	sp.end()
	if err != nil {
		return fmt.Errorf("bench: assemble driver: %w", err)
	}

	point := exp.HybridSpec{Name: "ledger", Policy: "L2BM", Scale: exp.ScaleTiny, RDMALoad: 0.4, TCPLoad: 0.8}
	res, err := exp.RunHybridCtx(context.Background(), point)
	if err != nil {
		return fmt.Errorf("bench: ledger point: %w", err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("bench: ledger point: %w", err)
	}
	l.unit("exp.marshal_us", func() sampler {
		return func(n int) time.Duration {
			t0 := time.Now()
			for k := 0; k < n; k++ {
				if _, err := json.Marshal(res); err != nil {
					panic(err) // marshaled once above
				}
			}
			return time.Since(t0)
		}
	})
	sweep, err := makeSweep("ledger", 0, false)
	if err != nil {
		return err
	}
	l.unit("exp.parse_us", func() sampler {
		return func(n int) time.Duration {
			t0 := time.Now()
			for k := 0; k < n; k++ {
				if _, err := exp.ParseSweepRequest(sweep.body); err != nil {
					panic(err) // the bench's own body
				}
			}
			return time.Since(t0)
		}
	})

	dir := rc.scratch("ledger-cache")
	defer os.RemoveAll(dir)
	cache, err := exp.NewResultCache(dir)
	if err != nil {
		return err
	}
	var cacheErr error
	l.unit("exp.cache_put_us", func() sampler {
		return func(n int) time.Duration {
			t0 := time.Now()
			for k := 0; k < n; k++ {
				if err := cache.Put(point, raw); err != nil {
					cacheErr = err
				}
			}
			return time.Since(t0)
		}
	})
	if cacheErr != nil {
		return fmt.Errorf("bench: cache driver: %w", cacheErr)
	}
	l.unit("exp.cache_get_us", func() sampler {
		return func(n int) time.Duration {
			t0 := time.Now()
			for k := 0; k < n; k++ {
				if _, _, ok := cache.Get(point); !ok {
					cacheErr = fmt.Errorf("miss on an entry just put")
				}
			}
			return time.Since(t0)
		}
	})
	if cacheErr != nil {
		return fmt.Errorf("bench: cache driver: %w", cacheErr)
	}

	empty := &exp.Result{}
	l.unit("exp.pool_overhead_us", func() sampler {
		return func(n int) time.Duration {
			pool := &exp.Pool{}
			t0 := time.Now()
			_, _, err := pool.Run(context.Background(), n,
				func(context.Context, int) (*exp.Result, error) { return empty, nil }, nil)
			if err != nil {
				panic(err) // no-op points cannot fail
			}
			return time.Since(t0)
		}
	})
	return nil
}

// --- serve ---------------------------------------------------------------

// serveProbe prices the daemon's HTTP path on a cache hit, in process: a
// serve.Server behind a loopback listener, one sweep pre-filled, 40 closed
// loop resubmissions by one client. The engine workloads report these as
// their serve.* rows; the daemon workloads report the same quantities off
// their own requests against the real l2bmd child instead.
func serveProbe(l *ledger, rc *runCtx) error {
	sp := l.span("serve.probe")
	defer sp.end()
	dir := rc.scratch("ledger-serve")
	defer os.RemoveAll(dir)
	srv, err := serve.New(serve.Config{CacheDir: filepath.Join(dir, "cache")})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("bench: serve probe: %w", err)
	}
	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		_ = hs.Close() // stops Serve; the listener error it returns is expected
		<-served
	}()

	sweep, err := makeSweep("probe", 0, true)
	if err != nil {
		return err
	}
	c := newClient("http://" + ln.Addr().String())
	defer c.close()
	want, _, err := c.roundTrip(sweep.body, nil, span{}, 0)
	if err != nil {
		return fmt.Errorf("bench: serve probe pre-fill: %w", err)
	}
	n := 40
	if rc.smoke {
		n = 4
	}
	var total, sub, queue, wait, res []float64
	for k := 0; k < n; k++ {
		id := int64(k + 1)
		reqSpan := l.tr.start(sp, "request", id)
		got, tm, err := c.roundTrip(sweep.body, l.tr, reqSpan, id)
		reqSpan.end()
		if err != nil {
			return fmt.Errorf("bench: serve probe: %w", err)
		}
		if string(got) != string(want) {
			return fmt.Errorf("bench: serve probe: a cache hit served different bytes than the fresh run")
		}
		total = append(total, tm.total)
		sub = append(sub, tm.submit)
		queue = append(queue, tm.queue)
		wait = append(wait, tm.wait)
		res = append(res, tm.result)
	}
	l.out["serve.submit_ms"] = median(sub)
	l.out["serve.queue_wait_ms"] = median(queue)
	l.out["serve.wait_ms"] = median(wait)
	l.out["serve.result_ms"] = median(res)
	_, l.out["serve.sweep_tail_ms"] = tailPercentile(total)
	return nil
}

// newPoissonDriver is the generator workloadArrival drives: web-search
// sizes at the headline TCP load, a window no run of the driver outlasts.
func newPoissonDriver(eng *sim.Engine, sink workload.Sink, hosts []int) (*workload.Poisson, error) {
	return workload.NewPoisson(eng, sink, workload.PoissonConfig{
		Sources: hosts, Dests: hosts, Load: 0.8, HostRate: 25e9,
		Sizes: workload.WebSearchCDF(), Priority: pkt.PrioLossy, Class: pkt.ClassLossy,
		Window: 1000 * sim.Second, StreamName: "ledger", IDTag: 1,
	})
}
