package workload

import (
	"fmt"
	"math"
	"slices"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/transport"
)

// Sink receives generated flows; topo.Cluster satisfies it.
type Sink interface {
	StartFlow(f *transport.Flow)
}

// FlowObserver is notified as each flow is created, before it starts —
// the hook the metrics layer uses to record start times and ideal
// completion times.
type FlowObserver func(f *transport.Flow)

// PoissonConfig describes one all-to-all Poisson traffic class (the paper's
// web-search workload): every host in Sources independently generates flows
// with exponential inter-arrival gaps sized so its average offered rate is
// Load × HostRate, each flow targeting a uniformly random host in Dests.
type PoissonConfig struct {
	// Sources are the generating host IDs.
	Sources []int
	// Dests are candidate destinations (the source itself is excluded).
	Dests []int
	// Load is the offered load as a fraction of HostRate.
	Load float64
	// HostRate is the access-link rate in bits/s.
	HostRate int64
	// Sizes is the flow-size distribution.
	Sizes *CDF
	// Priority and Class select the protocol (lossless = DCQCN RDMA,
	// lossy = DCTCP).
	Priority int
	Class    pkt.Class
	// Window is how long generation lasts; flows started inside the window
	// run to completion afterwards.
	Window sim.Duration
	// Observer, if set, sees every flow before it starts.
	Observer FlowObserver
	// Forbid, if set, vetoes (src, dst) pairs — e.g. the motivation
	// experiment only sends between servers under different leaf switches.
	Forbid func(src, dst int) bool
	// StreamName salts this generator's random streams, letting several
	// generators coexist independently.
	StreamName string
	// IDTag heads every flow ID this generator mints:
	// tag<<56 | src<<32 | per-source-sequence. The ID depends only on
	// (tag, source host, how-manyth flow of that source) — never on how
	// launches from different sources interleave globally — which is what
	// lets a sharded run, where each shard drives only its own sources,
	// mint exactly the IDs the sequential run mints. The tag must be
	// non-zero and unique per generator in a run (flow IDs seed ECMP
	// hashing, so collisions would alias paths).
	IDTag byte
}

// Validate reports configuration errors, among them a source that no
// destination other than itself is admitted for — launch would find none.
func (c *PoissonConfig) Validate() error {
	switch {
	case len(c.Sources) == 0:
		return fmt.Errorf("workload: no source hosts")
	case len(c.Dests) < 2:
		return fmt.Errorf("workload: need at least 2 destination candidates")
	case math.IsNaN(c.Load) || math.IsInf(c.Load, 0) || c.Load <= 0:
		return fmt.Errorf("workload: load %v must be finite and positive", c.Load)
	case c.HostRate <= 0:
		return fmt.Errorf("workload: host rate must be positive")
	case c.Sizes == nil:
		return fmt.Errorf("workload: no size distribution")
	case c.Window <= 0:
		return fmt.Errorf("workload: window must be positive")
	case c.IDTag == 0:
		return fmt.Errorf("workload: IDTag must be non-zero")
	}
	for _, src := range c.Sources {
		if !slices.ContainsFunc(c.Dests, func(d int) bool { return d != src && (c.Forbid == nil || !c.Forbid(src, d)) }) {
			return fmt.Errorf("workload: source %d has no destination in Dests that Forbid admits", src)
		}
	}
	return nil
}

// Poisson drives one Poisson traffic class on a cluster.
type Poisson struct {
	cfg  PoissonConfig
	eng  *sim.Engine
	sink Sink

	// seqBySrc numbers each source's flows for their IDs.
	seqBySrc map[int]uint64

	// Generated counts flows started.
	Generated uint64
	// BytesOffered sums generated flow sizes.
	BytesOffered int64
}

// NewPoisson builds the generator; call Install to schedule traffic.
func NewPoisson(eng *sim.Engine, sink Sink, cfg PoissonConfig) (*Poisson, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Poisson{cfg: cfg, eng: eng, sink: sink, seqBySrc: make(map[int]uint64)}, nil
}

// nextID mints the next flow ID for src.
func (g *Poisson) nextID(src int) pkt.FlowID {
	g.seqBySrc[src]++
	seq := g.seqBySrc[src]
	if src < 0 || src >= 1<<24 || seq >= 1<<32 {
		panic(fmt.Sprintf("workload: structured flow ID overflow (src=%d seq=%d)", src, seq))
	}
	return pkt.FlowID(uint64(g.cfg.IDTag)<<56 | uint64(src)<<32 | seq)
}

// Install schedules the first arrival of every source host. The mean
// inter-arrival gap per host is meanSize·8 / (Load·HostRate). Traffic is
// generated for cfg.Window of simulated time *from the moment Install is
// called*, so a generator installed mid-run (warm-up phases, staged
// scenarios) still offers its full window.
func (g *Poisson) Install() {
	meanGap := sim.Duration(g.cfg.Sizes.Mean() * 8 / (g.cfg.Load * float64(g.cfg.HostRate)) * float64(sim.Second))
	if meanGap < 1 {
		meanGap = 1
	}
	start := g.eng.Now()
	for _, src := range g.cfg.Sources {
		src := src
		arrivals := g.eng.Rand(fmt.Sprintf("%s/arrivals/%d", g.cfg.StreamName, src))
		sizes := g.eng.Rand(fmt.Sprintf("%s/sizes/%d", g.cfg.StreamName, src))
		dests := g.eng.Rand(fmt.Sprintf("%s/dests/%d", g.cfg.StreamName, src))

		var tick func()
		tick = func() {
			if g.eng.Now()-start >= g.cfg.Window {
				return
			}
			g.launch(src, sizes, dests)
			g.eng.Schedule(arrivals.ExpDuration(meanGap), tick)
		}
		g.eng.Schedule(arrivals.ExpDuration(meanGap), tick)
	}
}

// launch creates and starts one flow from src.
func (g *Poisson) launch(src int, sizes, dests *sim.Rand) {
	dst := src
	for tries := 0; dst == src || (g.cfg.Forbid != nil && g.cfg.Forbid(src, dst)); tries++ {
		if tries > 10_000 {
			panic("workload: Forbid rejects every destination")
		}
		dst = g.cfg.Dests[dests.Intn(len(g.cfg.Dests))]
	}
	f := &transport.Flow{
		ID:       g.nextID(src),
		Src:      src,
		Dst:      dst,
		Size:     g.cfg.Sizes.Sample(sizes),
		Priority: g.cfg.Priority,
		Class:    g.cfg.Class,
		Start:    g.eng.Now(),
	}
	g.Generated++
	g.BytesOffered += f.Size
	if g.cfg.Observer != nil {
		g.cfg.Observer(f)
	}
	g.sink.StartFlow(f)
}
