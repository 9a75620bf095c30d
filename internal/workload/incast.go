package workload

import (
	"fmt"
	"math"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/transport"
)

// IncastConfig describes the paper's burst deep-dive workload (§IV-B): a
// Poisson stream of queries; each query picks a random target server that
// simultaneously requests RequestBytes/Fanout bytes from Fanout other
// random servers as lossless RDMA flows, over whatever background traffic
// is installed separately.
type IncastConfig struct {
	// Hosts are the servers participating as targets and responders.
	Hosts []int
	// Fanout is N, the number of concurrent responders per query.
	Fanout int
	// RequestBytes is the total query payload (paper: 1 MB, i.e. 25% of
	// the 4 MB switch buffer).
	RequestBytes int64
	// QueryRate is the mean number of queries per second (paper: 376
	// queries in 0.5 s ≈ 752/s).
	QueryRate float64
	// Window is how long queries are generated.
	Window sim.Duration
	// Priority and Class select the protocol (paper: lossless RDMA).
	Priority int
	Class    pkt.Class
	// Observer, if set, sees every flow before it starts.
	Observer FlowObserver
	// StreamName salts the random streams.
	StreamName string
	// IDTag heads every flow ID this generator mints:
	// tag<<56 | queryID<<16 | fanout-index. The ID is a pure function of
	// the query sequence, so replicated generators running in lockstep on
	// different shards mint identical IDs without a shared counter. The
	// tag must be non-zero and unique per generator in a run.
	IDTag byte
	// LaunchFilter, when set, limits which responder flows this instance
	// actually starts (Observer + StartFlow): only flows whose source host
	// satisfies the predicate launch here. Everything else — random draws,
	// query bookkeeping, flow→query registration — still happens, keeping
	// replicated instances on different shards in lockstep: each shard
	// launches only the responders it owns, while any one replica can still
	// match every flow's completion to its query.
	LaunchFilter func(src int) bool
}

// Validate reports configuration errors.
func (c *IncastConfig) Validate() error {
	switch {
	case len(c.Hosts) < 2:
		return fmt.Errorf("workload: incast needs at least 2 hosts")
	case c.Fanout < 1 || c.Fanout >= len(c.Hosts):
		return fmt.Errorf("workload: fanout %d must be in [1, len(hosts))", c.Fanout)
	case c.RequestBytes < int64(c.Fanout):
		return fmt.Errorf("workload: request of %d bytes too small for fanout %d", c.RequestBytes, c.Fanout)
	case math.IsNaN(c.QueryRate) || math.IsInf(c.QueryRate, 0) || c.QueryRate <= 0:
		return fmt.Errorf("workload: query rate %v must be finite and positive", c.QueryRate)
	case c.Window <= 0:
		return fmt.Errorf("workload: window must be positive")
	case c.IDTag == 0:
		return fmt.Errorf("workload: IDTag must be non-zero")
	default:
		return nil
	}
}

// Query tracks one fan-in request: it completes when all of its flows have
// completed, and its response time is the max FCT among them (the paper's
// "actual response latency").
type Query struct {
	// ID numbers queries in issue order.
	ID int
	// Target is the requesting server.
	Target int
	// Issued is when the query (and all its flows) started.
	Issued sim.Time
	// Done is when the last flow finished (valid once Complete).
	Done sim.Time
	// Complete reports whether every flow has finished.
	Complete bool

	pending int
}

// ResponseTime returns the query latency (valid once Complete).
func (q *Query) ResponseTime() sim.Duration { return q.Done - q.Issued }

// Incast drives the query workload.
type Incast struct {
	cfg  IncastConfig
	eng  *sim.Engine
	sink Sink

	queries []*Query
	flowToQ map[pkt.FlowID]*Query
	// FlowsGenerated counts responder flows started.
	FlowsGenerated uint64
	// Ticks counts the query chain's executed engine events. A sharded run
	// replicates the chain on every shard, and Result.Events counts one
	// replica's.
	Ticks uint64
}

// NewIncast builds the generator; call Install to schedule queries, and
// route flow completions to OnFlowComplete.
func NewIncast(eng *sim.Engine, sink Sink, cfg IncastConfig) (*Incast, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Incast{cfg: cfg, eng: eng, sink: sink, flowToQ: make(map[pkt.FlowID]*Query)}, nil
}

// flowID mints the ID of the launched-th responder flow of query q.
func (g *Incast) flowID(q *Query, launched int) pkt.FlowID {
	if q.ID >= 1<<40 || launched >= 1<<16 {
		panic(fmt.Sprintf("workload: structured incast flow ID overflow (query=%d idx=%d)", q.ID, launched))
	}
	return pkt.FlowID(uint64(g.cfg.IDTag)<<56 | uint64(q.ID)<<16 | uint64(launched))
}

// Install schedules the Poisson query stream. Queries are issued for
// cfg.Window of simulated time from the moment Install is called.
func (g *Incast) Install() {
	meanGap := sim.Duration(float64(sim.Second) / g.cfg.QueryRate)
	arrivals := g.eng.Rand(g.cfg.StreamName + "/queries")
	picks := g.eng.Rand(g.cfg.StreamName + "/picks")

	start := g.eng.Now()
	var tick func()
	tick = func() {
		g.Ticks++
		if g.eng.Now()-start >= g.cfg.Window {
			return
		}
		g.issue(picks)
		g.eng.Schedule(arrivals.ExpDuration(meanGap), tick)
	}
	g.eng.Schedule(arrivals.ExpDuration(meanGap), tick)
}

// issue launches one query: Fanout responders each send an equal shard to
// the target at the same instant (the paper's synchronized fan-in burst).
func (g *Incast) issue(picks *sim.Rand) {
	target := g.cfg.Hosts[picks.Intn(len(g.cfg.Hosts))]
	q := &Query{ID: len(g.queries), Target: target, Issued: g.eng.Now(), pending: g.cfg.Fanout}
	g.queries = append(g.queries, q)

	shard := g.cfg.RequestBytes / int64(g.cfg.Fanout)
	perm := picks.Perm(len(g.cfg.Hosts))
	launched := 0
	for _, idx := range perm {
		responder := g.cfg.Hosts[idx]
		if responder == target {
			continue
		}
		f := &transport.Flow{
			ID:       g.flowID(q, launched),
			Src:      responder,
			Dst:      target,
			Size:     shard,
			Priority: g.cfg.Priority,
			Class:    g.cfg.Class,
			Start:    g.eng.Now(),
		}
		g.flowToQ[f.ID] = q
		g.FlowsGenerated++
		if g.cfg.LaunchFilter == nil || g.cfg.LaunchFilter(responder) {
			if g.cfg.Observer != nil {
				g.cfg.Observer(f)
			}
			g.sink.StartFlow(f)
		}
		launched++
		if launched == g.cfg.Fanout {
			break
		}
	}
}

// OnFlowComplete notifies the generator that a flow finished; unknown flows
// (background traffic) are ignored.
func (g *Incast) OnFlowComplete(id pkt.FlowID, at sim.Time) {
	q, ok := g.flowToQ[id]
	if !ok {
		return
	}
	delete(g.flowToQ, id)
	q.pending--
	if at > q.Done {
		q.Done = at
	}
	if q.pending == 0 {
		q.Complete = true
	}
}

// Queries returns all issued queries (completed or not).
func (g *Incast) Queries() []*Query { return g.queries }

// InLockstep reports whether replica issued the query sequence g did.
// Replicated generators (one per shard, identical draws on identically-seeded
// engines, disjoint LaunchFilters) agree on every query's ID, target and issue
// time by construction, which is what lets one replica stand for all of them;
// a difference is a lost-lockstep bug, returned as an error naming the first
// query that differs.
func (g *Incast) InLockstep(replica *Incast) error {
	if len(replica.queries) != len(g.queries) {
		return fmt.Errorf("workload: incast replicas issued %d vs %d queries", len(g.queries), len(replica.queries))
	}
	for i, q := range g.queries {
		if r := replica.queries[i]; r.ID != q.ID || r.Target != q.Target || r.Issued != q.Issued {
			return fmt.Errorf("workload: incast replicas diverged at query %d", i)
		}
	}
	return nil
}

// CompletedResponseTimes returns the response times of completed queries.
func (g *Incast) CompletedResponseTimes() []sim.Duration {
	var out []sim.Duration
	for _, q := range g.queries {
		if q.Complete {
			out = append(out, q.ResponseTime())
		}
	}
	return out
}
