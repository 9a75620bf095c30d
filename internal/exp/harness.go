package exp

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"
)

// Harness executes the rows of Experiments over a shared worker pool and
// accumulates cross-experiment cost accounting (total points and
// simulated events), from which callers derive aggregate events/s across
// workers. The zero value is valid and uses GOMAXPROCS workers.
//
// Rendered output is byte-identical for any worker count: points are
// collated and progress lines emitted in spec order (see Pool).
type Harness struct {
	// Workers bounds concurrently running simulation points; <= 0 means
	// runtime.GOMAXPROCS(0), 1 restores strictly sequential execution.
	Workers int
	// Ctx, when non-nil, cancels in-flight grids externally.
	Ctx context.Context
	// Trace, when non-nil, arms the flight recorder on every point the
	// harness runs (specs with their own TraceSpec keep it).
	Trace *TraceSpec
	// TraceDir, when non-empty, exports each traced point there after its
	// grid completes as one columnar <NNN>-<stem>.col file (Result.WriteCol;
	// read it with cmd/l2bmtrace), NNN a running point number so names are
	// unique and worker-count independent.
	TraceDir string
	// Shards, when >= 1, runs every point — or every packet segment of a
	// hybrid-fidelity point — on that many psim shards (specs carrying their
	// own Shards keep it); 0 leaves each point to size itself to the cores the
	// pool leaves idle — one engine per point when the grid fills the
	// machine. Results are byte-identical for any legal shard count, so tables
	// and progress lines do not change — only wall clock does.
	Shards int
	// Fidelity, when non-empty, selects the execution engine for every
	// point (specs carrying their own Fidelity keep it): FidelityPacket
	// simulates every MTU, FidelityHybrid fast-forwards steady-state spans
	// through the fluid layer. Unlike Shards, hybrid fidelity changes
	// results — within the divergence bound DESIGN.md §14 states.
	Fidelity string
	// Cache, when non-nil, is consulted per point: a point it holds is
	// restored instead of simulated (byte-identical output either way), and
	// every point that does run is stored by the worker that finished it. A
	// disk-backed cache (Cache.Dir != "") makes every grid crash-resumable —
	// a kill loses only the points still running — and such a grid refuses
	// upfront a spec the store cannot hold (PolicyFactory, TopoOverride,
	// Hooks, or tracing — including Harness.Trace) rather than
	// resume it wrongly. A memory-only cache serves overlapping grids within
	// one process (Table II after Fig. 7) and lets unstorable points just run.
	Cache *ResultCache
	// KeepGoing degrades gracefully instead of halting: a failed point is
	// recorded and skipped, the rest of the grid still runs and emits, and
	// runAll returns a *FailureSummary. See Pool.KeepGoing.
	KeepGoing bool
	// PointTimeout bounds each point's wall-clock time; an overrun point
	// fails with *PointTimeoutError. Zero = unbounded. See Pool.PointTimeout.
	PointTimeout time.Duration

	points      atomic.Uint64
	restored    atomic.Uint64
	events      atomic.Uint64
	lineEvents  atomic.Uint64
	fallbacks   atomic.Uint64
	evicted     atomic.Uint64
	tracePoints int // points seen by trace export numbering (grids run sequentially)

	// What the conductors of the last grid's points that ran on several
	// engines did (collated after the grid, so plain fields).
	sharded ShardedRuns
}

// ShardedRuns sums, over a grid's points that ran on more than one engine, what
// their conductors did. Shards and Threads are the widest of them (Shards 0:
// no point was sharded); the rest are psim.Stats fields added up.
type ShardedRuns struct {
	Shards, Threads             int
	Epochs, InlineEpochs, Parks uint64
	Busy, Idle                  time.Duration
}

// Add counts res when it ran on more than one engine.
func (s *ShardedRuns) Add(res *Result) {
	if res.Shards <= 1 {
		return
	}
	c := &res.Conductor
	s.Shards, s.Threads = max(s.Shards, res.Shards), max(s.Threads, c.Threads)
	s.Epochs += c.Epochs
	s.InlineEpochs += c.InlineEpochs
	s.Parks += c.Parks
	s.Busy += c.Busy
	s.Idle += c.Idle
}

// String renders the timing-trailer note, "" when no point was sharded; the
// idle share is of the thread-time inside parallel epochs.
func (s ShardedRuns) String() string {
	if s.Shards == 0 {
		return ""
	}
	idle := 0.0
	if s.Busy+s.Idle > 0 {
		idle = 100 * s.Idle.Seconds() / (s.Busy + s.Idle).Seconds()
	}
	return fmt.Sprintf(", %d shards on %d threads, %d epochs (%d inline, %d parks, idle %.0f %%)",
		s.Shards, s.Threads, s.Epochs, s.InlineEpochs, s.Parks, idle)
}

// NewHarness returns a harness with the given worker bound (<= 0 means
// GOMAXPROCS).
func NewHarness(workers int) *Harness { return &Harness{Workers: workers} }

func (h *Harness) context() context.Context {
	if h.Ctx != nil {
		return h.Ctx
	}
	return context.Background()
}

// Run executes the named row of Experiments at the given scale: its grid
// fans out across the pool (progress lines through the pool's in-order emit),
// then its tables render to w. policies restricts the arena's field (nil =
// every registered policy); other experiments ignore it. The specs come back
// with the harness defaults applied, results[i] being specs[i]'s; tables are
// rendered only when every point succeeded.
func (h *Harness) Run(name string, scale Scale, policies []string, w io.Writer) ([]HybridSpec, []*Result, error) {
	for _, e := range Experiments {
		if e.Name == name {
			return h.run(e, scale, policies, w)
		}
	}
	return nil, nil, fmt.Errorf("exp: unknown experiment %q", name)
}

func (h *Harness) run(e Experiment, scale Scale, policies []string, w io.Writer) ([]HybridSpec, []*Result, error) {
	specs, err := e.Grid(scale, policies)
	if err != nil {
		return nil, nil, err
	}
	var emit EmitFunc
	if e.Progress != nil {
		emit = func(i int, res *Result) { fmt.Fprintln(w, e.Progress(specs[i], res)) }
	}
	results, err := h.runAll(specs, emit)
	if err != nil {
		return nil, nil, err
	}
	return specs, results, e.Render(w, scale, specs, results)
}

// runAll fans the specs out across the pool and returns their results in
// spec order; emit (optional) observes points in spec order.
func (h *Harness) runAll(specs []HybridSpec, emit EmitFunc) ([]*Result, error) {
	// One upfront pass: the harness's defaults land on every spec that does
	// not set its own, then what no point could survive is refused before
	// the pool starts.
	storing := h.Cache != nil && h.Cache.Dir != ""
	for i := range specs {
		sp := &specs[i]
		if sp.Trace == nil {
			sp.Trace = h.Trace
		}
		if sp.Shards == 0 && h.Shards >= 1 { // a spec with no shard count takes the harness's
			sp.Shards = h.Shards
		}
		if sp.Fidelity == "" {
			sp.Fidelity = h.Fidelity
		}
		if why := checkpointIneligible(*sp); storing && why != "" {
			return nil, fmt.Errorf("exp: point %d carries %s, which does not serialize — run without -resume or drop the field", i, why)
		}
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("exp: point %d: %w", i, err)
		}
	}

	pool := &Pool{Workers: h.Workers, KeepGoing: h.KeepGoing, PointTimeout: h.PointTimeout}
	var restoredEvents atomic.Uint64
	results, stats, err := pool.Run(h.context(), len(specs),
		func(ctx context.Context, i int) (*Result, error) {
			res, hit, err := h.Cache.GetOrRun(ctx, specs[i])
			if hit {
				h.restored.Add(1)
				restoredEvents.Add(res.Events)
			}
			return res, err
		},
		emit)
	h.points.Add(uint64(stats.Points))
	h.events.Add(stats.Events - restoredEvents.Load())
	h.sharded = ShardedRuns{}
	for _, res := range results {
		if res == nil {
			continue
		}
		if res.FidelityFallback != "" {
			h.fallbacks.Add(1)
		}
		h.evicted.Add(res.Trace.Stats().Evicted())
		h.lineEvents.Add(res.Conductor.LineEvents) // zero on a restored point
		h.sharded.Add(res)
	}
	if err == nil && h.TraceDir != "" {
		base := h.tracePoints
		h.tracePoints += len(results)
		for i, res := range results {
			if res == nil || res.Trace == nil {
				continue
			}
			path := filepath.Join(h.TraceDir, fmt.Sprintf("%03d-%s.col", base+i, res.TraceFileStem()))
			if werr := writeColFile(path, res); werr != nil {
				return results, fmt.Errorf("exp: trace export: %w", werr)
			}
		}
	}
	return results, err
}

// TotalPoints returns how many simulation points completed so far.
func (h *Harness) TotalPoints() uint64 { return h.points.Load() }

// RestoredPoints returns how many of those points Cache served instead of
// the simulator.
func (h *Harness) RestoredPoints() uint64 { return h.restored.Load() }

// TotalEvents returns the simulated-event count accumulated across all
// points that actually ran (a restored point cost no events) — divide by
// wall time for aggregate events/s.
func (h *Harness) TotalEvents() uint64 { return h.events.Load() }

// LineEvents returns how many of TotalEvents the engines dispatched off
// their delay lines.
func (h *Harness) LineEvents() uint64 { return h.lineEvents.Load() }

// FidelityFallbacks returns how many completed points recorded a
// Result.FidelityFallback — hybrid-fidelity requests that ran at packet
// fidelity because a fault plan pinned them there. CLI trailers print the
// delta so the fallback is never silent.
func (h *Harness) FidelityFallbacks() uint64 { return h.fallbacks.Load() }

// TraceRowsEvicted returns how many flight-recorder rows the completed
// points' rings discarded (TraceSpec.Capacity overflowed): non-zero means
// some exported trace holds only the newest part of its run.
func (h *Harness) TraceRowsEvicted() uint64 { return h.evicted.Load() }

// Sharded returns what the conductors of the last grid's points that ran on
// more than one engine did — how a user on an oversubscribed box sees why a
// run was not faster (call between grids).
func (h *Harness) Sharded() ShardedRuns { return h.sharded }

// MemSnapshot freezes the process-wide allocation counters so a caller can
// report the memory cost of a bounded stretch of work (one experiment). The
// perf-trajectory harness prints the delta next to events/s: allocations per
// simulated event is the number the zero-allocation fast path drives down.
type MemSnapshot struct {
	// Mallocs is the cumulative heap-object allocation count.
	Mallocs uint64
	// TotalAlloc is the cumulative bytes allocated on the heap.
	TotalAlloc uint64
	// NumGC is the completed GC cycle count.
	NumGC uint32
}

// TakeMemSnapshot reads the runtime allocation counters (no stop-the-world;
// ReadMemStats is cheap relative to an experiment run).
func TakeMemSnapshot() MemSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MemSnapshot{Mallocs: ms.Mallocs, TotalAlloc: ms.TotalAlloc, NumGC: ms.NumGC}
}

// MemLine renders the allocation cost since the snapshot alongside the
// simulated-event count: allocations, bytes, GC cycles and allocs per event.
// The line is wall-clock independent but NOT deterministic across pool
// configurations (that is its purpose), so determinism diffs must exclude it
// the same way they exclude the timing trailer.
func (m MemSnapshot) MemLine(events uint64) string {
	cur := TakeMemSnapshot()
	allocs := cur.Mallocs - m.Mallocs
	bytes := cur.TotalAlloc - m.TotalAlloc
	gcs := cur.NumGC - m.NumGC
	perEvent := 0.0
	if events > 0 {
		perEvent = float64(allocs) / float64(events)
	}
	return fmt.Sprintf("(mem: %d allocs, %d bytes, %d GC cycles, %.3f allocs/event)",
		allocs, bytes, gcs, perEvent)
}
