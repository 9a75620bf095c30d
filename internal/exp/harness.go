package exp

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"l2bm/internal/psim"
)

// Harness executes the rows of Experiments over a shared worker pool. It
// keeps no counters: what a grid cost is TallyResults over the results Run
// returns. The zero value is valid and uses GOMAXPROCS workers.
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
	// Cache, when non-nil, is consulted per point: a point it holds is
	// restored instead of simulated (byte-identical output either way), and
	// every point that does run is stored by the worker that finished it. A
	// disk-backed cache (Cache.Dir != "") makes every grid crash-resumable —
	// a kill loses only the points still running — and such a grid refuses
	// upfront a spec the store cannot hold (PolicyFactory, Hooks, or
	// tracing — including Harness.Trace) rather than resume it wrongly; a
	// TopoOverride point is stored under the fabric it yields. A memory-only
	// cache serves overlapping grids within one process (Table II after
	// Fig. 7) and lets unstorable points just run.
	Cache *ResultCache
	// KeepGoing degrades gracefully instead of halting: a failed point is
	// recorded and skipped, the rest of the grid still runs and emits, and
	// runAll returns a *FailureSummary. See Pool.KeepGoing.
	KeepGoing bool
	// PointTimeout bounds each point's wall-clock time; an overrun point
	// fails with *PointTimeoutError. Zero = unbounded. See Pool.PointTimeout.
	PointTimeout time.Duration

	tracePoints int // points seen by trace export numbering (grids run sequentially)
}

// Tally is what a grid's points cost, summed from its results alone.
type Tally struct {
	// Points counts the results; Restored, those ResultCache served instead
	// of the simulator.
	Points, Restored uint64
	// Events sums the simulated events of the points that ran (a restored
	// point cost none) — divide by wall time for aggregate events/s.
	Events uint64
	// TraceRowsEvicted counts the flight-recorder rows the points' rings
	// discarded: non-zero means some exported trace holds only the newest
	// part of its run.
	TraceRowsEvicted uint64
	// Conductors folds the points' psim.Stats (zero on a restored point).
	Conductors psim.Stats
}

// TallyResults sums a grid's results, skipping nil entries (failed points of
// a KeepGoing run). It is the one place a grid is counted.
func TallyResults(results []*Result) Tally {
	var t Tally
	for _, res := range results {
		if res == nil {
			continue
		}
		t.Points++
		if res.Restored {
			t.Restored++
		} else {
			t.Events += res.Events
		}
		t.TraceRowsEvicted += res.Trace.Stats().Evicted()
		t.Conductors.Add(res.Conductor)
	}
	return t
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
	// One upfront pass: the harness's trace lands on every spec that does
	// not arm its own, then what no point could survive is refused before
	// the pool starts.
	storing := h.Cache != nil && h.Cache.Dir != ""
	for i := range specs {
		sp := &specs[i]
		if sp.Trace == nil {
			sp.Trace = h.Trace
		}
		if why := checkpointIneligible(*sp); storing && why != "" {
			return nil, fmt.Errorf("exp: point %d carries %s, which does not serialize — run without -resume or drop the field", i, why)
		}
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("exp: point %d: %w", i, err)
		}
	}

	pool := &Pool{Workers: h.Workers, KeepGoing: h.KeepGoing, PointTimeout: h.PointTimeout}
	results, _, err := pool.Run(h.context(), len(specs),
		func(ctx context.Context, i int) (*Result, error) { return h.Cache.GetOrRun(ctx, specs[i]) },
		emit)
	if err == nil && h.TraceDir != "" {
		base := h.tracePoints
		h.tracePoints += len(results)
		for i, res := range results {
			if res == nil || res.Trace == nil {
				continue
			}
			path := filepath.Join(h.TraceDir, fmt.Sprintf("%03d-%s.col", base+i, res.TraceFileStem(specs[i])))
			if werr := writeColFile(path, res); werr != nil {
				return results, fmt.Errorf("exp: trace export: %w", werr)
			}
		}
	}
	return results, err
}

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
