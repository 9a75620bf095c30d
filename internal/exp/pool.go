package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a bounded scheduler for independent simulation points. Every
// point of a figure/table grid is a self-contained simulation (its own
// engines, cluster, RNG streams and recorder), so a grid can fan out across
// cores with no coordination beyond collation. Each point's context says how
// many cores are its to take — GOMAXPROCS over the workers actually running
// — so a point that sizes itself (HybridSpec.Shards == 0) spreads over the
// machine only when the grid is too small to fill it, and a sharded point of
// either kind runs its shards on no more threads than its share.
//
// Determinism contract: results are collated in point-index order and the
// emit callback fires from the collator in strictly ascending index order,
// so the rendered artifacts are byte-identical regardless of worker count
// or completion order. On failure the lowest-index point error wins (also
// order-independent: indices are claimed ascending, so every point below a
// failed one has already run to completion), and remaining unstarted work
// is cancelled via context.
type Pool struct {
	// Workers bounds concurrently running points; <= 0 means
	// runtime.GOMAXPROCS(0). Workers == 1 reproduces strictly sequential
	// execution.
	Workers int
	// KeepGoing selects graceful degradation: a failed point no longer
	// cancels the rest of the grid — every point runs, successful points
	// past a failure are still emitted (the failed index itself is not),
	// and Run returns the successful results alongside a *FailureSummary
	// aggregating every failure. Long soaks and chaos sweeps use this so
	// one bad point cannot waste hours of completed work.
	KeepGoing bool
	// PointTimeout bounds each point's wall-clock time (0 = unbounded).
	// The point's context expires at the deadline; a point that honors it
	// (RunHybridCtx does) fails with a *PointTimeoutError — a real point
	// failure, never mistaken for external cancellation of the sweep.
	PointTimeout time.Duration
}

// PanicError is a point panic converted into an error: the pool contains
// panics so one exploding point cannot take down a long sweep, and the
// stack survives into the failure report instead of dying with the worker.
type PanicError struct {
	Point int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("point %d panicked: %v\n%s", e.Point, e.Value, e.Stack)
}

// PointTimeoutError marks a point cancelled by Pool.PointTimeout. It is
// deliberately NOT errors.Is-equal to context.DeadlineExceeded: the error-
// precedence pass treats context errors as cancellation artifacts, and a
// timed-out point is a real failure.
type PointTimeoutError struct {
	Point int
	Limit time.Duration
}

func (e *PointTimeoutError) Error() string {
	return fmt.Sprintf("point %d exceeded the per-point timeout %v", e.Point, e.Limit)
}

// PointFailure pairs a failed grid index with its error.
type PointFailure struct {
	Point int
	Err   error
}

// FailureSummary aggregates every failed point of a KeepGoing run.
type FailureSummary struct {
	// Failures holds the failed points in ascending index order.
	Failures []PointFailure
	// Total is the grid size, for "k of n failed" reporting.
	Total int
}

func (e *FailureSummary) Error() string {
	s := fmt.Sprintf("%d of %d points failed; first: point %d: %v",
		len(e.Failures), e.Total, e.Failures[0].Point, e.Failures[0].Err)
	if len(e.Failures) > 1 {
		s += fmt.Sprintf(" (and %d more)", len(e.Failures)-1)
	}
	return s
}

// Unwrap exposes the per-point errors to errors.Is / errors.As.
func (e *FailureSummary) Unwrap() []error {
	errs := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		errs[i] = f.Err
	}
	return errs
}

// PointFunc computes grid point i. It must be self-contained: no shared
// mutable state with other points (exp.RunHybrid satisfies this). The
// context is cancelled once any point fails; long-running points may
// observe it, but are also free to run to completion.
type PointFunc func(ctx context.Context, i int) (*Result, error)

// EmitFunc observes finished points. It is invoked from a single collator
// goroutine in strictly ascending index order (never concurrently), which
// is what keeps progress output deterministic under parallelism. After the
// first failed index, no further points are emitted.
type EmitFunc func(i int, r *Result)

// PoolStats summarizes one Run; what its points cost is TallyResults.
type PoolStats struct {
	// Points is the number of points that completed successfully.
	Points int
	// Workers is the effective worker count used.
	Workers int
}

// size resolves the effective worker count for an n-point grid.
func (p *Pool) size(n int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// Run executes point(0..n-1) on at most p.Workers goroutines and returns
// the results keyed by grid index, in index order. The first error (by
// index) wins; in-flight points finish, unstarted points are cancelled.
// Run does not return until every worker goroutine has exited.
func (p *Pool) Run(ctx context.Context, n int, point PointFunc, emit EmitFunc) ([]*Result, PoolStats, error) {
	stats := PoolStats{Workers: p.size(n)}
	if n <= 0 {
		return nil, stats, ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ctx = context.WithValue(ctx, coresKey{}, max(1, coresAvailable(ctx)/stats.Workers))

	results := make([]*Result, n)
	errs := make([]error, n)
	var next atomic.Int64
	done := make(chan int, n)

	var wg sync.WaitGroup
	for w := 0; w < stats.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					// Unstarted point skipped by cancellation; never
					// preferred over a real point error (see below).
					errs[i] = err
					done <- i
					continue
				}
				res, err := p.runPoint(ctx, point, i)
				results[i], errs[i] = res, err
				if err != nil && !p.KeepGoing {
					cancel()
				}
				done <- i
			}
		}()
	}

	// Collate on the calling goroutine: flush the emit callback for the
	// longest error-free ready prefix so observers see points in spec
	// order no matter when workers finish them.
	ready := make([]bool, n)
	flushed, halted := 0, false
	for received := 0; received < n; received++ {
		i := <-done
		ready[i] = true
		for flushed < n && ready[flushed] {
			if errs[flushed] != nil && !p.KeepGoing {
				halted = true
			}
			if emit != nil && !halted && errs[flushed] == nil {
				emit(flushed, results[flushed])
			}
			flushed++
		}
	}
	wg.Wait()
	for _, r := range results {
		if r != nil {
			stats.Points++
		}
	}

	// Lowest-index real failure wins deterministically. Indices are
	// claimed in ascending order and (without KeepGoing) in-flight points
	// always finish, so every point below a failed index holds its true
	// outcome, not a cancellation artifact.
	var fails []PointFailure
	for i, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			fails = append(fails, PointFailure{Point: i, Err: err})
		}
	}
	if len(fails) > 0 {
		if p.KeepGoing {
			// Degrade gracefully: hand back what succeeded with the full
			// failure inventory; callers decide how loudly to fail.
			return results, stats, &FailureSummary{Failures: fails, Total: n}
		}
		return nil, stats, fmt.Errorf("point %d: %w", fails[0].Point, fails[0].Err)
	}
	for _, err := range errs {
		if err != nil { // external cancellation only
			return nil, stats, err
		}
	}
	return results, stats, nil
}

// runPoint executes one point with the pool's robustness wrappers: the
// per-point wall-clock deadline, and panic containment (a panic becomes a
// *PanicError carrying the stack).
func (p *Pool) runPoint(parent context.Context, point PointFunc, i int) (res *Result, err error) {
	ctx := parent
	if p.PointTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, p.PointTimeout)
		defer cancel()
	}
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, &PanicError{Point: i, Value: v, Stack: debug.Stack()}
		}
	}()
	res, err = point(ctx, i)
	if err != nil && p.PointTimeout > 0 &&
		errors.Is(err, context.DeadlineExceeded) && parent.Err() == nil {
		// The per-point deadline (not the sweep context) expired: surface
		// it as a real failure so cancellation filtering can't hide it.
		err = &PointTimeoutError{Point: i, Limit: p.PointTimeout}
	}
	return res, err
}
