package exp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestPoolContainsPanics: a panicking point becomes a *PanicError carrying
// the point index and stack, instead of killing the process.
func TestPoolContainsPanics(t *testing.T) {
	p := &Pool{Workers: 4}
	_, _, err := p.Run(context.Background(), 8,
		func(_ context.Context, i int) (*Result, error) {
			if i == 3 {
				panic("seeded explosion")
			}
			return &Result{}, nil
		}, nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Point != 3 || fmt.Sprint(pe.Value) != "seeded explosion" {
		t.Errorf("PanicError = {Point:%d Value:%v}", pe.Point, pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "pool_robust_test") {
		t.Errorf("stack does not reach the panic site:\n%s", pe.Stack)
	}
}

// TestPoolKeepGoing: failures neither cancel the grid nor suppress later
// successes; the returned results keep every success and the error
// inventories every failure.
func TestPoolKeepGoing(t *testing.T) {
	const n = 16
	p := &Pool{Workers: 4, KeepGoing: true}
	var emitted []int
	results, stats, err := p.Run(context.Background(), n,
		func(_ context.Context, i int) (*Result, error) {
			switch i {
			case 2:
				return nil, errors.New("hard failure")
			case 5:
				panic("boom")
			}
			return &Result{Events: 1}, nil
		},
		func(i int, r *Result) { emitted = append(emitted, i) })

	var fs *FailureSummary
	if !errors.As(err, &fs) {
		t.Fatalf("err = %v, want *FailureSummary", err)
	}
	if len(fs.Failures) != 2 || fs.Failures[0].Point != 2 || fs.Failures[1].Point != 5 || fs.Total != n {
		t.Errorf("FailureSummary = %+v", fs)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Point != 5 {
		t.Errorf("summary does not unwrap to the panic: %v", err)
	}
	if results == nil || stats.Points != n-2 {
		t.Fatalf("results=%v stats.Points=%d, want %d successes returned", results != nil, stats.Points, n-2)
	}
	for i, r := range results {
		failed := i == 2 || i == 5
		if (r == nil) != failed {
			t.Errorf("results[%d] nil=%v, failed=%v", i, r == nil, failed)
		}
	}
	if len(emitted) != n-2 {
		t.Errorf("emitted %v: want all %d successes, failures skipped", emitted, n-2)
	}
}

// TestPoolPointTimeout: a point that overruns its wall-clock budget fails
// with *PointTimeoutError — a real failure, not a cancellation artifact —
// while fast points are untouched.
func TestPoolPointTimeout(t *testing.T) {
	p := &Pool{Workers: 2, PointTimeout: 10 * time.Millisecond, KeepGoing: true}
	results, _, err := p.Run(context.Background(), 4,
		func(ctx context.Context, i int) (*Result, error) {
			if i == 1 {
				<-ctx.Done() // a well-behaved long point observes its context
				return nil, ctx.Err()
			}
			return &Result{}, nil
		}, nil)
	var te *PointTimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *PointTimeoutError", err)
	}
	if te.Point != 1 || te.Limit != 10*time.Millisecond {
		t.Errorf("PointTimeoutError = %+v", te)
	}
	for i, r := range results {
		if (r == nil) != (i == 1) {
			t.Errorf("results[%d] nil=%v", i, r == nil)
		}
	}
}

// TestPoolExternalCancelNotTimeout: sweep-level cancellation must surface
// as the context error even with PointTimeout armed — never misreported as
// a per-point timeout.
func TestPoolExternalCancelNotTimeout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{Workers: 1, PointTimeout: time.Minute}
	_, _, err := p.Run(ctx, 3,
		func(pctx context.Context, i int) (*Result, error) {
			if i == 0 {
				cancel()
				<-pctx.Done()
				return nil, pctx.Err()
			}
			return &Result{}, nil
		}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var te *PointTimeoutError
	if errors.As(err, &te) {
		t.Errorf("external cancel misreported as point timeout: %v", err)
	}
}
