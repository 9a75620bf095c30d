package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolCollatesInOrder: results come back keyed by grid index and the
// emit callback sees strictly ascending indices, whatever the completion
// order.
func TestPoolCollatesInOrder(t *testing.T) {
	const n = 32
	p := &Pool{Workers: 8}
	var emitted []int
	results, stats, err := p.Run(context.Background(), n,
		func(_ context.Context, i int) (*Result, error) {
			// Reverse the finishing order: high indices finish first.
			time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
			return &Result{Events: uint64(i)}, nil
		},
		func(i int, r *Result) {
			if r.Events != uint64(i) {
				t.Errorf("emit(%d) got result of point %d", i, r.Events)
			}
			emitted = append(emitted, i) // single collator: no lock needed
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n || stats.Points != n {
		t.Fatalf("collated %d results, stats %d, want %d", len(results), stats.Points, n)
	}
	for i, r := range results {
		if r.Events != uint64(i) {
			t.Errorf("results[%d] holds point %d", i, r.Events)
		}
	}
	for i, e := range emitted {
		if e != i {
			t.Fatalf("emit order %v not ascending", emitted)
		}
	}
}

// TestPoolFirstErrorWinsAndCancels: an injected point error aborts the
// pool promptly (unstarted points are skipped), the lowest-index error is
// reported deterministically, emit stops at the failed prefix, and no
// worker goroutines leak.
func TestPoolFirstErrorWinsAndCancels(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("boom")
	const n = 200
	var ran atomic.Int32
	var emitted []int
	p := &Pool{Workers: 4}
	_, _, err := p.Run(context.Background(), n,
		func(ctx context.Context, i int) (*Result, error) {
			ran.Add(1)
			if i == 5 || i == 9 {
				return nil, fmt.Errorf("point body %d: %w", i, boom)
			}
			time.Sleep(200 * time.Microsecond)
			return &Result{}, nil
		},
		func(i int, r *Result) { emitted = append(emitted, i) })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	// Lowest failing index wins even if point 9 finished first.
	if !strings.Contains(err.Error(), "point 5:") {
		t.Errorf("err = %v, want the point-5 failure to win", err)
	}
	if got := ran.Load(); got == n {
		t.Error("cancellation never kicked in: every point ran")
	}
	// Emit must cover exactly the clean prefix [0, 5).
	if len(emitted) != 5 {
		t.Errorf("emitted %v, want exactly points 0-4", emitted)
	}
	// No leaked workers: Run waits for its goroutines before returning.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestPoolExternalCancellation: a cancelled parent context surfaces as an
// error without running the remaining points.
func TestPoolExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	p := &Pool{Workers: 2}
	_, _, err := p.Run(ctx, 50, func(ctx context.Context, i int) (*Result, error) {
		if ran.Add(1) == 3 {
			cancel()
		}
		time.Sleep(100 * time.Microsecond)
		return &Result{}, nil
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() == 50 {
		t.Error("external cancel did not stop the grid")
	}
}

// TestPoolEmptyAndSequential covers the degenerate shapes.
func TestPoolEmptyAndSequential(t *testing.T) {
	p := &Pool{Workers: 1}
	results, stats, err := p.Run(context.Background(), 0,
		func(_ context.Context, i int) (*Result, error) { return &Result{}, nil }, nil)
	if err != nil || results != nil || stats.Points != 0 {
		t.Errorf("empty grid: results=%v stats=%+v err=%v", results, stats, err)
	}
	// Workers=1 must execute strictly sequentially, in order.
	var order []int
	_, _, err = p.Run(context.Background(), 5, func(_ context.Context, i int) (*Result, error) {
		order = append(order, i) // safe: single worker
		return &Result{}, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential execution order %v", order)
		}
	}
	if got := (&Pool{}).size(100); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default pool size = %d, want GOMAXPROCS", got)
	}
	if got := (&Pool{Workers: 64}).size(3); got != 3 {
		t.Errorf("size clamps to grid: got %d, want 3", got)
	}
}

// TestSweepParallelDeterminism is the tentpole contract: the same sweep at
// workers=1 and workers=8 renders byte-identical progress and tables, and
// every grid cell's headline metrics match exactly.
func TestSweepParallelDeterminism(t *testing.T) {
	parDet := Experiment{
		Name:     "par-det",
		Grid:     loadGrid("par-det", []string{"DT", "L2BM"}, []float64{0.2, 0.4}),
		Progress: loadProgress,
		Render: func(w io.Writer, _ Scale, specs []HybridSpec, results []*Result) error {
			return integrity("par-det integrity", specs, results, loadLabel).Fprint(w)
		},
	}
	run := func(workers int) (string, []HybridSpec, []*Result) {
		var buf bytes.Buffer
		specs, results, err := NewHarness(workers).run(parDet, ScaleTiny, nil, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return buf.String(), specs, results
	}
	out1, specs, r1 := run(1)
	out8, _, r8 := run(8)
	if out1 != out8 {
		t.Errorf("rendered output differs between workers=1 and workers=8:\n--- w1 ---\n%s\n--- w8 ---\n%s", out1, out8)
	}
	if len(r1) != 4 || strings.Count(out1, "  par-det ") != 4 {
		t.Fatalf("%d results and this output for a 2 x 2 grid:\n%s", len(r1), out1)
	}
	for i, a := range r1 {
		b := r8[i]
		if a.Events != b.Events || a.PauseFrames != b.PauseFrames ||
			a.FlowsCompleted != b.FlowsCompleted ||
			a.RDMAp99() != b.RDMAp99() || a.TCPp99() != b.TCPp99() {
			t.Errorf("%s diverged: events %d vs %d, pause %d vs %d",
				loadLabel(specs[i]), a.Events, b.Events, a.PauseFrames, b.PauseFrames)
		}
	}
}

// TestFig3bTableByteIdenticalAcrossWorkerCounts renders a full figure
// runner (tables + integrity) under both worker regimes.
func TestFig3bTableByteIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the motivation sweep twice")
	}
	render := func(workers int) string {
		var buf bytes.Buffer
		if _, _, err := NewHarness(workers).Run("fig3b", ScaleTiny, nil, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := render(1), render(8); a != b {
		t.Errorf("Fig 3(b) output differs by worker count:\n--- w1 ---\n%s\n--- w8 ---\n%s", a, b)
	}
}

// TestHarnessAccountsEvents: a grid's Tally sums the events of the points
// that ran, folds their conductor stats, and skips failed (nil) points and
// restored points' events.
func TestHarnessAccountsEvents(t *testing.T) {
	h := NewHarness(2)
	results, err := h.runAll([]HybridSpec{
		{Name: "acct", Policy: "DT", Scale: ScaleTiny, TCPLoad: 0.2},
		{Name: "acct", Policy: "L2BM", Scale: ScaleTiny, TCPLoad: 0.2},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tl := TallyResults(results)
	if want := results[0].Events + results[1].Events; tl.Events != want || tl.Points != 2 || tl.Restored != 0 {
		t.Errorf("tally %+v, want 2 points, none restored, %d events", tl, want)
	}
	if want := results[0].Conductor.Epochs + results[1].Conductor.Epochs; tl.Conductors.Epochs != want || tl.Conductors.Shards != 1 {
		t.Errorf("tally conductors %+v, want %d epochs on one shard", tl.Conductors, want)
	}
	restored := &Result{Events: 7, Restored: true}
	if got := TallyResults(append(results, nil, restored)); got.Points != 3 || got.Restored != 1 || got.Events != tl.Events {
		t.Errorf("tally with a failed and a restored point %+v, want 3 points, 1 restored, %d events", got, tl.Events)
	}
}
