package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"l2bm/internal/psim"
	"l2bm/internal/sim"
	"l2bm/internal/topo"
)

// procs sets GOMAXPROCS for the rest of the test. Tests that call it must
// not be parallel.
func procs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// pollCtx is a cancellable context whose Err is a hook: a run polls it
// between epochs and every few thousand events inside them, so the hook sees
// the run from the inside — and decides when it is cancelled.
type pollCtx struct {
	context.Context
	poll func() error
}

func (c pollCtx) Err() error { return c.poll() }

func newPollCtx(t *testing.T, poll func() error) pollCtx {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return pollCtx{Context: ctx, poll: poll}
}

// settledGoroutines polls until the goroutine count is back at or under
// want (a joined goroutine needs an instant to be retired) and returns it.
func settledGoroutines(want int) int {
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > want && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// TestShardedRunReleasesFabric: when RunHybrid at Shards 2 returns — finished
// or cancelled mid-run — the conductor's workers are gone, not merely told to
// go: a finalizer on the cluster's partition (a leaf every shard's closures
// point at; the cluster itself sits in a cycle with its engines' event
// closures, where a finalizer never runs) fires within two collections and
// the goroutine count is back where it was. While Close only closed the workers'
// channels their stacks could still hold the cluster when the caller's next
// collection ran, and six back-to-back 10k-host runs peaked at 58 MB where one
// engine peaks at 38.
func TestShardedRunReleasesFabric(t *testing.T) {
	procs(t, 2)
	for _, mode := range []string{"finished", "cancelled"} {
		before := runtime.NumGoroutine()
		freed := make(chan struct{})
		spec := shardSpec(2)
		spec.Hooks = &RunHooks{PostBuild: func(cl *topo.Cluster) {
			runtime.SetFinalizer(cl.Part, func(*topo.Partition) { close(freed) })
		}}
		var polls atomic.Int64 // both shards' threads poll
		ctx := newPollCtx(t, func() error {
			if polls.Add(1) > 1000 && mode == "cancelled" {
				return context.Canceled
			}
			return nil
		})
		res, err := RunHybridCtx(ctx, spec)
		switch {
		case mode == "finished" && (err != nil || res.Conductor.Epochs == res.Conductor.InlineEpochs):
			t.Fatalf("finished: err %v, conductor %+v, want a run with parallel epochs", err, res)
		case mode == "cancelled" && err != context.Canceled:
			t.Fatalf("cancelled: err %v", err)
		}
		res = nil
		runtime.GC()
		runtime.GC()
		select {
		case <-freed:
		case <-time.After(5 * time.Second):
			t.Errorf("%s: the cluster is still reachable two collections after the run returned", mode)
		}
		if n := settledGoroutines(before); n > before {
			t.Errorf("%s: %d goroutines after the run, %d before", mode, n, before)
		}
	}
}

// TestOneProcRunsOneEngine: with GOMAXPROCS 1 a self-sized run builds one
// engine and starts no goroutine — the path is the one-engine run's — and an
// explicit Shards 2 is honoured without one either (every epoch inline). The
// three results are the same bytes.
func TestOneProcRunsOneEngine(t *testing.T) {
	procs(t, 1)
	var bodies [][]byte
	for _, shards := range []int{0, 1, 2} {
		spec := shardSpec(shards)
		engines := 0
		spec.Hooks = &RunHooks{PostBuild: func(cl *topo.Cluster) { engines = len(cl.Engines) }}
		before := runtime.NumGoroutine()
		peak := before
		res, err := RunHybridCtx(newPollCtx(t, func() error {
			peak = max(peak, runtime.NumGoroutine())
			return nil
		}), spec)
		if err != nil {
			t.Fatal(err)
		}
		if want := max(shards, 1); engines != want || res.Conductor.Shards != want {
			t.Errorf("Shards %d on one proc: %d engines (Result.Conductor.Shards %d), want %d", shards, engines, res.Conductor.Shards, want)
		}
		if peak > before || res.Conductor.InlineEpochs != res.Conductor.Epochs {
			t.Errorf("Shards %d on one proc: %d goroutines at peak (%d before), %d of %d epochs inline",
				shards, peak, before, res.Conductor.InlineEpochs, res.Conductor.Epochs)
		}
		body, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) || !bytes.Equal(bodies[0], bodies[2]) {
		t.Error("result bytes differ between Shards 0, 1 and 2 on one proc")
	}
}

// TestOversubscribedRunsFinish: four self-sized runs at once on two procs are
// eight pinned threads for two cores. Each conductor finds its worker is not
// getting one (it outwaits the spin bound), drops to the inline loop and
// probes again later, so all four finish with the same bytes in about the
// time two cores need for four one-engine runs, not a spin bound per epoch.
// That time is twice one such run at best and reads 2.5–3× on a quiet box
// (BENCH_2026-10-04-pr24.json), up to 4.6× while `go test ./...` runs other
// packages' tests beside this one; without the fall-back every dense epoch
// (~1,500 here) waits out a spin bound or a scheduler quantum, 10× and more.
// The test fails at 6×.
func TestOversubscribedRunsFinish(t *testing.T) {
	procs(t, 2)
	run := func(shards int) []byte {
		res, err := RunHybrid(shardSpec(shards))
		if err != nil {
			t.Error(err)
			return nil
		}
		if want := 2 - shards; res.Conductor.Shards != want {
			t.Errorf("Shards %d on two procs ran on %d engines, want %d", shards, res.Conductor.Shards, want)
		}
		body, err := json.Marshal(res)
		if err != nil {
			t.Error(err)
		}
		return body
	}
	// Wall time on a shared box is noisy: the bound has to hold in one of
	// three attempts, the bytes in all of them.
	var ratios []float64
	for attempt := 0; attempt < 3 && !t.Failed(); attempt++ {
		t0 := time.Now()
		want := run(1)
		alone := time.Since(t0)

		t0 = time.Now()
		bodies := make([][]byte, 4)
		var wg sync.WaitGroup
		for i := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				bodies[i] = run(0)
			}()
		}
		wg.Wait()
		together := time.Since(t0)
		for i, body := range bodies {
			if !bytes.Equal(body, want) {
				t.Errorf("concurrent run %d: result bytes differ from one engine's", i)
			}
		}
		ratios = append(ratios, together.Seconds()/alone.Seconds())
		if together <= 6*alone {
			return
		}
	}
	t.Errorf("four concurrent self-sized runs took %.1fx one one-engine run's wall time in every attempt, want <= 6x once", ratios)
}

// TestSteeringUsesBothModes: a point whose window is dense and whose drain is
// sparse runs the first in parallel and the second inline, and says so on its
// Result; left alone, the density hysteresis gets there in a handful of
// switches. A run in which waits parked was disturbed — the box is busy with
// other packages' tests, or the race detector stretches an epoch's imbalance
// past the spin bound — and its probing for the second core switches too, so
// the handful is asked only of an undisturbed run, three attempts to get one.
func TestSteeringUsesBothModes(t *testing.T) {
	procs(t, 2)
	for attempt := 0; attempt < 3; attempt++ {
		res, err := RunHybrid(shardSpec(2))
		if err != nil {
			t.Fatal(err)
		}
		st := res.Conductor
		if par := st.Epochs - st.InlineEpochs; res.Conductor.Shards != 2 || par == 0 || st.InlineEpochs == 0 {
			t.Fatalf("%d shards, %d parallel and %d inline epochs, want both modes on two", res.Conductor.Shards, par, st.InlineEpochs)
		}
		if st.Parks > 4 {
			continue
		}
		if st.ModeSwitches > 10 {
			t.Errorf("%d mode switches in a run with %d parks, want <= 10", st.ModeSwitches, st.Parks)
		}
		return
	}
	t.Log("every attempt was disturbed (parked waits); the switch count was not judged")
}

// TestPoolSharesCores: a point inside a pool takes the cores the pool leaves
// idle. Two workers over eight points fill two procs, so every self-sized
// point runs on one engine, and an explicit Shards 2 runs both shards on one
// thread — every epoch inline, no wait parked (it used to size its threads to
// the procs, not its share, and fight the other worker for them); one point
// leaves a core idle and takes it.
func TestPoolSharesCores(t *testing.T) {
	procs(t, 2)
	for _, tc := range []struct{ workers, points, shards, engines int }{{2, 8, 0, 1}, {1, 8, 0, 2}, {2, 1, 0, 2}, {2, 8, 2, 2}} {
		var mu sync.Mutex
		var engines []int
		spec := HybridSpec{Name: "cores", Policy: "DT", Scale: ScaleSmall, RDMALoad: 0.4, TCPLoad: 0.8,
			WindowOverride: 500 * sim.Microsecond, DrainOverride: sim.Millisecond, Shards: tc.shards,
			Hooks: &RunHooks{PostBuild: func(cl *topo.Cluster) {
				mu.Lock()
				engines = append(engines, len(cl.Engines))
				mu.Unlock()
			}}}
		pool := &Pool{Workers: tc.workers}
		results, _, err := pool.Run(context.Background(), tc.points,
			func(ctx context.Context, _ int) (*Result, error) { return RunHybridCtx(ctx, spec) }, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(engines) != tc.points {
			t.Fatalf("%d workers, %d points: %d clusters built", tc.workers, tc.points, len(engines))
		}
		for _, n := range engines {
			if n != tc.engines {
				t.Errorf("%d workers, %d points: a point ran on %d engines, want %d", tc.workers, tc.points, n, tc.engines)
				break
			}
		}
		if tc.workers == 1 || tc.points == 1 {
			continue // the point may take both cores
		}
		for i, res := range results {
			if st := res.Conductor; st.InlineEpochs != st.Epochs || st.Parks != 0 || st.Threads != 1 {
				t.Errorf("%d workers, %d points at Shards %d: point %d ran %d of %d epochs inline on %d threads with %d parks, want all inline on one, none parked",
					tc.workers, tc.points, tc.shards, i, st.InlineEpochs, st.Epochs, st.Threads, st.Parks)
			}
		}
	}
}

// TestAutoShardsNeverSplitsAPod: a self-sized run on a fabric with hosts
// enough to be worth a barrier gets one shard per pod whenever it is granted
// a second core — 25 pods included, which no two-way split divides — and runs
// them on min(cores, pods) threads; with one core, and on the 8-host tiny
// fabric whatever the cores, it stays on one engine. A shard is a pod, so no
// pod is ever split and the lookahead stays the agg-core delay.
func TestAutoShardsNeverSplitsAPod(t *testing.T) {
	tiny := topo.TinyConfig()
	for _, pods := range []int{2, 10, 25} {
		cfg := topo.DefaultConfig()
		cfg.Pods, cfg.ToRCount, cfg.AggCount = pods, 2*pods, 2*pods
		engines := make([]*sim.Engine, pods)
		for i := range engines {
			engines[i] = sim.NewEngine(1)
		}
		for cores := 1; cores <= 8; cores++ {
			n, want := autoShards(&cfg, cores), 1
			if cores >= 2 {
				want = pods
			}
			if n != want {
				t.Errorf("%d pods, %d cores: %d shards, want %d", pods, cores, n, want)
			}
			if n := autoShards(&tiny, cores); n != 1 {
				t.Errorf("the tiny fabric sized itself to %d shards on %d cores, want 1", n, cores)
			}
			if th := psim.New(engines[:n], nil, 1, cores).Stats().Threads; th != min(cores, n) {
				t.Errorf("%d pods, %d cores: %d shards on %d threads, want %d", pods, cores, n, th, min(cores, n))
			}
			part, err := topo.ComputePartition(cfg, n)
			if err != nil {
				t.Fatalf("%d pods, %d shards: %v", pods, n, err)
			}
			for tor, shard := range part.ToR {
				if first := part.ToR[tor/2*2]; shard != first {
					t.Errorf("%d pods, %d shards: pod %d is split between shards %d and %d", pods, n, tor/2, first, shard)
				}
			}
		}
	}
}
