package psim

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"l2bm/internal/core"
	"l2bm/internal/host"
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/topo"
	"l2bm/internal/transport"
)

func dtFactory() core.Policy { return core.NewDT() }

// fingerprint captures everything a run can diverge on: every flow's
// completion instant, per-switch packet counters, and the lossless check.
type fingerprint struct {
	completions map[pkt.FlowID]sim.Time
	switches    string
	gaps        uint64
}

// runTiny is runFabric on the tiny cluster with the conductor as built.
func runTiny(t *testing.T, shards int, seed int64) fingerprint {
	t.Helper()
	fp, _ := runFabric(t, topo.TinyConfig(), shards, seed, nil)
	return fp
}

// runFabric builds cfg's cluster over the given shard count, launches one
// cross-pod flow per host at t=0 (every frame crosses the fabric; half the
// paths cross shards at 2 shards), runs to a horizon and fingerprints. tweak,
// when non-nil, adjusts the conductor before Run.
func runFabric(t *testing.T, cfg topo.Config, shards int, seed int64, tweak func(*Conductor)) (fingerprint, Stats) {
	t.Helper()
	cfg.PacketPoolDebug = true
	part, err := topo.ComputePartition(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*sim.Engine, shards)
	for i := range engines {
		engines[i] = sim.NewEngine(seed)
	}
	comps := make([]map[pkt.FlowID]sim.Time, shards)
	for i := range comps {
		m := make(map[pkt.FlowID]sim.Time)
		comps[i] = m
	}
	cl, err := topo.BuildSharded(engines, part, cfg, dtFactory,
		func(shard int) host.CompletionHandler {
			m := comps[shard]
			return func(id pkt.FlowID, at sim.Time) { m[id] = at }
		})
	if err != nil {
		t.Fatal(err)
	}

	n := cl.NumHosts()
	for i := 0; i < n; i++ {
		cl.StartFlow(&transport.Flow{
			ID: pkt.FlowID(i + 1), Src: i, Dst: (i + n/2) % n, Size: 50_000,
			Priority: pkt.PrioLossless, Class: pkt.ClassLossless,
		})
	}

	c := New(cl.Engines, cl.Inbound(), cl.Lookahead, runtime.GOMAXPROCS(0))
	defer c.Close()
	if tweak != nil {
		tweak(c)
	}
	c.Run(20 * sim.Millisecond)

	fp := fingerprint{completions: map[pkt.FlowID]sim.Time{}, gaps: cl.LosslessGaps()}
	for shard, m := range comps {
		for id, at := range m {
			if _, dup := fp.completions[id]; dup {
				t.Fatalf("flow %d completed on two shards", id)
			}
			// Completions are receiver-side: they land on the shard owning
			// the destination host.
			dst := (int(id-1) + n/2) % n
			if cl.Part.Host[dst] != shard {
				t.Fatalf("flow %d completed on shard %d, destination owned by %d",
					id, shard, cl.Part.Host[dst])
			}
			fp.completions[id] = at
		}
	}
	for _, sw := range cl.AllSwitches() {
		st := sw.Stats()
		fp.switches += fmt.Sprintf("%s rx=%d tx=%d ecn=%d pause=%d|",
			sw.Name(), st.RxPackets, st.TxPackets, st.ECNMarked, st.PauseFramesSent)
	}

	// Pool conservation across the Export/Import boundary: once the run
	// drains, no packet may remain checked out on any shard.
	for i, pl := range cl.Pools {
		if pl != nil && pl.Live() != 0 {
			t.Fatalf("shards=%d: shard %d pool has %d live packets after drain", shards, i, pl.Live())
		}
	}
	return fp, c.Stats()
}

// TestShardedMatchesSequential: the tiny cluster must produce identical
// completions and switch counters at 1 and 2 shards (TinyConfig has two
// ToRs, so two is the maximum legal shard count).
func TestShardedMatchesSequential(t *testing.T) {
	equalFingerprints(t, "tiny, 2 shards", runTiny(t, 1, 42), runTiny(t, 2, 42))
}

// equalFingerprints fails the test when two runs of one fabric diverged.
func equalFingerprints(t *testing.T, what string, want, got fingerprint) {
	t.Helper()
	if len(want.completions) == 0 || len(want.completions) != len(got.completions) {
		t.Fatalf("%s: %d completions, want %d (and some)", what, len(got.completions), len(want.completions))
	}
	for id, at := range want.completions {
		if got.completions[id] != at {
			t.Errorf("%s: flow %d completed at %v, want %v", what, id, got.completions[id], at)
		}
	}
	if want.switches != got.switches {
		t.Errorf("%s: switch counters diverged:\n want: %s\n  got: %s", what, want.switches, got.switches)
	}
	if got.gaps != 0 {
		t.Errorf("%s: %d lossless gaps", what, got.gaps)
	}
}

// twoProcs gives the test a second core for its duration: with one, the
// conductor never leaves its inline loop.
func twoProcs(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestParallelAndParkPaths drives the hand-over on the paper's 128-host
// fabric, dense enough for the conductor to leave its inline loop: two shards
// must reproduce one engine's run both as built (waits spin) and with the
// spin bound at zero, where every wait on either side goes through the
// announce-recheck-park path; and the run must use both modes — parallel
// through the transfer, inline once it drains.
func TestParallelAndParkPaths(t *testing.T) {
	twoProcs(t)
	cfg := topo.DefaultConfig()
	seq, _ := runFabric(t, cfg, 1, 42, nil)

	spun, st := runFabric(t, cfg, 2, 42, nil)
	equalFingerprints(t, "2 shards, spinning", seq, spun)
	// A run whose waits parked was disturbed by the box and probed for its
	// core, which switches too: only an undisturbed one is held to a handful.
	if par := st.Epochs - st.InlineEpochs; par == 0 || st.InlineEpochs == 0 || st.Parks <= 4 && st.ModeSwitches > 10 {
		t.Errorf("a dense transfer and its drain ran %d parallel and %d inline epochs in %d switches (%d parks), want both modes and <= 10 switches",
			par, st.InlineEpochs, st.ModeSwitches, st.Parks)
	}

	parked, st := runFabric(t, cfg, 2, 42, func(c *Conductor) { c.spin = 0 })
	equalFingerprints(t, "2 shards, parking", seq, parked)
	if st.Parks == 0 {
		t.Errorf("spin bound 0 and no wait parked: %+v", st)
	}
}

// TestClaimPaths drives the claim loop: four shards on two threads, where a
// thread out of its own shards takes the other's, and which thread runs a
// shard changes with the box's timing. The run must reproduce one engine's
// both as built and with every wait parking, and say it ran parallel epochs
// on two threads.
func TestClaimPaths(t *testing.T) {
	twoProcs(t)
	cfg := topo.DefaultConfig()
	seq, _ := runFabric(t, cfg, 1, 42, nil)
	for _, spin := range []time.Duration{spinBound, 0} {
		got, st := runFabric(t, cfg, 4, 42, func(c *Conductor) { c.spin = spin })
		equalFingerprints(t, fmt.Sprintf("4 shards on 2 threads, spin %v", spin), seq, got)
		if st.Threads != 2 || st.Epochs == st.InlineEpochs || st.Busy <= 0 || st.Idle < 0 {
			t.Errorf("spin %v: %+v, want parallel epochs on 2 threads with their time split", spin, st)
		}
	}
}

// TestCloseJoinsWorkers: Close returns only once every worker goroutine has
// exited, so nothing of a finished fabric is still reachable from a worker's
// stack when the caller moves on; and with one proc no worker ever starts.
func TestCloseJoinsWorkers(t *testing.T) {
	twoProcs(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		_, st := runFabric(t, topo.DefaultConfig(), 2, 7, nil)
		if st.Epochs == st.InlineEpochs {
			t.Fatal("no parallel epoch: the workers never started")
		}
		// Close has seen the worker's last statement run; give the runtime
		// the instant it needs to retire the goroutine behind it.
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("run %d: %d goroutines after Close, %d before the run", i, n, before)
		}
	}

	runtime.GOMAXPROCS(1)
	peak := before
	_, st := runFabric(t, topo.DefaultConfig(), 2, 7, func(c *Conductor) {
		c.AddTask(100*sim.Microsecond, func(sim.Time) { peak = max(peak, runtime.NumGoroutine()) })
	})
	if st.Epochs != st.InlineEpochs || peak > before {
		t.Errorf("one proc: %d of %d epochs inline, %d goroutines at peak (%d before), want every epoch inline and no goroutine",
			st.InlineEpochs, st.Epochs, peak, before)
	}
}

// TestConductorBarrierTasks: tasks fire at exact multiples of their period,
// the same number of times regardless of shard count, after all events at
// the firing instant have executed.
func TestConductorBarrierTasks(t *testing.T) {
	for _, shards := range []int{1, 2} {
		cfg := topo.TinyConfig()
		part, err := topo.ComputePartition(cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		engines := make([]*sim.Engine, shards)
		for i := range engines {
			engines[i] = sim.NewEngine(9)
		}
		cl, err := topo.BuildSharded(engines, part, cfg, dtFactory,
			func(int) host.CompletionHandler { return nil })
		if err != nil {
			t.Fatal(err)
		}
		cl.StartFlow(&transport.Flow{
			ID: 1, Src: 0, Dst: cl.NumHosts() - 1, Size: 100_000,
			Priority: pkt.PrioLossless, Class: pkt.ClassLossless,
		})

		c := New(cl.Engines, cl.Inbound(), cl.Lookahead, runtime.GOMAXPROCS(0))
		var fired []sim.Time
		c.AddTask(100*sim.Microsecond, func(now sim.Time) {
			fired = append(fired, now)
			for _, e := range cl.Engines {
				if e.Now() != now {
					t.Errorf("shards=%d: engine clock %v at task time %v", shards, e.Now(), now)
				}
			}
		})
		c.Run(sim.Millisecond)
		c.Close()

		if len(fired) != 10 {
			t.Fatalf("shards=%d: task fired %d times, want 10", shards, len(fired))
		}
		for i, at := range fired {
			if want := sim.Time(100*sim.Microsecond) * sim.Time(i+1); at != want {
				t.Errorf("shards=%d: firing %d at %v, want %v", shards, i, at, want)
			}
		}
		if c.Now() != sim.Time(sim.Millisecond) {
			t.Errorf("shards=%d: conductor clock %v after run, want 1ms", shards, c.Now())
		}
	}
}

// TestConductorStats: a 2-shard run with cross-pod traffic must both
// execute multiple epochs and deliver cross-shard frames through its lanes.
func TestConductorStats(t *testing.T) {
	cfg := topo.TinyConfig()
	part, err := topo.ComputePartition(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	engines := []*sim.Engine{sim.NewEngine(3), sim.NewEngine(3)}
	cl, err := topo.BuildSharded(engines, part, cfg, dtFactory,
		func(int) host.CompletionHandler { return nil })
	if err != nil {
		t.Fatal(err)
	}
	cl.StartFlow(&transport.Flow{
		ID: 7, Src: 0, Dst: cl.NumHosts() - 1, Size: 100_000,
		Priority: pkt.PrioLossless, Class: pkt.ClassLossless,
	})
	c := New(cl.Engines, cl.Inbound(), cl.Lookahead, runtime.GOMAXPROCS(0))
	defer c.Close()
	c.Run(10 * sim.Millisecond)

	st := c.Stats()
	if st.Shards != 2 {
		t.Errorf("Shards = %d, want 2", st.Shards)
	}
	if st.Epochs < 2 {
		t.Errorf("Epochs = %d, want several", st.Epochs)
	}
	if st.Delivered == 0 {
		t.Error("no cross-shard frames delivered despite cross-pod traffic")
	}
	if c.Events() == 0 {
		t.Error("no events executed")
	}
}

// TestStatsAdd: Shards, Threads and HeapPeak take the widest, every other
// field is summed; a zero Stats (a restored point) adds nothing; String is
// the trailer note, empty unless a run was sharded.
func TestStatsAdd(t *testing.T) {
	a := Stats{Shards: 2, Epochs: 1, Delivered: 2, TaskFirings: 3, LineEvents: 4, HeapPeak: 50,
		InlineEpochs: 5, Parks: 6, ModeSwitches: 7, Threads: 4, Busy: 8, Idle: 9}
	b := Stats{Shards: 3, Epochs: 10, Delivered: 20, TaskFirings: 30, LineEvents: 40, HeapPeak: 5,
		InlineEpochs: 50, Parks: 60, ModeSwitches: 70, Threads: 1, Busy: 80, Idle: 90}
	sum := Stats{Shards: 3, Epochs: 11, Delivered: 22, TaskFirings: 33, LineEvents: 44, HeapPeak: 50,
		InlineEpochs: 55, Parks: 66, ModeSwitches: 77, Threads: 4, Busy: 88, Idle: 99}
	for _, tc := range []struct {
		name   string
		acc, o Stats
		want   Stats
	}{
		{"widest and summed", a, b, sum},
		{"commutes", b, a, sum},
		{"zero is the identity", a, Stats{}, a},
		{"into zero", Stats{}, b, b},
	} {
		got := tc.acc
		got.Add(tc.o)
		if got != tc.want {
			t.Errorf("%s: %+v.Add(%+v) = %+v, want %+v", tc.name, tc.acc, tc.o, got, tc.want)
		}
	}

	for _, tc := range []struct {
		st   Stats
		want string
	}{
		{Stats{Epochs: 9}, ""},
		{Stats{Shards: 1, Threads: 1, Epochs: 9}, ""},
		{Stats{Shards: 2, Threads: 2, Epochs: 12, InlineEpochs: 3, Parks: 4, Busy: 3 * time.Second, Idle: time.Second},
			", 2 shards on 2 threads, 12 epochs (3 inline, 4 parks, idle 25 %)"},
	} {
		if got := tc.st.String(); got != tc.want {
			t.Errorf("%+v.String() = %q, want %q", tc.st, got, tc.want)
		}
	}
}
