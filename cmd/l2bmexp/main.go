// Command l2bmexp regenerates the paper's evaluation artifacts (ICDCS'23,
// §IV): every figure and table, at a chosen simulation scale.
//
// Usage:
//
//	l2bmexp -exp fig7 -scale small
//	l2bmexp -exp all -scale full | tee -a results.txt
//	l2bmexp -exp fig7 -scale full -parallel 8 -cpuprofile cpu.pprof
//
// Experiments: fig3a fig3b fig7 table2 fig8 fig9 fig10 fig11 faults arena
// all, plus the beyond-the-paper chaos soak (see below).
// The arena experiment races every registered buffer-management policy
// (the paper's four plus the related work: EDT, TDT, BShare, Occamy, FB)
// over a common load × burst × fault grid and emits a ranked scorecard;
// -policies L2BM,DT,Occamy restricts the field.
// The faults experiment is a beyond-the-paper robustness ablation: link
// flaps plus frame corruption with go-back-N recovery and PFC deadlock
// detection enabled.
// Scales: tiny (seconds), small (minutes), full (paper topology; tens of
// minutes for the sweeps).
//
// Robustness extras:
//
//	l2bmexp -exp chaos -seeds 200 -repro-out repros
//	l2bmexp -exp chaos -replay repros/chaos-seed17.json
//	l2bmexp -exp fig7 -scale full -resume ckpt -point-timeout 5m
//
// -exp chaos fuzzes randomized scenarios (topology × hybrid workload ×
// fault plan) under the global invariant auditor, shrinks any failure to a
// minimal scenario and writes a runnable JSON reproducer; findings exit
// nonzero. -resume makes long sweeps crash-safe: every point is stored in
// the directory the moment it finishes (the content-hash result cache
// l2bmd -cache uses, so the two warm each other) and any later run that
// asks for the same point — the same command again, another experiment
// sharing the grid, a -spec file — restores it byte-identically instead of
// recomputing. -point-timeout bounds each point's wall clock and
// -keep-going records failed points without abandoning the rest of the
// grid.
//
// Independent grid points fan out across -parallel workers (default: all
// cores; 1 restores sequential execution). Tables and progress lines are
// byte-identical for any worker count — only wall clock changes. The
// timing trailer reports aggregate simulated events/s across workers.
//
// Orthogonally, a point sizes itself on the sharded conservative-time
// engine (internal/psim): when the worker pool leaves it a second core, the
// Clos fabric is partitioned one shard per pod across per-shard engines
// synchronized by lookahead-bounded epochs — a one-point -exp scale runs its
// pods on every core, a Fig. 7 grid that already fills the machine runs one
// engine per point. A fixed count is a spec's Shards field (a -spec file).
// Results are byte-identical for every legal shard count; only the timing
// trailer says what the conductors did (shards, threads, epochs, inline
// epochs, parks, idle thread-time).
//
// -fidelity hybrid runs figure/table experiments on the hybrid-fidelity
// engine (internal/fluid): steady-state spans advance analytically, bursts
// and congestion run at full packet fidelity, each packet segment sizing
// itself like a packet point. Unlike the shard count this changes results —
// within the divergence bound DESIGN.md §14 states — in exchange for
// order-of-magnitude speedups on steady-state-heavy windows (`make
// hybrid-demo`).
//
// Every run schedules events on sim.Engine: fixed-delay hops ride its delay
// lines, everything else one exact heap (DESIGN.md §15).
//
// -exp scale is the hyperscale smoke (not part of -exp all): it builds a
// pod-structured Clos of 1k (-scale tiny), 10k (small) or 100k (full)
// hosts via topo.HyperscaleConfig and runs a short mixed window through
// the same harness, so self-sizing and -fidelity apply unchanged.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"l2bm/internal/chaos"
	"l2bm/internal/core"
	"l2bm/internal/exp"
	"l2bm/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "l2bmexp:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("l2bmexp", flag.ContinueOnError)
	expName := fs.String("exp", "all", "experiment: "+strings.Join(experimentNames(), "|"))
	scaleName := fs.String("scale", "small", "simulation scale: tiny|small|full")
	parallel := fs.Int("parallel", 0, "worker pool size for independent grid points (0 = GOMAXPROCS, 1 = sequential)")
	fidelity := fs.String("fidelity", "", "execution engine for figure/table experiments: packet (every MTU simulated; the default) or hybrid (fluid fast-forward between bursts; results within the DESIGN.md §14 divergence bound)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	traceOn := fs.Bool("trace", false, "arm the flight recorder on every run (occupancy, pause, weight, drop/ECN timelines)")
	traceOut := fs.String("trace-out", "traces", "directory for the per-point columnar trace files (with -trace; read them with l2bmtrace)")
	traceSample := fs.Duration("trace-sample", 0, "trace sampling period (wall units, e.g. 50us; 0 = the run's occupancy period)")
	specPath := fs.String("spec", "", "run the sweep-request JSON file (the l2bmd wire format) and write the canonical result JSON to stdout, instead of a named experiment")
	resume := fs.String("resume", "", "result-cache directory (the l2bmd -cache format): every finished point persists there and any run asking for it again restores it instead of recomputing")
	pointTimeout := fs.Duration("point-timeout", 0, "per-point wall-clock limit (e.g. 5m; 0 = unbounded)")
	keepGoing := fs.Bool("keep-going", false, "record failed grid points and keep running the rest instead of halting on the first failure")
	policiesFlag := fs.String("policies", "", "arena: comma-separated subset of registered policies to race (default: all)")
	seeds := fs.Int("seeds", 0, "chaos: how many scenarios to fuzz (0 = 50)")
	baseSeed := fs.Int64("base-seed", 0, "chaos: scenario i uses seed base-seed+i (rotate ranges without overlap)")
	reproOut := fs.String("repro-out", "", "chaos: directory for runnable JSON reproducers of any findings")
	replay := fs.String("replay", "", "chaos: replay this reproducer file instead of fuzzing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0, got %d", *parallel)
	}
	if *traceSample < 0 {
		return fmt.Errorf("-trace-sample must be >= 0, got %v", *traceSample)
	}
	if !*traceOn && *traceSample != 0 {
		return fmt.Errorf("-trace-sample requires -trace")
	}
	if !*traceOn && explicit["trace-out"] {
		return fmt.Errorf("-trace-out requires -trace (without it nothing is recorded, so nothing would be written)")
	}
	if *seeds < 0 {
		return fmt.Errorf("-seeds must be >= 0, got %d", *seeds)
	}
	if *pointTimeout < 0 {
		return fmt.Errorf("-point-timeout must be >= 0, got %v", *pointTimeout)
	}
	scale, err := exp.ParseScale(*scaleName)
	if err != nil {
		return err
	}

	// -spec replaces the named-experiment path entirely (the file is the
	// sweep, so experiment-selection flags make no sense next to it), and a
	// chaos scenario pins its own topology, engine and observers. A flag the
	// selected mode cannot honour is refused, never silently dropped.
	for _, mode := range []struct {
		on        bool
		name, why string
		conflicts []string
	}{
		{*specPath != "", "-spec", "the spec file pins every point's parameters",
			[]string{"exp", "scale", "trace", "fidelity"}},
		{*expName == "chaos", "-exp chaos", "scenarios pin their own execution model",
			[]string{"scale", "trace", "trace-out", "trace-sample", "keep-going"}},
	} {
		if !mode.on {
			continue
		}
		for _, conflict := range mode.conflicts {
			if explicit[conflict] {
				return fmt.Errorf("%s is incompatible with -%s (%s)", mode.name, conflict, mode.why)
			}
		}
	}
	if *specPath != "" {
		if *keepGoing {
			return fmt.Errorf("-spec is incompatible with -keep-going (the canonical result envelope has no slot for a failed point)")
		}
		if _, err := os.Stat(*specPath); err != nil {
			return fmt.Errorf("-spec: %w", err)
		}
	}

	// Validate the experiment selection and every output destination before
	// any work (or profile) starts: a typo'd -exp or an unwritable directory
	// must fail in milliseconds, not after a long sweep.
	if err := validateExp(*expName); err != nil {
		return err
	}
	policies, err := parsePolicies(*expName, *policiesFlag)
	if err != nil {
		return err
	}
	if *expName != "chaos" {
		for flagName, val := range map[string]string{
			"-seeds": strconv.Itoa(*seeds), "-base-seed": strconv.FormatInt(*baseSeed, 10),
		} {
			if val != "0" {
				return fmt.Errorf("%s requires -exp chaos", flagName)
			}
		}
		if *reproOut != "" || *replay != "" {
			return fmt.Errorf("-repro-out and -replay require -exp chaos")
		}
	}
	if err := validateFidelity(*expName, *fidelity); err != nil {
		return err
	}
	var cache *exp.ResultCache
	if *resume != "" {
		if *expName == "chaos" {
			return fmt.Errorf("-resume does not apply to -exp chaos (reproducer files are its persistence)")
		}
		if *traceOn {
			return fmt.Errorf("-resume is incompatible with -trace (a stored result cannot carry its flight recorder)")
		}
		if err := ensureWritableDir("-resume", *resume); err != nil {
			return err
		}
		if cache, err = exp.NewResultCache(*resume); err != nil {
			return err
		}
	}
	if *traceOn {
		if err := ensureWritableDir("-trace-out", *traceOut); err != nil {
			return err
		}
	}
	if *reproOut != "" {
		if err := ensureWritableDir("-repro-out", *reproOut); err != nil {
			return err
		}
	}
	if *replay != "" {
		if _, err := os.Stat(*replay); err != nil {
			return fmt.Errorf("-replay: %w", err)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var runErr error
	switch {
	case *specPath != "":
		// Without -resume the cache is nil: every point simply runs.
		runErr = runSpec(*specPath, cache, &exp.Pool{Workers: *parallel, PointTimeout: *pointTimeout}, w)
	case *expName == "chaos":
		runErr = runChaos(chaos.Options{
			Seeds: *seeds, BaseSeed: *baseSeed, Workers: *parallel,
			PointTimeout: *pointTimeout, ReproDir: *reproOut, Out: w,
		}, *replay)
	default:
		harness := &exp.Harness{
			Workers: *parallel, Fidelity: *fidelity,
			PointTimeout: *pointTimeout, KeepGoing: *keepGoing, Cache: cache,
		}
		if cache == nil {
			// Memory-only, so experiments of one invocation that share
			// points (Table II is a column of Fig. 7) simulate them once.
			harness.Cache = &exp.ResultCache{}
		}
		if *traceOn {
			harness.Trace = &exp.TraceSpec{SampleEvery: sim.Duration(traceSample.Nanoseconds()) * sim.Nanosecond}
			harness.TraceDir = *traceOut
		}
		runErr = runExperiments(harness, *expName, scale, policies, w)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // settle allocations so the heap profile is meaningful
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return runErr
}

// validateFidelity rejects -fidelity combinations before any work begins:
// unknown values and the chaos soak (its scenarios pin their own execution
// model). Fault-plan experiments (faults, arena, parts of all) are accepted:
// those points run at packet fidelity anyway — a fault plan is a standing
// fidelity trigger — and the fallback is recorded per point
// (Result.FidelityFallback) and summarized in the experiment trailer instead
// of being silently ignored or rejected.
func validateFidelity(expName, fidelity string) error {
	switch fidelity {
	case "":
		return nil
	case exp.FidelityPacket, exp.FidelityHybrid:
	default:
		return fmt.Errorf("-fidelity: unknown value %q (want %s or %s)",
			fidelity, exp.FidelityPacket, exp.FidelityHybrid)
	}
	if expName == "chaos" {
		return fmt.Errorf("-fidelity does not apply to -exp chaos (scenarios pin their own execution model)")
	}
	return nil
}

// experimentNames is the -exp vocabulary: every row of exp.Experiments, then
// "all" (its Paper rows, in table order) and the chaos soak.
func experimentNames() []string {
	var names []string
	for _, e := range exp.Experiments {
		names = append(names, e.Name)
	}
	return append(names, "all", "chaos")
}

// validateExp rejects unknown -exp values before any work begins.
func validateExp(name string) error {
	names := experimentNames()
	for _, n := range names {
		if n == name {
			return nil
		}
	}
	return fmt.Errorf("unknown experiment %q (have %s)", name, strings.Join(names, " "))
}

// parsePolicies validates the -policies selection against the policy
// registry before any work starts: a typo'd name ("BShar") must exit
// nonzero in milliseconds, listing what the registry actually holds.
func parsePolicies(expName, csv string) ([]string, error) {
	if csv == "" {
		return nil, nil
	}
	if expName != "arena" {
		return nil, fmt.Errorf("-policies requires -exp arena")
	}
	var policies []string
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("-policies: empty policy name in %q", csv)
		}
		if !core.IsRegistered(name) {
			return nil, fmt.Errorf("-policies: unknown policy %q (have %s)",
				name, strings.Join(core.RegisteredPolicies(), " "))
		}
		policies = append(policies, name)
	}
	return policies, nil
}

// ensureWritableDir creates the directory if needed and proves it accepts
// writes, so output-path failures surface before hours of simulation.
func ensureWritableDir(flagName, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("%s: %w", flagName, err)
	}
	probe, err := os.CreateTemp(dir, ".l2bmexp-probe-*")
	if err != nil {
		return fmt.Errorf("%s: directory %s is not writable: %w", flagName, dir, err)
	}
	name := probe.Name()
	probe.Close()
	return os.Remove(name)
}

// runExperiments runs the named row of exp.Experiments — or, for "all", its
// Paper rows in table order — on harness, writing each one's banner, tables
// and trailers to w.
func runExperiments(harness *exp.Harness, expName string, scale exp.Scale, policies []string, w io.Writer) error {
	var selected []string
	for _, e := range exp.Experiments {
		if e.Name == expName || expName == "all" && e.Paper {
			selected = append(selected, e.Name)
		}
	}

	workers := harness.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for _, name := range selected {
		start := time.Now()
		mem0 := exp.TakeMemSnapshot()
		// The banner and tables are deterministic for any worker count;
		// only the timing and memory trailers below carry run-dependent
		// numbers (determinism diffs exclude both lines).
		fmt.Fprintf(w, "\n--- running %s at scale %s ---\n", name, scale)
		_, results, err := harness.Run(name, scale, policies, w)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		wall := time.Since(start)
		t := exp.TallyResults(results)
		if t.Fallbacks > 0 {
			// Deterministic for any worker count (it counts results, not
			// scheduling), so determinism diffs keep it.
			fmt.Fprintf(w, "note: %d point(s) requested hybrid fidelity but ran at packet fidelity (fault plans are a standing fidelity trigger)\n", t.Fallbacks)
		}
		restoredNote := ""
		if t.Restored > 0 {
			// Restored points cost no events; say so, or the rate reads as
			// simulator speed.
			restoredNote = fmt.Sprintf(", %d of %d points restored", t.Restored, t.Points)
		}
		linesNote := ""
		if t.Events > 0 {
			// The share of the events the engines took off delay lines
			// rather than the heap, and the most the heap held at once.
			linesNote = fmt.Sprintf(" (%.0f %% on delay lines, heap peak %d)",
				100*float64(t.Conductors.LineEvents)/float64(t.Events), t.Conductors.HeapPeak)
		}
		evictedNote := ""
		if t.TraceRowsEvicted > 0 {
			// The exported traces hold only the newest rows of some run.
			evictedNote = fmt.Sprintf(", %d trace rows evicted", t.TraceRowsEvicted)
		}
		// A grid smaller than the pool runs on one worker per point (Pool.size).
		fmt.Fprintf(w, "(%s finished in %v: %s events%s, %s events/s aggregate across %d workers%s%s%s)\n",
			name, wall.Round(time.Millisecond),
			siCount(float64(t.Events)), linesNote, siCount(float64(t.Events)/wall.Seconds()), min(workers, len(results)),
			t.Conductors, restoredNote, evictedNote)
		fmt.Fprintln(w, mem0.MemLine(t.Events))
	}
	return nil
}

// siCount renders a count with an SI suffix (12.3M), keeping the timing
// trailer compact.
func siCount(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
