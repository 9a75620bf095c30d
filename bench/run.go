package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"l2bm/internal/exp"
)

// runCtx is what one workload run was asked for.
type runCtx struct {
	seed    int64
	seconds int    // how long the timed phase should last on the reference box
	smoke   bool   // ScaleTiny / 2 ops: proves the harness, measures nothing
	l2bmd   string // path of the built daemon binary
	outDir  string
	log     io.Writer
}

// scaled turns a per-ten-seconds op count into this run's fixed op count.
// Every workload runs a fixed number of ops, not a fixed duration, so that
// memory and the simulated counts compare across commits; --seconds only
// sizes that number.
func (rc *runCtx) scaled(per10s float64) int {
	if rc.smoke {
		return 2
	}
	n := int(math.Round(per10s * float64(rc.seconds) / 10))
	if n < 2 {
		n = 2
	}
	return n
}

// scratch is a per-process directory under the output directory for what a
// run needs on disk (the daemon's cache, address file and log).
func (rc *runCtx) scratch(name string) string {
	return filepath.Join(rc.outDir, fmt.Sprintf("tmp-%s-%d", name, os.Getpid()))
}

// runner is one of the six workloads. setup may be called several times (set-up
// time is itself a reported metric, taken as a median); each call replaces
// the state of the one before, and teardown releases the last.
type runner interface {
	Name() string
	setup(rc *runCtx) error
	teardown()
	// fixedSweeps is how many timed sweeps runFixed should be asked for.
	fixedSweeps(rc *runCtx) int
	// runFixed is the timed phase: n sweeps of the fixed list.
	runFixed(n int, tr *tracer) passResult
	// runHeld is the held-out phase: the seed-salted list, once.
	runHeld(tr *tracer) passResult
	// peakRSSKB reads the high-water mark of the process doing the work.
	peakRSSKB() (int64, error)
	// firstSpec is the workload's first point (what exp.assemble_ms builds).
	firstSpec() exp.HybridSpec
}

// workloads lists the six in the order the generator runs them.
func workloads() []runner {
	return []runner{
		&engineWorkload{name: "fig7_packet", list: fig7List, sweepsPer10s: 13},
		&engineWorkload{name: "burst_observed", list: burstList, sweepsPer10s: 11, observed: true},
		&engineWorkload{name: "hybrid_steady", list: hybridList, sweepsPer10s: 16},
		&engineWorkload{name: "scale_10k", list: scaleList, sweepsPer10s: 3},
		&daemonWorkload{name: "daemon_cold", sweepsPer10s: 30, clients: 1},
		&daemonWorkload{name: "daemon_hot", hot: true, sweepsPer10s: 2500, clients: 2},
	}
}

// workloadDefs is the code's copy of BENCHMARK.json's workloads.
var workloadDefs = []workloadDef{
	{"fig7_packet", "the paper's headline point (Fig. 7, RDMA 0.4 + TCP 0.8) on the observer-free per-packet path; L2BM paired with DT isolates policy cost"},
	{"burst_observed", "same layers used differently: incast on top, auditor and flight recorder armed, columnar and JSON export on the clock"},
	{"hybrid_steady", "hybrid fidelity on long light windows: the fluid solver decides and the packet engine runs short segments, so packet-path gains move it little"},
	{"scale_10k", "10,240-host pod Clos smoke: wide switches (L2BM's per-admission queue scan), 60k RNG streams seeded at install, flyweight state; the workload where memory is the headline"},
	{"daemon_cold", "the user's real path with the cache missing every time: l2bmd admission, worker pool, engine, marshal and fsynced cache put, over loopback HTTP"},
	{"daemon_hot", "cache-hit path with the engine bypassed, two closed-loop clients; also the retention probe, since l2bmd never evicts a finished sweep"},
}

func findWorkload(name string) (runner, error) {
	for _, w := range workloads() {
		if w.Name() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// report is everything one workload run produced. The driver reads the one
// JSON line summarising it; -json keeps the whole thing for -compare.
type report struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]metric  `json:"metrics"`
	Dists     map[string]dist    `json:"dists,omitempty"`
	Counts    map[string]uint64  `json:"counts,omitempty"`
	Digest    string             `json:"result_digest"`
	HeldOut   string             `json:"held_out_digest"`
	Env       envBlock           `json:"env"`
	Info      map[string]float64 `json:"info,omitempty"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared in defs.go")
}

func (r *report) absorb(p passResult) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	r.Failures = append(r.Failures, p.failures...)
}

// setupRounds is how often set-up runs per measured run: its median is the
// reported setup_s, so one slow daemon start does not decide the number.
const setupRounds = 5

// runMeasured is the --trace 0 run: set-up (timed), the fixed sweeps
// (timed), the held-out sweep, and the end-to-end metrics.
func runMeasured(rc *runCtx, w runner) (*report, error) {
	rep := newReport(rc, w, false)
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(rc); err != nil {
			w.teardown()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.teardown()

	fixed := w.runFixed(w.fixedSweeps(rc), nil)
	rep.absorb(fixed)
	// Peak memory is read before the held-out sweep: that sweep's traffic
	// depends on the seed, and the number must not.
	rssKB, err := w.peakRSSKB()
	if err != nil {
		return nil, err
	}
	held := w.runHeld(nil)
	rep.absorb(held)

	if len(fixed.sweepMS) == 0 {
		return nil, fmt.Errorf("bench: %s: no sweep completed (%d failed; first: %s)",
			w.Name(), rep.Failed, firstOr(rep.Failures, "none recorded"))
	}
	rep.Dists["setup_s"] = summarize(setups)
	sweeps := summarize(fixed.sweepMS)
	rep.Dists["sweep_p25_ms"] = sweeps
	rep.set(endToEnd, "setup_s", median(setups))
	rep.set(endToEnd, "sweep_p25_ms", sweeps.Q1)
	rep.set(endToEnd, "peak_rss_mb", float64(rssKB)/1024)
	rep.Info["sweeps_per_s"] = float64(len(fixed.sweepMS)) / fixed.wall.Seconds()
	pct, tail := tailPercentile(fixed.sweepMS)
	rep.Info["sweep_tail_pct"], rep.Info["sweep_tail_ms"] = pct, tail
	rep.Info["fixed_phase_s"] = fixed.wall.Seconds()
	rep.Info["held_phase_s"] = held.wall.Seconds()
	rep.finish(fixed, held)
	return rep, nil
}

func firstOr(xs []string, def string) string {
	if len(xs) > 0 {
		return xs[0]
	}
	return def
}

func newReport(rc *runCtx, w runner, traced bool) *report {
	return &report{
		Workload: w.Name(), Trace: traced, Seed: rc.seed, Seconds: rc.seconds,
		Metrics: map[string]metric{}, Dists: map[string]dist{},
		Counts: map[string]uint64{}, Info: map[string]float64{},
		Env: collectEnv(rc.seed, rc.outDir),
	}
}

// finish records the digests and exact counts of the two phases.
func (r *report) finish(fixed, held passResult) {
	r.Digest = fmt.Sprintf("%016x", fixed.digest)
	r.HeldOut = fmt.Sprintf("%016x", held.digest)
	for k, v := range fixed.counts {
		r.Counts[k] = v
	}
}

// print writes the human-readable block: every metric by name with its unit,
// quartiles and sample counts beside the timings, the exact counts and
// digests two commits are diffed on.
func (r *report) print(w io.Writer, defs []metricDef) {
	fmt.Fprintf(w, "== %s  seed=%d seconds=%d trace=%v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "env: commit=%s %s nproc=%d GOMAXPROCS=%d cpu=%q cache_fs=%s\n",
		r.Env.Commit, r.Env.GoVersion, r.Env.NProc, r.Env.GOMAXPROCS, r.Env.CPUModel, r.Env.CacheFS)
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-34s %16.6g %-6s (%s is better", d.Name, m.Value, m.Unit, d.Better)
		if d.Bound > 0 {
			line += fmt.Sprintf(", bound %.0f%%", d.Bound*100)
		}
		line += ")"
		if q, ok := r.Dists[d.Name]; ok {
			line += fmt.Sprintf("  median=%.6g q1=%.6g q3=%.6g n=%d", q.Median, q.Q1, q.Q3, q.N)
		}
		fmt.Fprintln(w, line)
	}
	for _, k := range sortedKeys(r.Info) {
		fmt.Fprintf(w, "info %-29s %16.6g\n", k, r.Info[k])
	}
	for _, k := range sortedKeys(r.Counts) {
		fmt.Fprintf(w, "count %-28s %16d\n", k, r.Counts[k])
	}
	fmt.Fprintf(w, "result_digest=%s held_out_digest=%s\n", r.Digest, r.HeldOut)
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "failed_ops_ratio=%g (%d of %d)\n", ratio, r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// driverLine is the one JSON object the driver reads off the last line of
// standard output.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) driverLine(defs []metricDef) ([]byte, error) {
	line := driverLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]metric{}}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("bench: %s did not emit %s", r.Workload, d.Name)
		}
		line.Metrics[d.Name] = m
	}
	return json.Marshal(line)
}
