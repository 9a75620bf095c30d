// Command benchguard parses `go test -bench` output from stdin and turns it
// into the repo's perf trajectory: with -json it emits a BENCH_<date>.json
// snapshot (name, ns/op, allocs/op, B/op, events/s per benchmark), and with
// -baseline it compares the measured allocs/op and B/op against a committed
// baseline file, exiting nonzero when any benchmark regresses beyond the
// tolerance.
//
// Usage:
//
//	go test -bench='BenchmarkAdmit$|BenchmarkSweepWorkers' -benchmem -benchtime=1x ./... \
//	    | go run ./cmd/benchguard -baseline BENCH_BASELINE.json
//	go test -bench=. -benchmem ./... | go run ./cmd/benchguard -json BENCH_$(date +%F).json
//
// The allocs/op guard tolerates measured <= baseline*1.25 + 2: allocation
// counts are near-deterministic but small fixed costs (map growth, one-time
// lazy init) shift by a few allocations between runs, and ratio-only bounds
// misfire on benchmarks whose baseline is ~0. B/op is guarded the same way
// (baseline*1.25 + 4 KiB) wherever the baseline records it: a count of
// allocations cannot see one that grew from 16 B to 4.9 kB.
//
// Wall-clock metrics regress too, so the guard optionally covers them with
// separate, generous tolerances (disabled by default — CI machines vary):
// -ns-ratio 3 fails a benchmark whose ns/op exceeds baseline*3, and
// -events-ratio 3 fails one whose events/s falls below baseline/3.
//
// -speedup compares two benchmarks measured in the SAME run, which makes it
// machine-independent — the CI gate for "the wheel scheduler is >= 1.5x the
// heap at 100k pending" is
//
//	go test -bench BenchmarkWheelVsHeap ./internal/sim \
//	    | go run ./cmd/benchguard -speedup 'wheel-100k>=1.5x heap-100k'
//
// Each comma-separated clause FAST>=NxSLOW fails unless
// events/s(FAST) >= N * events/s(SLOW); names match a full benchmark name
// or its trailing /sub-name.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// EventsPerSec carries the custom events/s metric some benchmarks
	// report via b.ReportMetric (zero when absent).
	EventsPerSec float64 `json:"events_per_s,omitempty"`
	// Metrics carries every other custom unit a benchmark reports (e.g.
	// the hyperscale build's bytes/host), keyed by its unit string.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is the BENCH_<date>.json schema. Keys the structs do not name are
// ignored on load, so a hand-set baseline row may carry a "note" saying why
// its value is what it is.
type Snapshot struct {
	Date       string      `json:"date"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	jsonOut := fs.String("json", "", "write a Snapshot JSON of the parsed benchmarks to this file")
	baseline := fs.String("baseline", "", "compare against this Snapshot JSON; fail on regression")
	ratio := fs.Float64("ratio", 1.25, "allocs/op tolerance ratio over baseline")
	slack := fs.Float64("slack", 2, "allocs/op absolute slack over baseline*ratio")
	nsRatio := fs.Float64("ns-ratio", 0, "when > 0, fail a benchmark whose ns/op exceeds baseline*ratio (wall-clock sensitive; keep generous)")
	eventsRatio := fs.Float64("events-ratio", 0, "when > 0, fail a benchmark whose events/s falls below baseline/ratio")
	speedup := fs.String("speedup", "", "comma-separated same-run clauses 'fast>=1.5x slow': fail unless events/s(fast) >= factor*events/s(slow)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jsonOut == "" && *baseline == "" && *speedup == "" {
		return fmt.Errorf("nothing to do: pass -json, -baseline and/or -speedup")
	}
	if *nsRatio < 0 || *eventsRatio < 0 {
		return fmt.Errorf("-ns-ratio and -events-ratio must be >= 0")
	}
	if (*nsRatio > 0 || *eventsRatio > 0) && *baseline == "" {
		return fmt.Errorf("-ns-ratio and -events-ratio require -baseline")
	}

	benches, err := parse(stdin, stdout)
	if err != nil {
		return err
	}
	if len(benches) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}

	if *jsonOut != "" {
		snap := Snapshot{
			Date:       time.Now().UTC().Format("2006-01-02"),
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			Benchmarks: benches,
		}
		buf, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "benchguard: wrote %d benchmarks to %s\n", len(benches), *jsonOut)
	}

	if *speedup != "" {
		if err := checkSpeedups(benches, *speedup, stdout); err != nil {
			return err
		}
	}
	if *baseline != "" {
		return guard(benches, *baseline, guardOpts{
			AllocRatio: *ratio, AllocSlack: *slack,
			NsRatio: *nsRatio, EventsRatio: *eventsRatio,
		}, stdout)
	}
	return nil
}

// bytesSlack is the absolute B/op slack over baseline*ratio: at
// -benchtime=1x a benchmark's one-time lazy initialisation lands in its
// single iteration and shifts B/op by a few hundred bytes between runs.
const bytesSlack = 4096

// guardOpts bundles the per-metric tolerances: allocs/op always guards,
// B/op wherever the baseline records it (same ratio, bytesSlack absolute);
// ns/op and events/s only when their ratio is > 0.
type guardOpts struct {
	AllocRatio, AllocSlack float64
	NsRatio                float64
	EventsRatio            float64
}

// guard fails when any benchmark present in both the measurement and the
// baseline exceeds baseline*ratio + slack allocs/op. A benchmark absent
// from the baseline is reported as "new (no baseline)" and skipped — never
// failed — so a freshly added series (e.g. BenchmarkShardedRun) can land in
// the same commit that introduces it; the next `make bench-json` snapshot
// then seeds its baseline entry.
func guard(benches []Benchmark, baselinePath string, opts guardOpts, stdout io.Writer) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base Snapshot
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	baseBy := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}

	var failures []string
	for _, b := range benches {
		ref, ok := baseBy[b.Name]
		if !ok {
			fmt.Fprintf(stdout, "benchguard: %s: new (no baseline), skipping\n", b.Name)
			continue
		}
		limit := ref.AllocsPerOp*opts.AllocRatio + opts.AllocSlack
		verdict := "ok"
		if b.AllocsPerOp > limit {
			verdict = "FAIL"
			failures = append(failures,
				fmt.Sprintf("%s: %.1f allocs/op > limit %.1f (baseline %.1f)",
					b.Name, b.AllocsPerOp, limit, ref.AllocsPerOp))
		}
		fmt.Fprintf(stdout, "benchguard: %s: %.1f allocs/op (baseline %.1f, limit %.1f) %s\n",
			b.Name, b.AllocsPerOp, ref.AllocsPerOp, limit, verdict)
		if ref.BytesPerOp > 0 {
			bytesLimit := ref.BytesPerOp*opts.AllocRatio + bytesSlack
			bytesVerdict := "ok"
			if b.BytesPerOp > bytesLimit {
				bytesVerdict = "FAIL"
				failures = append(failures,
					fmt.Sprintf("%s: %.0f B/op > limit %.0f (baseline %.0f)",
						b.Name, b.BytesPerOp, bytesLimit, ref.BytesPerOp))
			}
			fmt.Fprintf(stdout, "benchguard: %s: %.0f B/op (baseline %.0f, limit %.0f) %s\n",
				b.Name, b.BytesPerOp, ref.BytesPerOp, bytesLimit, bytesVerdict)
		}
		if opts.NsRatio > 0 && ref.NsPerOp > 0 {
			nsLimit := ref.NsPerOp * opts.NsRatio
			nsVerdict := "ok"
			if b.NsPerOp > nsLimit {
				nsVerdict = "FAIL"
				failures = append(failures,
					fmt.Sprintf("%s: %.1f ns/op > limit %.1f (baseline %.1f)",
						b.Name, b.NsPerOp, nsLimit, ref.NsPerOp))
			}
			fmt.Fprintf(stdout, "benchguard: %s: %.1f ns/op (baseline %.1f, limit %.1f) %s\n",
				b.Name, b.NsPerOp, ref.NsPerOp, nsLimit, nsVerdict)
		}
		if opts.EventsRatio > 0 && ref.EventsPerSec > 0 {
			evFloor := ref.EventsPerSec / opts.EventsRatio
			evVerdict := "ok"
			if b.EventsPerSec < evFloor {
				evVerdict = "FAIL"
				failures = append(failures,
					fmt.Sprintf("%s: %.0f events/s < floor %.0f (baseline %.0f)",
						b.Name, b.EventsPerSec, evFloor, ref.EventsPerSec))
			}
			fmt.Fprintf(stdout, "benchguard: %s: %.0f events/s (baseline %.0f, floor %.0f) %s\n",
				b.Name, b.EventsPerSec, ref.EventsPerSec, evFloor, evVerdict)
		}
	}
	if len(failures) > 0 {
		sort.Strings(failures)
		return fmt.Errorf("benchmark regression:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// speedupClause matches one 'fast>=1.5x slow' comparison.
var speedupClause = regexp.MustCompile(`^\s*(\S+)\s*>=\s*([0-9.]+)x\s*(\S+)\s*$`)

// findBench resolves a -speedup operand: an exact benchmark name, or the
// trailing /sub-name of exactly one benchmark.
func findBench(benches []Benchmark, name string) (Benchmark, error) {
	var hit Benchmark
	hits := 0
	for _, b := range benches {
		if b.Name == name || strings.HasSuffix(b.Name, "/"+name) {
			hit = b
			hits++
		}
	}
	switch hits {
	case 0:
		return Benchmark{}, fmt.Errorf("no benchmark matches %q", name)
	case 1:
		return hit, nil
	default:
		return Benchmark{}, fmt.Errorf("%d benchmarks match %q", hits, name)
	}
}

// checkSpeedups enforces same-run events/s ratios: every comma-separated
// clause FAST>=NxSLOW must hold. Both benchmarks come from the current
// parse, so the check is independent of the machine's absolute speed.
func checkSpeedups(benches []Benchmark, exprs string, stdout io.Writer) error {
	var failures []string
	for _, clause := range strings.Split(exprs, ",") {
		m := speedupClause.FindStringSubmatch(clause)
		if m == nil {
			return fmt.Errorf("-speedup: cannot parse clause %q (want 'fast>=1.5x slow')", strings.TrimSpace(clause))
		}
		factor, err := strconv.ParseFloat(m[2], 64)
		if err != nil || factor <= 0 {
			return fmt.Errorf("-speedup: bad factor in clause %q", strings.TrimSpace(clause))
		}
		fast, err := findBench(benches, m[1])
		if err != nil {
			return fmt.Errorf("-speedup: %w", err)
		}
		slow, err := findBench(benches, m[3])
		if err != nil {
			return fmt.Errorf("-speedup: %w", err)
		}
		if fast.EventsPerSec <= 0 || slow.EventsPerSec <= 0 {
			return fmt.Errorf("-speedup: %q vs %q: both benchmarks must report events/s", m[1], m[3])
		}
		got := fast.EventsPerSec / slow.EventsPerSec
		verdict := "ok"
		if got < factor {
			verdict = "FAIL"
			failures = append(failures,
				fmt.Sprintf("%s is %.2fx %s, want >= %.2fx", fast.Name, got, slow.Name, factor))
		}
		fmt.Fprintf(stdout, "benchguard: speedup %s/%s = %.2fx (want >= %.2fx) %s\n",
			fast.Name, slow.Name, got, factor, verdict)
	}
	if len(failures) > 0 {
		sort.Strings(failures)
		return fmt.Errorf("speedup gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// benchLine matches `go test -bench` result rows, e.g.
//
//	BenchmarkAdmit-8   200000   882.9 ns/op   327 B/op   5 allocs/op
//	BenchmarkSweepWorkers/parallel-all-8  2  123 ns/op  3625943 events/s  ...
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// cpuSuffix strips the trailing -<GOMAXPROCS> go test appends to benchmark
// names, so snapshots taken on machines with different core counts compare.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parse scans stdin for benchmark rows, echoing every line through to stdout
// so the guard composes with plain log capture in CI.
func parse(r io.Reader, echo io.Writer) ([]Benchmark, error) {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: cpuSuffix.ReplaceAllString(m[1], ""), Iterations: iters}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			case "events/s":
				b.EventsPerSec = v
			default:
				// Any other b.ReportMetric unit (bytes/host, ...) lands in
				// the open-ended metrics map so snapshots keep it.
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		out = append(out, b)
	}
	return out, sc.Err()
}
