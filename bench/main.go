// Command bench is the repository's benchmark: six workloads, end-to-end
// wall/latency/memory metrics, and an outside-in per-layer cost ledger. See
// README.md in this directory; bench/run.sh is the one command.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errFailedOps is returned after a complete report whose correctness gate
// did not hold: the numbers were printed, the exit code is still non-zero.
var errFailedOps = fmt.Errorf("correctness gate failed (see FAILED lines)")

func run(args []string, stdout, stderr io.Writer) error {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "run one workload in this process and end with the driver's JSON line (default: all six, each in a fresh child process)")
	seed := fl.Int64("seed", 1, "salts the held-out sweeps; the same seed gives the same inputs")
	seconds := fl.Int("seconds", 10, "sizes the fixed op counts so the timed phase lasts about this long on the reference box")
	trace := fl.Int("trace", 0, "1 = the traced pass: per-layer ledger, span files and self-time table instead of the end-to-end metrics")
	smoke := fl.Bool("smoke", false, "every workload at ScaleTiny / 2 ops: proves the harness, measures nothing")
	compare := fl.Bool("compare", false, "compare two -json reports: bench -compare A.json B.json")
	l2bmd := fl.String("l2bmd", "", "path of the built cmd/l2bmd binary (bench/run.sh builds and passes it)")
	outDir := fl.String("out", filepath.Join("bench", "out"), "directory for span files, reports and scratch")
	jsonOut := fl.String("json", "", "also append the full report(s) to this file, for -compare")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fl.NArg() != 2 {
			return fmt.Errorf("-compare takes two report files, got %d", fl.NArg())
		}
		return compareFiles(fl.Arg(0), fl.Arg(1), stdout)
	}
	if fl.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fl.Arg(0))
	}
	if *seconds < 1 || *seconds > 60 {
		return fmt.Errorf("-seconds must be in [1, 60], got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	rc := &runCtx{seed: *seed, seconds: *seconds, smoke: *smoke, l2bmd: *l2bmd, outDir: *outDir, log: stdout}

	if *name == "" {
		return runAll(rc, *trace == 1, *jsonOut, stdout, stderr)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	var rep *report
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		rep, err = runTraced(rc, w)
	} else {
		rep, err = runMeasured(rc, w)
	}
	if err != nil {
		return err
	}
	rep.print(stdout, defs)
	if *jsonOut != "" {
		if err := appendJSON(*jsonOut, []*report{rep}); err != nil {
			return err
		}
	}
	line, err := rep.driverLine(defs)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if rep.Failed > 0 {
		return errFailedOps
	}
	return nil
}

func writeJSON(path string, reports []*report) error {
	data, err := json.MarshalIndent(reports, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// appendJSON adds reports to the ones path already holds, so that running
// the benchmark several times with the same -json collects the several runs
// a side -compare needs before it can speak of a run-to-run spread.
func appendJSON(path string, reports []*report) error {
	prior, err := loadReports(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return writeJSON(path, append(prior, reports...))
}

// runAll is the generator: the six workloads one after another, never two
// at once, each in a fresh re-exec of this binary so that every workload's
// peak RSS is its own.
func runAll(rc *runCtx, traced bool, jsonOut string, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var reports []*report
	failed := false
	passes := []int{0}
	if traced {
		passes = append(passes, 1)
	}
	for _, w := range workloads() {
		for _, pass := range passes {
			part := filepath.Join(rc.outDir, fmt.Sprintf("report-%s-trace%d.json", w.Name(), pass))
			args := []string{"-workload", w.Name(), "-seed", fmt.Sprint(rc.seed),
				"-seconds", fmt.Sprint(rc.seconds), "-trace", fmt.Sprint(pass),
				"-l2bmd", rc.l2bmd, "-out", rc.outDir, "-json", part}
			if rc.smoke {
				args = append(args, "-smoke")
			}
			_ = os.Remove(part) // -json appends; a part file is this run's alone
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				failed = true
				fmt.Fprintf(stderr, "bench: %s (trace %d): %v\n", w.Name(), pass, err)
			}
			data, err := os.ReadFile(part)
			if err != nil {
				continue // the child failed before it had a report
			}
			var got []*report
			if err := json.Unmarshal(data, &got); err != nil {
				return fmt.Errorf("%s: %w", part, err)
			}
			reports = append(reports, got...)
		}
	}
	if jsonOut != "" {
		if err := appendJSON(jsonOut, reports); err != nil {
			return err
		}
	}
	if failed {
		return errFailedOps
	}
	return nil
}
