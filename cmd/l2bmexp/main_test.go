package main

import (
	"bytes"
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"

	"l2bm/internal/exp"
)

// statFile returns the size of a file (helper for profile checks).
func statFile(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig3a", "tiny", 0, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"running fig3a", "Fig 3(a)", "finished in", "events/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunRejectsUnknownInputs(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig99", "tiny", 0, &buf); err == nil {
		t.Error("unknown experiment should fail")
	}
	if err := Run("fig7", "galactic", 0, &buf); err == nil {
		t.Error("unknown scale should fail")
	}
}

func TestCLIFlagParsing(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig3a", "-scale", "tiny"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig 3(a)") {
		t.Error("CLI run produced no table")
	}
	if err := run([]string{"-bogus"}, &buf); err == nil {
		t.Error("bad flag should fail")
	}
	if err := run([]string{"-parallel", "-3"}, &buf); err == nil {
		t.Error("negative -parallel should fail")
	}
}

// TestParallelFlagDeterminism: the CLI's deterministic portion (everything
// but the timing and memory trailers) must be byte-identical for every
// execution strategy — any worker count and any shard count — on the Fig. 7
// sweep. This is the gate CI used to run as shell diffs of the built binary.
func TestParallelFlagDeterminism(t *testing.T) {
	// Strip the only process-state-dependent lines: the wall-clock timing
	// trailer and the MemStats trailer (allocation counts shift with
	// goroutine scheduling and GC timing, by design).
	drop := regexp.MustCompile(`(?m)^\((?:.* finished in .*|mem: .*)\)$`)
	render := func(flags ...string) string {
		var buf bytes.Buffer
		if err := run(append([]string{"-exp", "fig7", "-scale", "tiny"}, flags...), &buf); err != nil {
			t.Fatal(err)
		}
		return drop.ReplaceAllString(buf.String(), "")
	}
	ref := render("-parallel", "1")
	for _, flags := range [][]string{nil, {"-shards", "1"}, {"-shards", "2"}} {
		if got := render(flags...); got != ref {
			t.Errorf("CLI output with %v differs from -parallel 1:\n--- -parallel 1 ---\n%s\n--- %v ---\n%s", flags, ref, flags, got)
		}
	}
}

// TestCLIUpfrontValidation: every bad flag combination and unwritable
// destination must fail during validation, before any simulation (or
// profile) starts.
func TestCLIUpfrontValidation(t *testing.T) {
	blocker := t.TempDir() + "/file"
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-exp", "fig99"},
		{"-exp", "arena", "-policies", "L2BM,BShar"}, // typo'd policy name
		{"-exp", "arena", "-policies", "nope"},
		{"-exp", "arena", "-policies", "L2BM,,DT"}, // empty element
		{"-exp", "fig7", "-policies", "L2BM"},      // -policies is arena-only
		{"-exp", "chaos", "-seeds", "-1"},
		{"-seeds", "5"},                        // -seeds without -exp chaos
		{"-base-seed", "7"},                    // ditto
		{"-repro-out", "x"},                    // ditto
		{"-replay", "x.json"},                  // ditto
		{"-exp", "arena", "-replay", "x.json"}, // -replay is chaos-only
		{"-exp", "chaos", "-replay", "nonexistent.json"},
		{"-exp", "chaos", "-resume", "ckpt"},                    // chaos has its own persistence
		{"-resume", "ckpt"},                                     // -resume needs an explicit -exp
		{"-exp", "fig7", "-fidelity", "analytic"},               // unknown fidelity
		{"-exp", "chaos", "-fidelity", "hybrid"},                // chaos pins its own engine
		{"-exp", "fig7", "-fidelity", "hybrid", "-shards", "2"}, // hybrid needs classic engine
		{"-exp", "fig3a", "-format", "col"},                     // -format requires -trace
		{"-exp", "fig3a", "-trace", "-format", "parquet"},       // unknown format
		{"-spec", "sweep.json", "-exp", "fig7"},                 // -spec pins the sweep
		{"-spec", "sweep.json", "-scale", "tiny"},               // ditto
		{"-spec", "sweep.json", "-trace"},                       // ditto
		{"-spec", "sweep.json", "-keep-going"},                  // the envelope cannot carry a failed point
		{"-spec", "nonexistent-sweep.json"},                     // missing spec file
		{"-exp", "fig3a", "-resume", "ckpt", "-trace"},
		{"-exp", "fig3a", "-point-timeout", "-1s"},
		{"-exp", "fig3a", "-resume", blocker + "/sub"}, // unwritable
		{"-exp", "fig3a", "-trace", "-trace-out", blocker + "/sub"},
		{"-exp", "chaos", "-repro-out", blocker + "/sub"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v: want validation error, got success", args)
		}
	}
}

// TestCLIUnknownPolicyMessage: the -policies rejection must happen before
// any simulation and must list the registry so the user can fix the typo.
func TestCLIUnknownPolicyMessage(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-exp", "arena", "-scale", "tiny", "-policies", "L2BM,BShar"}, &buf)
	if err == nil {
		t.Fatal("typo'd -policies should fail")
	}
	for _, want := range []string{`unknown policy "BShar"`, "L2BM", "BShare", "Occamy", "FB"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q (should list the registry)", err, want)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("validation failure still produced output:\n%s", buf.String())
	}
}

// TestCLIArenaSmoke: a restricted arena through the real CLI path emits
// the scorecard artifacts.
func TestCLIArenaSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "arena", "-scale", "tiny", "-policies", "L2BM,DT2"}, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"arena: per-cell detail", "arena: ranked scorecard",
		"arena scorecard CSV:", "arena: integrity",
		"l0.4+faults", "fault_done",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("arena output missing %q", want)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Error("arena output contains NaN")
	}
}

// TestCLIChaos: a tiny soak through the real CLI path comes back clean and
// prints the summary line.
func TestCLIChaos(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "chaos", "-seeds", "3", "-parallel", "2"}, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "chaos: 3 seeds, 0 findings") {
		t.Errorf("missing soak summary:\n%s", buf.String())
	}
}

// TestCLIResume: -resume populates a checkpoint directory and a rerun of
// the identical command restores from it, with identical deterministic
// output.
func TestCLIResume(t *testing.T) {
	dir := t.TempDir()
	render := func() string {
		var buf bytes.Buffer
		if err := run([]string{"-exp", "fig3a", "-scale", "tiny", "-resume", dir}, &buf); err != nil {
			t.Fatal(err)
		}
		drop := regexp.MustCompile(`(?m)^\((?:.* finished in .*|mem: .*)\)$`)
		return drop.ReplaceAllString(buf.String(), "")
	}
	first := render()
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no checkpoint files written (err=%v)", err)
	}
	if second := render(); second != first {
		t.Errorf("resumed run diverged:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestCLIFidelity: -fidelity hybrid runs a figure experiment end to end
// through the real CLI path, and the rejection messages carry a one-line
// reason naming the fix.
func TestCLIFidelity(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig3a", "-scale", "tiny", "-fidelity", "hybrid"}, &buf); err != nil {
		t.Fatalf("-fidelity hybrid on fig3a: %v", err)
	}
	if !strings.Contains(buf.String(), "running fig3a") {
		t.Errorf("hybrid run produced no experiment output:\n%s", buf.String())
	}

	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "fig7", "-fidelity", "analytic"}, `unknown value "analytic"`},
		{[]string{"-exp", "chaos", "-fidelity", "hybrid"}, "does not apply"},
		{[]string{"-exp", "fig7", "-fidelity", "hybrid", "-shards", "2"}, "classic engine"},
		{[]string{"-exp", "fig3a", "-trace", "-format", "parquet"}, `unknown value "parquet"`},
		{[]string{"-format", "col"}, "requires -trace"},
		{[]string{"-resume", "ckpt"}, "explicit -exp"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil {
			t.Errorf("args %v: want error, got success", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: error %q missing %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("args %v: validation failure still produced output:\n%s", tc.args, out.String())
		}
	}
}

func TestCLIProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.pprof", dir+"/mem.pprof"
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig3a", "-scale", "tiny",
		"-cpuprofile", cpu, "-memprofile", mem}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := statFile(p); err != nil || fi <= 0 {
			t.Errorf("profile %s missing or empty (size=%d, err=%v)", p, fi, err)
		}
	}
}

func TestCLITraceFlags(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig3a", "-scale", "tiny",
		"-trace", "-trace-out", dir, "-trace-sample", "50us"}, &buf); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var csv, jsonl int
	for _, e := range entries {
		switch {
		case strings.HasSuffix(e.Name(), ".csv"):
			csv++
		case strings.HasSuffix(e.Name(), ".jsonl"):
			jsonl++
		}
	}
	if csv == 0 || jsonl == 0 {
		t.Errorf("-trace exported %d CSV and %d JSONL files, want both > 0", csv, jsonl)
	}

	if err := run([]string{"-trace-sample", "50us"}, &buf); err == nil {
		t.Error("-trace-sample without -trace should fail")
	}
	if err := run([]string{"-trace", "-trace-sample", "-1us"}, &buf); err == nil {
		t.Error("negative -trace-sample should fail")
	}
}

// TestCLITraceColFormat: -format col swaps the CSV/JSONL trace export for
// one columnar .col artifact per point.
func TestCLITraceColFormat(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig3a", "-scale", "tiny",
		"-trace", "-trace-out", dir, "-trace-sample", "50us", "-format", "col"}, &buf); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var col, other int
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".col") {
			col++
		} else {
			other++
		}
	}
	if col == 0 {
		t.Error("-format col exported no .col files")
	}
	if other != 0 {
		t.Errorf("-format col also exported %d non-.col files", other)
	}
}

// TestCLIFidelityFallbackNote: requesting hybrid fidelity on a fault-plan
// experiment runs to completion and reports the per-point fallback in the
// experiment trailer instead of rejecting or silently ignoring the flag.
func TestCLIFidelityFallbackNote(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "faults", "-scale", "tiny", "-fidelity", "hybrid"}, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "ran at packet fidelity") {
		t.Errorf("faults+hybrid output missing the fallback note:\n%s", buf.String())
	}
}

// TestCLISpec: -spec runs a sweep-request file and emits the canonical
// result envelope — deterministically, for any worker count — which is the
// byte-level contract the daemon equivalence check in CI relies on.
func TestCLISpec(t *testing.T) {
	path := t.TempDir() + "/sweep.json"
	spec := `{"name":"cli-spec-test","specs":[
		{"Name":"p-dt","Policy":"DT","Scale":"tiny","RDMALoad":0.4,"TCPLoad":0.4},
		{"Name":"p-l2bm","Policy":"L2BM","Scale":"tiny","RDMALoad":0.4,"TCPLoad":0.4}]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	render := func(workers string) string {
		var buf bytes.Buffer
		if err := run([]string{"-spec", path, "-parallel", workers}, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	out := render("1")
	if !strings.HasPrefix(out, `{"points":[`) || !strings.HasSuffix(out, "]}\n") {
		t.Errorf("-spec output is not the canonical envelope:\n%.200s", out)
	}
	if !strings.Contains(out, `"Policy":"DT"`) || !strings.Contains(out, `"Policy":"L2BM"`) {
		t.Errorf("envelope missing the two points' policies:\n%.200s", out)
	}
	if par := render("2"); par != out {
		t.Error("-spec output differs between -parallel 1 and -parallel 2")
	}

	bad := t.TempDir() + "/bad.json"
	if err := os.WriteFile(bad, []byte(`{"specs":[{"Name":"x","Policy":"Nope","Scale":"tiny"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-spec", bad}, &buf); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("bad spec: want unknown-policy error, got %v", err)
	}

	// The failure-handling flags are honoured next to a valid spec file,
	// not silently dropped: -keep-going is refused before any simulation
	// and a per-point limit no point can meet fails the sweep.
	buf.Reset()
	if err := run([]string{"-spec", path, "-keep-going"}, &buf); err == nil || !strings.Contains(err.Error(), "-keep-going") {
		t.Errorf("-spec -keep-going: want an upfront incompatibility error, got %v", err)
	}
	var timeout *exp.PointTimeoutError
	if err := run([]string{"-spec", path, "-point-timeout", "1ns"}, &buf); !errors.As(err, &timeout) {
		t.Errorf("-spec -point-timeout 1ns: want *exp.PointTimeoutError, got %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("failed -spec runs still produced output:\n%.200s", buf.String())
	}
}
