package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"l2bm/internal/colfmt"
	"l2bm/internal/exp"
	"l2bm/internal/serve"
	"l2bm/internal/trace"
)

// statFile returns the size of a file (helper for profile checks).
func statFile(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// TestRunSingleExperiment also pins the trailer's worker count: fig3a's two
// points run on two workers however many -parallel allows.
func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig3a", "-scale", "tiny", "-parallel", "8"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"running fig3a", "Fig 3(a)", "finished in", "events/s", "% on delay lines, heap peak ", "aggregate across 2 workers"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunRejectsUnknownInputs(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig99", "-scale", "tiny"}, &buf); err == nil {
		t.Error("unknown experiment should fail")
	}
	if err := run([]string{"-exp", "fig7", "-scale", "galactic"}, &buf); err == nil {
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

// trailers matches the only process-state-dependent lines of the CLI's
// output: the wall-clock timing trailer and the MemStats trailer (allocation
// counts shift with goroutine scheduling and GC timing, by design).
var trailers = regexp.MustCompile(`(?m)^\((?:.* finished in .*|mem: .*)\)$`)

// render runs the CLI and returns its deterministic portion.
func render(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return trailers.ReplaceAllString(buf.String(), "")
}

// TestParallelFlagDeterminism: the CLI's deterministic portion (everything
// but the timing and memory trailers) must be byte-identical for every
// execution strategy — any worker count, flight recorder armed or not — on the Fig. 7 sweep and on an arena that races the paper's
// policy, a static one and the preemptive one over its load x burst x fault
// grid with the auditor armed. These are the gates CI used to run as shell
// diffs of the built binary.
func TestParallelFlagDeterminism(t *testing.T) {
	for _, sel := range [][]string{
		{"-exp", "fig7"},
		{"-exp", "arena", "-policies", "L2BM,DT2,Occamy"},
	} {
		if testing.Short() && sel[1] == "arena" {
			continue // +75 s under -race, which sees the arena in TestCLIArenaSmoke
		}
		run := func(flags ...string) string {
			return render(t, append(append([]string{"-scale", "tiny"}, sel...), flags...)...)
		}
		ref := run("-parallel", "1")
		for _, flags := range [][]string{nil, {"-trace", "-trace-out", t.TempDir()}} {
			if got := run(flags...); got != ref {
				t.Errorf("%v: CLI output with %v differs from -parallel 1:\n--- -parallel 1 ---\n%s\n--- %v ---\n%s", sel, flags, ref, flags, got)
			}
		}
		if sel[1] == "arena" && !strings.Contains(ref, "arena: ranked scorecard") {
			t.Errorf("arena output has no scorecard:\n%s", ref)
		}
	}
}

// TestExperimentTable: exp.Experiments is the one description of what -exp
// accepts. Names are unique, the Paper rows are "-exp all" in the order it has
// always run, the flag's usage text and the unknown-experiment error list
// exactly the table — and a row appended to the table is a runnable
// experiment with nothing else to register.
func TestExperimentTable(t *testing.T) {
	var names, paper []string
	seen := map[string]bool{}
	for _, e := range exp.Experiments {
		if seen[e.Name] || e.Name == "all" {
			t.Errorf("experiment name %q is taken", e.Name)
		}
		seen[e.Name] = true
		names = append(names, e.Name)
		if e.Paper {
			paper = append(paper, e.Name)
		}
	}
	if want := "fig3a fig3b fig7 table2 fig8 fig9 fig10 fig11 faults arena"; strings.Join(paper, " ") != want {
		t.Errorf("-exp all runs %v, want %s", paper, want)
	}

	saved := exp.Experiments
	defer func() { exp.Experiments = saved }()
	exp.Experiments = append(saved[:len(saved):len(saved)], exp.Experiment{
		Name: "twelfth",
		Grid: func(scale exp.Scale, _ []string) ([]exp.HybridSpec, error) {
			return []exp.HybridSpec{{Name: "twelfth", Policy: "DT", Scale: scale, TCPLoad: 0.2}}, nil
		},
		Progress: func(sp exp.HybridSpec, r *exp.Result) string {
			return fmt.Sprintf("  %s ran %d flows", sp.Name, r.FlowsStarted)
		},
		Render: func(w io.Writer, _ exp.Scale, specs []exp.HybridSpec, results []*exp.Result) error {
			_, err := fmt.Fprintf(w, "twelfth: %d point(s) under %s\n", len(results), specs[0].Policy)
			return err
		},
	})
	names = append(names, "twelfth")

	out := render(t, "-exp", "twelfth", "-scale", "tiny")
	for _, want := range []string{"--- running twelfth at scale tiny ---", "  twelfth ran ", "twelfth: 1 point(s) under DT"} {
		if !strings.Contains(out, want) {
			t.Errorf("appended experiment's output lacks %q:\n%s", want, out)
		}
	}

	vocabulary := strings.Join(append(names, "all"), " ")
	err := run([]string{"-exp", "thirteenth"}, io.Discard)
	if want := `unknown experiment "thirteenth" (have ` + vocabulary + ")"; err == nil || err.Error() != want {
		t.Errorf("unknown -exp: %v, want %s", err, want)
	}
	// The flag package prints usage to os.Stderr, looked up when it prints.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	err = run([]string{"-h"}, io.Discard)
	os.Stderr = stderr
	w.Close()
	usage, _ := io.ReadAll(r)
	if want := "experiment: " + strings.ReplaceAll(vocabulary, " ", "|"); !errors.Is(err, flag.ErrHelp) || !strings.Contains(string(usage), want) {
		t.Errorf("-h (%v) does not list the table (%s):\n%s", err, want, usage)
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
		{"-exp", "arena", "-policies", "L2BM,,DT"},                  // empty element
		{"-exp", "fig7", "-policies", "L2BM"},                       // -policies is arena-only
		{"-exp", "fig7", "-fidelity", "analytic"},                   // unknown fidelity
		{"-spec", "sweep.json", "-exp", "fig7"},                     // -spec pins the sweep
		{"-spec", "sweep.json", "-scale", "tiny"},                   // ditto
		{"-spec", "sweep.json", "-trace"},                           // ditto
		{"-spec", "sweep.json", "-keep-going"},                      // the envelope cannot carry a failed point
		{"-spec", "nonexistent-sweep.json"},                         // missing spec file
		{"-exp", "fig3a", "-resume", "ckpt", "-trace"},              // a stored result cannot carry its recorder
		{"-exp", "fig3a", "-trace", "-format", "col"},               // the flag is gone: .col is the only format
		{"-exp", "fig3a", "-shards", "2"},                           // the flag is gone: a spec's Shards is the one shard count
		{"-exp", "fig3a", "-scale", "tiny", "-trace-out", "traces"}, // nothing is recorded without -trace
		{"-exp", "fig3a", "-point-timeout", "-1s"},
		{"-exp", "fig3a", "-resume", blocker + "/sub"}, // unwritable
		{"-exp", "fig3a", "-trace", "-trace-out", blocker + "/sub"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v: want validation error, got success", args)
		}
	}

	// The randomized soak is gone (FuzzSpecRun in internal/exp fuzzes the
	// spec surface): its experiment name and its flags are refused like any
	// other unknown input, before anything runs.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "chaos"}, `unknown experiment "chaos"`},
		{[]string{"-seeds", "5"}, "flag provided but not defined: -seeds"},
		{[]string{"-exp", "fig3a", "-replay", "x.json"}, "flag provided but not defined: -replay"},
	} {
		var buf bytes.Buffer
		err := run(tc.args, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: error %v, want one naming %q", tc.args, err, tc.want)
		}
		if buf.Len() != 0 {
			t.Errorf("args %v: work was done before the refusal:\n%s", tc.args, buf.String())
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

// pointFiles counts the result-cache entries in a -resume directory.
func pointFiles(t *testing.T, dir string) int {
	t.Helper()
	n, err := (&exp.ResultCache{Dir: dir}).Len()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCLIResume: -resume populates its directory, one entry per point, and
// a rerun of the identical command restores from it — identical
// deterministic output, and a trailer that bills the points as restored,
// not as simulated.
func TestCLIResume(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-exp", "fig3a", "-scale", "tiny", "-resume", dir}
	first := render(t, args...)
	if n := pointFiles(t, dir); n != 2 {
		t.Fatalf("%d entries after a two-point experiment", n)
	}
	var second bytes.Buffer
	if err := run(args, &second); err != nil {
		t.Fatal(err)
	}
	if got := trailers.ReplaceAllString(second.String(), ""); got != first {
		t.Errorf("resumed run diverged:\n--- first ---\n%s\n--- second ---\n%s", first, got)
	}
	if !strings.Contains(second.String(), ": 0 events, ") || !strings.Contains(second.String(), ", 2 of 2 points restored)") {
		t.Errorf("fully restored run's trailer bills simulated work:\n%s", second.String())
	}
}

// TestCLIResumeScale: the hyperscale smoke picks its fabric with a
// TopoOverride, which the store keys by the fabric it yields, so -exp scale
// stores its point, restores it on a rerun and prints an uncached run's
// tables either way.
func TestCLIResumeScale(t *testing.T) {
	want := render(t, "-exp", "scale", "-scale", "tiny")
	dir := t.TempDir()
	args := []string{"-exp", "scale", "-scale", "tiny", "-resume", dir}
	if got := render(t, args...); got != want {
		t.Errorf("stored run diverged from the uncached one:\n--- uncached ---\n%s\n--- stored ---\n%s", want, got)
	}
	if n := pointFiles(t, dir); n != 1 {
		t.Fatalf("%d entries after the one-point smoke", n)
	}
	var second bytes.Buffer
	if err := run(args, &second); err != nil {
		t.Fatal(err)
	}
	if got := trailers.ReplaceAllString(second.String(), ""); got != want {
		t.Errorf("resumed run diverged from the uncached one:\n--- uncached ---\n%s\n--- resumed ---\n%s", want, got)
	}
	if !strings.Contains(second.String(), ", 1 of 1 points restored)") {
		t.Errorf("rerun did not restore the stored point:\n%s", second.String())
	}
}

// TestCLIResumeSharesPointsAcrossGrids: the store is keyed by point, not by
// sweep, so Table II after Fig. 7 on one -resume directory finds all of its
// 20 points there, simulates none and adds no entry.
func TestCLIResumeSharesPointsAcrossGrids(t *testing.T) {
	dir := t.TempDir()
	render(t, "-exp", "fig7", "-scale", "tiny", "-resume", dir)
	entries := pointFiles(t, dir)
	if entries != 32 {
		t.Fatalf("fig7 stored %d entries, want its 32 points", entries)
	}
	var buf bytes.Buffer
	if err := run([]string{"-exp", "table2", "-scale", "tiny", "-resume", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), ", 20 of 20 points restored)") {
		t.Errorf("table2 after fig7 simulated points it could have restored:\n%s", buf.String())
	}
	if n := pointFiles(t, dir); n != entries {
		t.Errorf("table2 after fig7 grew the directory from %d to %d entries", entries, n)
	}
}

// TestCLIResumeImplicitAll: one directory serves a whole -exp all (the flag
// pair used to be refused: checkpoints were per sweep). Table II is restored
// from Fig. 7's points within the first run, and the rerun restores
// everything and prints the same tables.
func TestCLIResumeImplicitAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	dir := t.TempDir()
	var first bytes.Buffer
	if err := run([]string{"-scale", "tiny", "-resume", dir}, &first); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "(table2 finished in") || !strings.Contains(first.String(), ", 20 of 20 points restored)") {
		t.Errorf("table2 inside -exp all did not restore Fig. 7's points:\n%s", first.String())
	}
	if n := strings.Count(first.String(), "--- running "); n != 10 || strings.Contains(first.String(), "running scale") {
		t.Errorf("-exp all ran %d experiments, want the table's 10 Paper rows and not the scale smoke", n)
	}
	entries := pointFiles(t, dir)
	second := render(t, "-scale", "tiny", "-resume", dir)
	if want := trailers.ReplaceAllString(first.String(), ""); second != want {
		t.Error("rerun of -exp all -resume printed different tables")
	}
	if n := pointFiles(t, dir); n != entries {
		t.Errorf("a fully restored rerun grew the directory from %d to %d entries", entries, n)
	}
}

// TestCLIResumeDirServesDaemon: a -resume directory and an l2bmd -cache
// directory are the same thing. A sweep run by the CLI into a directory is
// answered by a daemon on that directory entirely from it, with the bytes a
// direct run marshals — the gate CI used to run as a shell script around
// the two binaries.
func TestCLIResumeDirServesDaemon(t *testing.T) {
	dir := t.TempDir()
	path := t.TempDir() + "/sweep.json"
	body := `{"name":"cli-daemon","specs":[
		{"Name":"cd-dt","Policy":"DT","Scale":"tiny","RDMALoad":0.4,"TCPLoad":0.4},
		{"Name":"cd-l2bm","Policy":"L2BM","Scale":"tiny","RDMALoad":0.4,"TCPLoad":0.4}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	direct := render(t, "-spec", path)
	for _, pass := range []string{"filling", "restoring"} {
		if got := render(t, "-spec", path, "-resume", dir); got != direct {
			t.Errorf("-spec -resume (%s the directory) differs from a direct -spec run", pass)
		}
		if n := pointFiles(t, dir); n != 2 {
			t.Errorf("%s: %d entries for a two-point sweep", pass, n)
		}
	}

	srv, err := serve.New(serve.Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	fetch := func(method, url string, into any) []byte {
		t.Helper()
		req, _ := http.NewRequest(method, ts.URL+url, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode >= 300 {
			t.Fatalf("%s %s: %d %v\n%s", method, url, resp.StatusCode, err, data)
		}
		if into != nil {
			if err := json.Unmarshal(data, into); err != nil {
				t.Fatalf("%s %s: %v\n%s", method, url, err, data)
			}
		}
		return data
	}
	var status struct {
		ID, State string
		CacheHits int
	}
	fetch("POST", "/v1/sweeps", &status)
	for deadline := time.Now().Add(time.Minute); status.State != serve.StateDone; {
		if time.Now().After(deadline) || status.State == serve.StateFailed || status.State == serve.StateCancelled {
			t.Fatalf("sweep ended %q", status.State)
		}
		time.Sleep(5 * time.Millisecond)
		fetch("GET", "/v1/sweeps/"+status.ID, &status)
	}
	if status.CacheHits != 2 {
		t.Errorf("daemon on the CLI's directory hit %d of 2 points", status.CacheHits)
	}
	if got := fetch("GET", "/v1/sweeps/"+status.ID+"/result", nil); string(got) != direct {
		t.Error("daemon served different bytes from the CLI's directory than a direct run marshals")
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
		{[]string{"-exp", "fig3a", "-resume", "ckpt", "-trace"}, "incompatible with -trace"},
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
	var buf bytes.Buffer
	if err := run([]string{"-trace-sample", "50us"}, &buf); err == nil {
		t.Error("-trace-sample without -trace should fail")
	}
	if err := run([]string{"-trace", "-trace-sample", "-1us"}, &buf); err == nil {
		t.Error("negative -trace-sample should fail")
	}
}

// TestCLITraceColFormat: -trace writes one columnar .col file per point,
// named by its running number and stem, and nothing else; each decodes and
// carries the flight-recorder channels.
func TestCLITraceColFormat(t *testing.T) {
	dir := t.TempDir()
	render(t, "-exp", "fig3a", "-scale", "tiny", "-trace", "-trace-out", dir, "-trace-sample", "50us")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"000-fig3a-tcp-dt-t40.col", "001-fig3a-rdma-dt-r40.col"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("-trace exported %v, want %v", names, want)
	}
	for _, name := range names {
		data, err := os.ReadFile(dir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := colfmt.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if occ := d.Channel(trace.ColOccupancy); occ == nil || occ.Rows() == 0 {
			t.Errorf("%s: no occupancy timeline (channels %v)", name, d.Channels())
		}
	}
}

// TestCLIHybridFaultsRefused: a fault plan has no hybrid form, so hybrid
// fidelity next to one is refused before any point runs — on -exp faults,
// whose every point carries a plan, and in a -spec file.
func TestCLIHybridFaultsRefused(t *testing.T) {
	spec := t.TempDir() + "/sweep.json"
	if err := os.WriteFile(spec, []byte(`{"specs":[
		{"Name":"p0","Policy":"DT","Scale":"tiny","TCPLoad":0.2},
		{"Name":"p1","Policy":"DT","Scale":"tiny","TCPLoad":0.2,"Fidelity":"hybrid","Faults":{}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "faults", "-scale", "tiny", "-fidelity", "hybrid"}, "does not apply to -exp faults"},
		{[]string{"-spec", spec}, `spec 1: Fidelity "hybrid" with Faults set`},
	} {
		var buf bytes.Buffer
		err := run(tc.args, &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: error %v, want one naming %q", tc.args, err, tc.want)
		}
		if buf.Len() != 0 {
			t.Errorf("args %v: work was done before the refusal:\n%s", tc.args, buf.String())
		}
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
	// A later point naming more shards than its fabric has ToRs fails the
	// file when it is read, not after the points before it have run.
	wide := strings.Replace(spec, `"Policy":"L2BM",`, `"Policy":"L2BM","Shards":5,`, 1)
	if err := os.WriteFile(bad, []byte(wide), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", bad}, &buf); err == nil || !strings.Contains(err.Error(), "spec 1: Shards = 5, but the fabric has 2 ToRs") {
		t.Errorf("over-sharded spec: want an upfront refusal naming spec 1, got %v", err)
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

// beCLI makes this test binary behave as the l2bmexp command, so a test can
// measure a run as a process of its own.
const beCLI = "L2BMEXP_TEST_BE_CLI"

func TestMain(m *testing.M) {
	if os.Getenv(beCLI) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestScaleSmokePeakRSS is the hyperscale smoke as CI ran it around the built
// binary: the 10k- and 100k-host pod Clos fabrics build and run their short
// mixed window with the invariant auditor armed (a violation exits nonzero)
// inside a bounded footprint. The child's peak RSS is the kernel's own
// figure (ru_maxrss), exact where the shell step polled /proc every 0.2 s.
// Measured ~44 MiB at 10k and ~285 MiB at 100k hosts, so the bounds are ~2.9x /
// ~2.7x headroom against flyweight regressions: an RNG stream that seeds its
// 4.9 kB vector on first draw again costs +60 MB / +600 MB; ports that
// provision eight queues and pause clocks again, with the since-removed
// timer wheel retaining per slot, cost +35 MB / +200 MB. The tight guards are
// TestScale10kLiveHeap, TestHyperscaleBytesPerHost, TestPortFootprint and
// TestIdleHostInstallBytes.
func TestScaleSmokePeakRSS(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-host fabric")
	}
	if runtime.GOOS != "linux" {
		t.Skip("ru_maxrss is in kilobytes on Linux only")
	}
	for _, tc := range []struct {
		scale    string
		hosts    string
		limitMiB int64
	}{{"small", "10240-host", 128}, {"full", "102400-host", 768}} {
		cmd := exec.Command(os.Args[0], "-exp", "scale", "-scale", tc.scale)
		cmd.Env = append(os.Environ(), beCLI+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("-exp scale -scale %s: %v\n%s", tc.scale, err, out)
		}
		if !strings.Contains(string(out), "Scale smoke: "+tc.hosts) {
			t.Errorf("-scale %s did not render the %s table:\n%s", tc.scale, tc.hosts, out)
		}
		peakMiB := cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss >> 10
		t.Logf("-scale %s: peak RSS %d MiB (limit %d), user CPU %v", tc.scale, peakMiB, tc.limitMiB, cmd.ProcessState.UserTime())
		if peakMiB > tc.limitMiB {
			t.Errorf("-scale %s: peak RSS %d MiB, want <= %d", tc.scale, peakMiB, tc.limitMiB)
		}
	}
}
