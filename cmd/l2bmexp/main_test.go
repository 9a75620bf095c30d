package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
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
// execution strategy — any worker count, any shard count, flight recorder
// armed or not — on the Fig. 7 sweep. This is the gate CI used to run as
// shell diffs of the built binary.
func TestParallelFlagDeterminism(t *testing.T) {
	fig7 := func(flags ...string) string {
		return render(t, append([]string{"-exp", "fig7", "-scale", "tiny"}, flags...)...)
	}
	ref := fig7("-parallel", "1")
	for _, flags := range [][]string{nil, {"-shards", "1"}, {"-shards", "2"}, {"-trace", "-trace-out", t.TempDir()}} {
		if got := fig7(flags...); got != ref {
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
		{"-exp", "fig7", "-fidelity", "analytic"},               // unknown fidelity
		{"-exp", "chaos", "-fidelity", "hybrid"},                // chaos pins its own engine
		{"-exp", "fig7", "-fidelity", "hybrid", "-shards", "2"}, // hybrid needs classic engine
		{"-spec", "sweep.json", "-exp", "fig7"},                 // -spec pins the sweep
		{"-spec", "sweep.json", "-scale", "tiny"},               // ditto
		{"-spec", "sweep.json", "-trace"},                       // ditto
		{"-spec", "sweep.json", "-keep-going"},                  // the envelope cannot carry a failed point
		{"-spec", "nonexistent-sweep.json"},                     // missing spec file
		{"-exp", "fig3a", "-resume", "ckpt", "-trace"},          // a stored result cannot carry its recorder
		{"-exp", "fig3a", "-trace", "-format", "col"},           // the flag is gone: .col is the only format
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
		{[]string{"-exp", "chaos", "-fidelity", "hybrid"}, "does not apply"},
		{[]string{"-exp", "fig7", "-fidelity", "hybrid", "-shards", "2"}, "classic engine"},
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
