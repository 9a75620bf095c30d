package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"l2bm/internal/exp"
)

func bytesReader(data []byte) io.Reader { return bytes.NewReader(data) }

// buildDaemon compiles cmd/l2bmd from the enclosing repository.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "l2bmd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/l2bmd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/l2bmd: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs every workload through both passes at ScaleTiny / 2 ops, so
// the harness cannot rot: each run must pass its own correctness gate and
// end with a driver line that carries exactly the declared metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds l2bmd and runs all six workloads")
	}
	bin := buildDaemon(t)
	for _, wd := range workloadDefs {
		for pass, defs := range [][]metricDef{endToEnd, perLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-smoke", "-workload", wd.Name, "-seed", "3", "-trace", []string{"0", "1"}[pass],
				"-l2bmd", bin, "-out", t.TempDir()}
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("%s trace %d: %v\n%s%s", wd.Name, pass, err, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line driverLine
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s trace %d: last line is not the driver object: %v\n%s", wd.Name, pass, err, lines[len(lines)-1])
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", wd.Name, pass, line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics on the driver line, %d declared", wd.Name, pass, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace %d: %s is declared but not emitted", wd.Name, pass, d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("%s trace %d: %s has unit %q, declared %q", wd.Name, pass, d.Name, m.Unit, d.Unit)
				}
				// The human block names every metric too.
				if !strings.Contains(stdout.String(), "\n"+d.Name+" ") {
					t.Errorf("%s trace %d: %s is missing from the printed block", wd.Name, pass, d.Name)
				}
			}
			if pass == 0 {
				for _, d := range endToEnd {
					if line.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", wd.Name, d.Name, line.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}

// TestGateFailsTheRun: failed ops are never timed, a run without a single
// good sweep has no report, and a report with failed ops says so on the
// driver line.
func TestGateFailsTheRun(t *testing.T) {
	w := &engineWorkload{name: "broken", sweepsPer10s: 2, list: func(salt string, smoke bool) []exp.HybridSpec {
		specs := fig7List(salt, true)[:1]
		specs[0].Fidelity = "no-such-fidelity" // RunHybridCtx rejects it
		return specs
	}}
	rc := &runCtx{seed: 1, seconds: 1, smoke: true, outDir: t.TempDir(), log: io.Discard}
	if err := w.setup(rc); err != nil {
		t.Fatal(err)
	}
	if p := w.runFixed(2, nil); p.failed != 2 || p.attempted != 2 || len(p.sweepMS) != 0 {
		t.Errorf("failed=%d attempted=%d timed sweeps=%d, want 2, 2, 0", p.failed, p.attempted, len(p.sweepMS))
	}
	if _, err := runMeasured(rc, w); err == nil {
		t.Error("a workload whose every point errors must not produce a report")
	}
	rep := &report{Workload: "w", Failed: 1, Attempted: 2, Metrics: map[string]metric{
		"setup_s": {1, "s"}, "sweep_p25_ms": {1, "ms"}, "peak_rss_mb": {1, "MB"}}}
	line, err := rep.driverLine(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(line), `"correct":false`) || !strings.Contains(string(line), `"failed":1`) {
		t.Errorf("driver line %s", line)
	}
	delete(rep.Metrics, "setup_s")
	if _, err := rep.driverLine(endToEnd); err == nil {
		t.Error("a report missing a declared metric must not yield a driver line")
	}
}

// TestCheckResult: each failure predicate trips on its own.
func TestCheckResult(t *testing.T) {
	ok := &exp.Result{FlowsStarted: 10, FlowsCompleted: 8, TruncatedFlows: 2}
	if err := checkResult(ok); err != nil {
		t.Errorf("healthy result: %v", err)
	}
	for name, r := range map[string]*exp.Result{
		"audit":    {AuditErrors: []string{"tor0: shared pool off by 1"}},
		"lossless": {LosslessViolations: 1},
		"ledger":   {FlowsStarted: 10, FlowsCompleted: 8, TruncatedFlows: 1},
	} {
		if err := checkResult(r); err == nil {
			t.Errorf("%s: predicate did not trip", name)
		}
	}
}

// TestScaleSpecMirrorsRunScale: scale_10k builds its spec by hand so that
// the held-out sweep can salt it; with no salt it must be the spec
// Harness.RunScale runs, result for result.
func TestScaleSpecMirrorsRunScale(t *testing.T) {
	if testing.Short() {
		t.Skip("two 1,024-host runs")
	}
	ref, err := exp.NewHarness(1).RunScale(exp.ScaleTiny, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scaleSpec(exp.ScaleTiny, "")
	if err != nil {
		t.Fatal(err)
	}
	got, err := exp.RunHybridCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(ref.Run)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Errorf("scaleSpec(tiny) ran %d events, RunScale(tiny) %d: the mirror has drifted", got.Events, ref.Run.Events)
	}
}

// TestDrainVariantsSimulateTheSame: daemon_cold's timed sweeps are one sweep
// made distinct for the cache by its drain horizon; the horizon must change
// nothing but the reported EndTime.
func TestDrainVariantsSimulateTheSame(t *testing.T) {
	var canon []byte
	for variant := 0; variant < 2; variant++ {
		sw, err := makeSweep("fixed", variant, true)
		if err != nil {
			t.Fatal(err)
		}
		_, results, err := sw.direct()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			r.EndTime = 0
		}
		data, err := exp.MarshalResults(results)
		if err != nil {
			t.Fatal(err)
		}
		if variant == 0 {
			canon = data
		} else if !bytes.Equal(canon, data) {
			t.Error("a longer drain horizon changed the simulated results")
		}
		if key0, _ := exp.CacheKey(sw.specs[0]); variant == 1 {
			first, _ := makeSweep("fixed", 0, true)
			if k, _ := exp.CacheKey(first.specs[0]); k == key0 {
				t.Error("two variants share a cache key: the cold workload would hit")
			}
		}
	}
}
