package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: l2bm/internal/switchsim
BenchmarkAdmit-8   	  200000	       431.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkSweepWorkers/sequential-8         	       2	1168284528 ns/op	   5627306 events/s	16520620 B/op	   75067 allocs/op
PASS
ok  	l2bm/internal/switchsim	0.197s
`

func TestParseStripsCPUSuffixAndReadsMetrics(t *testing.T) {
	var echo bytes.Buffer
	benches, err := parse(strings.NewReader(sample), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(benches))
	}
	a := benches[0]
	if a.Name != "BenchmarkAdmit" || a.NsPerOp != 431.1 || a.AllocsPerOp != 0 {
		t.Errorf("admit row mangled: %+v", a)
	}
	b := benches[1]
	if b.Name != "BenchmarkSweepWorkers/sequential" {
		t.Errorf("cpu suffix not stripped: %q", b.Name)
	}
	if b.EventsPerSec != 5627306 || b.AllocsPerOp != 75067 || b.BytesPerOp != 16520620 {
		t.Errorf("sweep metrics mangled: %+v", b)
	}
	// parse must echo every input line through for CI log capture.
	if echo.String() != sample {
		t.Error("parse did not echo stdin verbatim")
	}
}

func writeBaseline(t *testing.T, allocs float64) string {
	t.Helper()
	snap := Snapshot{Benchmarks: []Benchmark{
		{Name: "BenchmarkAdmit", AllocsPerOp: allocs},
	}}
	buf, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(p, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGuardPassesWithinTolerance(t *testing.T) {
	base := writeBaseline(t, 4)
	benches := []Benchmark{
		{Name: "BenchmarkAdmit", AllocsPerOp: 6}, // limit = 4*1.25+2 = 7
		{Name: "BenchmarkNew", AllocsPerOp: 999}, // absent from baseline: skipped
	}
	if err := guard(benches, base, guardOpts{AllocRatio: 1.25, AllocSlack: 2}, &bytes.Buffer{}); err != nil {
		t.Fatalf("guard failed within tolerance: %v", err)
	}
}

// TestGuardReportsNewBenchmarks: a benchmark present in the run but absent
// from the baseline must be announced as "new (no baseline)" and must not
// fail the guard, even with an outrageous allocation count — otherwise a
// freshly added series could never land before its baseline exists.
func TestGuardReportsNewBenchmarks(t *testing.T) {
	base := writeBaseline(t, 4)
	var out bytes.Buffer
	benches := []Benchmark{
		{Name: "BenchmarkShardedRun/shards-4", AllocsPerOp: 1e9},
	}
	if err := guard(benches, base, guardOpts{AllocRatio: 1.25, AllocSlack: 2}, &out); err != nil {
		t.Fatalf("guard failed on a baseline-less benchmark: %v", err)
	}
	want := "BenchmarkShardedRun/shards-4: new (no baseline), skipping"
	if !strings.Contains(out.String(), want) {
		t.Errorf("guard output %q does not report %q", out.String(), want)
	}
}

func TestGuardFailsOnRegression(t *testing.T) {
	base := writeBaseline(t, 4)
	benches := []Benchmark{{Name: "BenchmarkAdmit", AllocsPerOp: 8}} // > 7
	err := guard(benches, base, guardOpts{AllocRatio: 1.25, AllocSlack: 2}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("guard passed an allocs/op regression")
	}
	if !strings.Contains(err.Error(), "BenchmarkAdmit") {
		t.Errorf("failure does not name the benchmark: %v", err)
	}
}

// TestGuardBytesPerOp: B/op is guarded wherever the baseline records it —
// the regression an allocation count cannot see is an allocation that grew.
func TestGuardBytesPerOp(t *testing.T) {
	snap := Snapshot{Benchmarks: []Benchmark{
		{Name: "BenchmarkPoissonInstall/10k", AllocsPerOp: 1000, BytesPerOp: 1 << 20},
		{Name: "BenchmarkNoBytesRecorded", AllocsPerOp: 4},
	}}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(base, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := guardOpts{AllocRatio: 1.25, AllocSlack: 2}

	ok := []Benchmark{
		{Name: "BenchmarkPoissonInstall/10k", AllocsPerOp: 1000, BytesPerOp: 1.25*(1<<20) + bytesSlack},
		{Name: "BenchmarkNoBytesRecorded", AllocsPerOp: 4, BytesPerOp: 1e12}, // no baseline B/op: not guarded
	}
	if err := guard(ok, base, opts, &bytes.Buffer{}); err != nil {
		t.Fatalf("guard failed within B/op tolerance: %v", err)
	}
	fat := []Benchmark{{Name: "BenchmarkPoissonInstall/10k", AllocsPerOp: 1000, BytesPerOp: 3 << 20}}
	err = guard(fat, base, opts, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "B/op") {
		t.Fatalf("guard missed a 3x B/op regression at equal allocs/op: %v", err)
	}
}

func TestRunWritesSnapshot(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run([]string{"-json", out}, strings.NewReader(sample), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 2 || snap.GoVersion == "" || snap.Date == "" {
		t.Errorf("snapshot incomplete: %+v", snap)
	}
}

func TestRunRequiresAnAction(t *testing.T) {
	if err := run(nil, strings.NewReader(sample), &bytes.Buffer{}); err == nil {
		t.Fatal("run with no flags should fail")
	}
}

// writeFullBaseline stores ns/op and events/s alongside allocs so the
// wall-clock guards have something to compare against.
func writeFullBaseline(t *testing.T) string {
	t.Helper()
	snap := Snapshot{Benchmarks: []Benchmark{
		{Name: "BenchmarkAdmit", AllocsPerOp: 4, NsPerOp: 100, EventsPerSec: 1e6},
	}}
	buf, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(p, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGuardNsAndEventsRatios(t *testing.T) {
	base := writeFullBaseline(t)
	opts := guardOpts{AllocRatio: 1.25, AllocSlack: 2, NsRatio: 3, EventsRatio: 3}

	ok := []Benchmark{{Name: "BenchmarkAdmit", AllocsPerOp: 4, NsPerOp: 250, EventsPerSec: 5e5}}
	if err := guard(ok, base, opts, &bytes.Buffer{}); err != nil {
		t.Fatalf("guard failed within ns/events tolerance: %v", err)
	}

	slowNs := []Benchmark{{Name: "BenchmarkAdmit", AllocsPerOp: 4, NsPerOp: 301, EventsPerSec: 1e6}}
	err := guard(slowNs, base, opts, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "ns/op") {
		t.Fatalf("guard missed the ns/op regression: %v", err)
	}

	slowEv := []Benchmark{{Name: "BenchmarkAdmit", AllocsPerOp: 4, NsPerOp: 100, EventsPerSec: 3e5}}
	err = guard(slowEv, base, opts, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "events/s") {
		t.Fatalf("guard missed the events/s regression: %v", err)
	}

	// With the ratios disabled (zero), the same rows pass: wall-clock
	// guarding is opt-in.
	off := guardOpts{AllocRatio: 1.25, AllocSlack: 2}
	if err := guard(slowEv, base, off, &bytes.Buffer{}); err != nil {
		t.Fatalf("disabled ratios still failed: %v", err)
	}
}

func TestCheckSpeedups(t *testing.T) {
	benches := []Benchmark{
		{Name: "BenchmarkWheelVsHeap/heap-100k", EventsPerSec: 2e6},
		{Name: "BenchmarkWheelVsHeap/wheel-100k", EventsPerSec: 4e6},
	}
	if err := checkSpeedups(benches, "wheel-100k>=1.5x heap-100k", &bytes.Buffer{}); err != nil {
		t.Fatalf("2x speedup failed a 1.5x gate: %v", err)
	}
	err := checkSpeedups(benches, "wheel-100k>=2.5x heap-100k", &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "want >= 2.50x") {
		t.Fatalf("2x speedup passed a 2.5x gate: %v", err)
	}
	// Multiple clauses: the second one fails.
	err = checkSpeedups(benches,
		"wheel-100k>=1.5x heap-100k, heap-100k>=1.1x wheel-100k", &bytes.Buffer{})
	if err == nil {
		t.Fatal("inverted clause passed")
	}
	if err := checkSpeedups(benches, "nope>=1.5x heap-100k", &bytes.Buffer{}); err == nil {
		t.Fatal("unknown operand passed")
	}
	if err := checkSpeedups(benches, "garbage", &bytes.Buffer{}); err == nil {
		t.Fatal("unparseable clause passed")
	}
	twins := []Benchmark{
		{Name: "BenchmarkA/run", EventsPerSec: 1},
		{Name: "BenchmarkB/run", EventsPerSec: 2},
		{Name: "BenchmarkC/other", EventsPerSec: 3},
	}
	if err := checkSpeedups(twins, "run>=1.0x other", &bytes.Buffer{}); err == nil {
		t.Fatal("ambiguous operand (matches two sub-names) passed")
	}
}

func TestParseCapturesCustomMetrics(t *testing.T) {
	const line = "BenchmarkBuildHyperscale/10k-8  3  1234 ns/op  2899 bytes/host  100 B/op  5 allocs/op\n"
	benches, err := parse(strings.NewReader(line), &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1", len(benches))
	}
	if got := benches[0].Metrics["bytes/host"]; got != 2899 {
		t.Errorf("bytes/host = %v, want 2899 (metrics: %v)", got, benches[0].Metrics)
	}
}
