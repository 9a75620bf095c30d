package main

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lowerDef := metricDef{Name: "sweep_p25_ms", Better: lower, Bound: 0.10}
	higherDef := metricDef{Name: "rate", Better: higher, Bound: 0.10}
	for _, tc := range []struct {
		def          metricDef
		a, b, spread float64
		want         string
	}{
		{lowerDef, 100, 105, 0.02, verdictSame},
		{lowerDef, 100, 111, 0.02, verdictWorse},
		{lowerDef, 100, 89, 0.02, verdictBetter},
		{lowerDef, 100, 110, 0.02, verdictSame}, // exactly at the bound is not beyond it
		// Noise wider than the bound: neither a regression nor "unchanged".
		{lowerDef, 100, 130, 0.12, verdictUnresolved},
		{lowerDef, 100, 100, 0.12, verdictUnresolved},
		{higherDef, 100, 89, 0.02, verdictWorse},
		{higherDef, 100, 111, 0.02, verdictBetter},
		{lowerDef, 0, 5, 0, verdictUnresolved},
	} {
		if got := judge(tc.def, tc.a, tc.b, tc.spread); got != tc.want {
			t.Errorf("judge(%s, %v -> %v, spread %v) = %s, want %s", tc.def.Better, tc.a, tc.b, tc.spread, got, tc.want)
		}
	}
}

func measured(workload string, sweepMS float64, digest string, events uint64) *report {
	return &report{
		Workload: workload, Digest: digest,
		Metrics: map[string]metric{
			"setup_s":      {Value: 0.1, Unit: "s"},
			"sweep_p25_ms": {Value: sweepMS, Unit: "ms"},
			"peak_rss_mb":  {Value: 20, Unit: "MB"},
		},
		Counts: map[string]uint64{"sim.events": events},
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, reports ...*report) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, reports); err != nil {
			t.Fatal(err)
		}
		return path
	}
	runs := func(digest string, events uint64, sweepMS ...float64) []*report {
		var out []*report
		for _, v := range sweepMS {
			out = append(out, measured("fig7_packet", v, digest, events))
		}
		return out
	}
	base := write("a.json", runs("aa", 1000, 100)...)

	var out bytes.Buffer
	if err := compareFiles(base, write("same.json", runs("aa", 1000, 103)...), &out); err != nil {
		t.Errorf("A/A within bounds: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "identical") || !strings.Contains(out.String(), "n/a") {
		t.Errorf("one run a side: want identical digests and an unknown spread:\n%s", out.String())
	}

	out.Reset()
	if err := compareFiles(base, write("slow.json", runs("aa", 1000, 140)...), &out); !errors.Is(err, errCompare) {
		t.Errorf("a 40%% slowdown must fail the comparison, got %v", err)
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("no worse row:\n%s", out.String())
	}

	out.Reset()
	if err := compareFiles(base, write("changed.json", runs("bb", 1001, 100)...), &out); !errors.Is(err, errCompare) {
		t.Errorf("a changed result digest must fail the comparison, got %v", err)
	}
	if !strings.Contains(out.String(), "CHANGED") || !strings.Contains(out.String(), "1000 -> 1001") {
		t.Errorf("changed digest and count not reported:\n%s", out.String())
	}

	// Four runs a side: the spread is taken across them.
	out.Reset()
	quiet := write("a4.json", runs("aa", 1000, 100, 101, 99, 100)...)
	if err := compareFiles(quiet, write("b4.json", runs("aa", 1000, 140, 141, 139, 140)...), &out); !errors.Is(err, errCompare) {
		t.Errorf("four slow runs must fail the comparison, got %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareFiles(quiet, write("noisy4.json", runs("aa", 1000, 90, 140, 190, 240)...), &out); err != nil {
		t.Errorf("a difference inside the noise is unresolved, not worse: %v", err)
	}
	if !strings.Contains(out.String(), verdictUnresolved) {
		t.Errorf("no unresolved row:\n%s", out.String())
	}

	if _, err := digestsOf(append(runs("aa", 1000, 100), runs("bb", 1000, 100)...)); err == nil {
		t.Error("two runs of one file with different digests must be refused")
	}
}

func TestAppendJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.json")
	for i := 1; i <= 3; i++ {
		if err := appendJSON(path, []*report{measured("fig7_packet", float64(100+i), "aa", 1000)}); err != nil {
			t.Fatal(err)
		}
		got, err := loadReports(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != i {
			t.Fatalf("after %d appends the file holds %d reports", i, len(got))
		}
	}
}
