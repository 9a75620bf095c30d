package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one (metric, workload) row.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// judge applies a metric's bound to the medians of two sides. spread is the
// wider of the two sides' run-to-run quartile distances as a share of their
// medians: when the noise is wider than the bound, a difference inside it
// cannot be told from none, and the row is unresolved rather than unchanged.
func judge(def metricDef, a, b, spread float64) string {
	if a == 0 {
		return verdictUnresolved
	}
	worsening := (b - a) / a
	if def.Better == higher {
		worsening = -worsening
	}
	switch {
	case spread > def.Bound:
		return verdictUnresolved
	case worsening > def.Bound:
		return verdictWorse
	case worsening < -def.Bound:
		return verdictBetter
	}
	return verdictSame
}

// side is one file's view of a (workload, metric) pair: the median over its
// runs and, with four or more runs, their inter-quartile spread. Fewer runs
// cannot show a run-to-run spread (the sweeps within one run share whatever
// the box was doing during it), so the spread is then unknown, the row is
// judged on its bound alone, and the run counts are printed so that nobody
// mistakes it for more.
type side struct {
	median, spread float64
	runs           int
}

// minRunsForSpread is how many runs a side needs before its quartiles mean
// anything.
const minRunsForSpread = 4

func sideOf(reports []*report, workload, name string) (side, bool) {
	var values []float64
	for _, r := range reports {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			values = append(values, m.Value)
		}
	}
	if len(values) == 0 {
		return side{}, false
	}
	d := summarize(values)
	s := side{median: d.Median, runs: len(values)}
	if len(values) >= minRunsForSpread {
		s.spread = d.spread()
	}
	return s, true
}

func loadReports(path string) ([]*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reports []*report
	if err := json.Unmarshal(data, &reports); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reports, nil
}

// digestsOf collects, per workload, the result digest and exact counts of a
// file's measured runs. Runs of one file must agree among themselves.
func digestsOf(reports []*report) (map[string]*report, error) {
	out := map[string]*report{}
	for _, r := range reports {
		if r.Trace {
			continue
		}
		if prev, ok := out[r.Workload]; ok && prev.Digest != r.Digest {
			return nil, fmt.Errorf("%s: two runs in one file disagree on result_digest (%s vs %s)",
				r.Workload, prev.Digest, r.Digest)
		}
		out[r.Workload] = r
	}
	return out, nil
}

var errCompare = errors.New("comparison failed")

// compareFiles is -compare A.json B.json: A is the parent (or the first of
// two runs of one commit), B the change. Every end-to-end (metric, workload)
// pair gets its own row and verdict; the exact simulated counts must be
// identical, because a change meant only to make the simulator faster must
// not change what it simulates. The exit code is non-zero on any "worse" row
// or any changed count.
func compareFiles(pathA, pathB string, w io.Writer) error {
	a, err := loadReports(pathA)
	if err != nil {
		return err
	}
	b, err := loadReports(pathB)
	if err != nil {
		return err
	}
	failed := false
	fmt.Fprintf(w, "%-16s %-14s %12s %12s %9s %8s %6s %5s  %s\n",
		"workload", "metric", "A", "B", "change", "spread", "bound", "runs", "verdict")
	for _, wd := range workloadDefs {
		for _, def := range endToEnd {
			sa, okA := sideOf(a, wd.Name, def.Name)
			sb, okB := sideOf(b, wd.Name, def.Name)
			if !okA || !okB {
				continue
			}
			spread, shown := math.Max(sa.spread, sb.spread), "n/a"
			if sa.runs >= minRunsForSpread && sb.runs >= minRunsForSpread {
				shown = fmt.Sprintf("%.2f%%", 100*spread)
			} else {
				spread = 0
			}
			v := judge(def, sa.median, sb.median, spread)
			if v == verdictWorse {
				failed = true
			}
			fmt.Fprintf(w, "%-16s %-14s %12.5g %12.5g %+8.2f%% %8s %5.0f%% %2d/%-2d  %s\n",
				wd.Name, def.Name, sa.median, sb.median,
				100*(sb.median-sa.median)/sa.median, shown, 100*def.Bound, sa.runs, sb.runs, v)
		}
	}

	da, err := digestsOf(a)
	if err != nil {
		return err
	}
	db, err := digestsOf(b)
	if err != nil {
		return err
	}
	for _, wd := range workloadDefs {
		ra, rb := da[wd.Name], db[wd.Name]
		if ra == nil || rb == nil {
			continue
		}
		if ra.Digest == rb.Digest {
			fmt.Fprintf(w, "%-16s result_digest %s identical\n", wd.Name, ra.Digest)
			continue
		}
		failed = true
		fmt.Fprintf(w, "%-16s result_digest CHANGED %s -> %s: the simulated results differ\n", wd.Name, ra.Digest, rb.Digest)
		for _, k := range sortedKeys(ra.Counts) {
			if ra.Counts[k] != rb.Counts[k] {
				fmt.Fprintf(w, "%-16s   count %-26s %d -> %d\n", wd.Name, k, ra.Counts[k], rb.Counts[k])
			}
		}
	}

	// The ledger, for reading: no bounds, no verdicts.
	for _, wd := range workloadDefs {
		la, lb := tracedOf(a, wd.Name), tracedOf(b, wd.Name)
		if la == nil || lb == nil {
			continue
		}
		fmt.Fprintf(w, "-- %s per-layer\n", wd.Name)
		for _, def := range perLayer {
			va, vb := la.Metrics[def.Name].Value, lb.Metrics[def.Name].Value
			change := 0.0
			if va != 0 {
				change = 100 * (vb - va) / va
			}
			fmt.Fprintf(w, "%-34s %14.6g %14.6g %+8.2f%% %s\n", def.Name, va, vb, change, def.Unit)
		}
	}
	if failed {
		return errCompare
	}
	return nil
}

func tracedOf(reports []*report, workload string) *report {
	for _, r := range reports {
		if r.Workload == workload && r.Trace {
			return r
		}
	}
	return nil
}
