package exp

import (
	"fmt"
	"io"

	"l2bm/internal/metrics"
	"l2bm/internal/pkt"
)

// TCPLoadSweep is the x-axis of Figs. 3(b) and 7: TCP load 0.1–0.8 with
// RDMA load fixed at 0.4.
var TCPLoadSweep = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}

// Table2Loads is the x-axis of Table II.
var Table2Loads = []float64{0.4, 0.5, 0.6, 0.7, 0.8}

// IncastFanouts is the x-axis of Fig. 11.
var IncastFanouts = []int{5, 10, 15}

// table2Policies is Table II's row order.
var table2Policies = []string{"ABM", "DT", "DT2", "L2BM"}

// Experiment describes one evaluation artifact once: the grid of points it
// asks for and how their results render. Harness.Run executes any row the
// same way — Grid, the worker pool, Render — so a grid can be asked for
// without being rendered, and adding an artifact is one row of Experiments.
type Experiment struct {
	// Name is the -exp selector.
	Name string
	// Paper marks the artifacts "-exp all" regenerates, in table order.
	Paper bool
	// Grid returns the points in spec order, which is also the emit and the
	// render order. policies restricts the field of a grid that races a
	// chosen one (the arena); every other grid ignores it.
	Grid func(scale Scale, policies []string) ([]HybridSpec, error)
	// Progress, when non-nil, renders one line per finished point. The
	// pool's collator emits them in spec order, so the stream is
	// byte-identical for any worker count.
	Progress func(HybridSpec, *Result) string
	// Render writes the artifact's tables; specs[i] produced results[i]. A
	// returned error fails the experiment (the scale smoke's audit gate).
	Render func(w io.Writer, scale Scale, specs []HybridSpec, results []*Result) error
}

// Experiments is the evaluation in run order; its Paper rows are "-exp all".
// The hyperscale smoke is deliberately not one of them: it is an engineering
// harness, not a paper artifact (and at ScaleFull it builds a 100k-host
// fabric).
var Experiments = []Experiment{
	// Fig. 3(a): the same web-search workload (load 0.4, inter-rack) offered
	// once as all-TCP and once as all-RDMA, comparing the switch buffer each
	// occupies under default DT.
	{Name: "fig3a", Paper: true, Grid: fig3aGrid, Render: renderFig3a},
	// Fig. 3(b): RDMA tail latency vs TCP load under the pre-existing
	// policies (DT, ABM) — the motivation for L2BM.
	{Name: "fig3b", Paper: true, Grid: loadGrid("fig3b", []string{"DT", "ABM"}, TCPLoadSweep), Render: renderFig3b},
	// Fig. 7(a)–(d): RDMA p99 slowdown, TCP p99 slowdown, ToR buffer
	// occupancy and PFC pause frames as TCP load grows, all four policies.
	{Name: "fig7", Paper: true, Grid: loadGrid("fig7", PolicyNames, TCPLoadSweep), Progress: loadProgress, Render: renderFig7},
	// Table II: PFC pause-frame counts for loads 0.4–0.8. It is the
	// pause-frame column of Fig. 7, so it asks for the "fig7"-named grid at
	// its own loads: a harness whose Cache already holds a Fig. 7 sweep
	// restores every cell, and only absent ones are simulated.
	{Name: "table2", Paper: true, Grid: loadGrid("fig7", table2Policies, Table2Loads), Render: renderTable2},
	// Fig. 8: the occupancy CDF of each ToR switch at TCP load 0.8 (samples
	// every 1 ms in the paper; scaled sampling here).
	{Name: "fig8", Paper: true, Grid: loadGrid("fig8", PolicyNames, []float64{0.8}), Render: renderFig8},
	// Fig. 9: CDFs of RDMA and TCP FCT slowdowns at TCP load 0.8.
	{Name: "fig9", Paper: true, Grid: loadGrid("fig9", PolicyNames, []float64{0.8}), Render: renderFig9},
	// Fig. 10: incast deep dive at N = 5 over TCP web-search background at
	// load 0.8 — FCT slowdown CDF of incast flows, query-delay error-bar
	// statistics, and ToR occupancy CDF.
	{Name: "fig10", Paper: true, Grid: policyGrid(func(Scale) HybridSpec {
		return HybridSpec{Name: "fig10", TCPLoad: 0.8, Incast: incastSpecFor(5)}
	}), Render: renderFig10},
	// Fig. 11: incast behaviour as the fan-in degree N grows — tail
	// slowdown, average query delay and PFC pause frames.
	{Name: "fig11", Paper: true, Grid: fig11Grid, Render: renderFig11},
	{Name: "faults", Paper: true, Grid: policyGrid(faultPoint), Render: renderFaults},
	{Name: "arena", Paper: true, Grid: arenaGrid, Progress: arenaProgress, Render: renderArena},
	{Name: "scale", Grid: scaleGrid, Render: renderScale},
}

// loadGrid is the (policy × TCP load) grid of Figs. 3(b), 7, 8, 9 and Table
// II, policy-major, RDMA load fixed at 0.4.
func loadGrid(name string, policies []string, loads []float64) func(Scale, []string) ([]HybridSpec, error) {
	return func(scale Scale, _ []string) ([]HybridSpec, error) {
		specs := make([]HybridSpec, 0, len(policies)*len(loads))
		for _, pol := range policies {
			for _, load := range loads {
				specs = append(specs, HybridSpec{
					Name: name, Policy: pol, Scale: scale,
					RDMALoad: 0.4, TCPLoad: load,
				})
			}
		}
		return specs, nil
	}
}

// policyGrid is one point per paper policy (Fig. 10, faults): point's spec
// with the scale and each of PolicyNames filled in.
func policyGrid(point func(Scale) HybridSpec) func(Scale, []string) ([]HybridSpec, error) {
	return func(scale Scale, _ []string) ([]HybridSpec, error) {
		specs := make([]HybridSpec, len(PolicyNames))
		for i, pol := range PolicyNames {
			specs[i] = point(scale)
			specs[i].Policy, specs[i].Scale = pol, scale
		}
		return specs, nil
	}
}

func fig3aGrid(scale Scale, _ []string) ([]HybridSpec, error) {
	return []HybridSpec{
		{Name: "fig3a-tcp", Policy: "DT", Scale: scale, TCPLoad: 0.4, InterRackOnly: true},
		{Name: "fig3a-rdma", Policy: "DT", Scale: scale, RDMALoad: 0.4, InterRackOnly: true},
	}, nil
}

func fig11Grid(scale Scale, _ []string) ([]HybridSpec, error) {
	specs := make([]HybridSpec, 0, len(PolicyNames)*len(IncastFanouts))
	for _, pol := range PolicyNames {
		for _, n := range IncastFanouts {
			specs = append(specs, HybridSpec{
				Name: fmt.Sprintf("fig11-n%d", n), Policy: pol, Scale: scale,
				TCPLoad: 0.8, Incast: incastSpecFor(n),
			})
		}
	}
	return specs, nil
}

// incastSpecFor scales the paper's incast parameters (1 MB over N
// responders, 752 queries/s) to the run's host count so the burst remains
// ~25% of the switch buffer.
func incastSpecFor(fanout int) *IncastSpec {
	return &IncastSpec{Fanout: fanout, RequestBytes: 1 << 20, QueryRate: 752}
}

func loadProgress(sp HybridSpec, r *Result) string {
	return fmt.Sprintf("  %s %s load=%.1f: rdmaP99=%s tcpP99=%s pause=%d",
		sp.Name, sp.Policy, sp.TCPLoad, f2(r.RDMAp99()), f2(r.TCPp99()), r.PauseFrames)
}

// Row labels of the integrity tables and column headers of the pivots.
func policyLabel(sp HybridSpec) string { return sp.Policy }
func loadLabel(sp HybridSpec) string   { return fmt.Sprintf("%s@%.1f", sp.Policy, sp.TCPLoad) }
func loadHeader(sp HybridSpec) string  { return fmt.Sprintf("load=%.1f", sp.TCPLoad) }
func fanoutHeader(sp HybridSpec) string {
	return fmt.Sprintf("N=%d", sp.Incast.Fanout)
}

// integrity builds the violation-visibility table every experiment appends
// to its output: lossless gaps and violations must be zero on a healthy
// fabric, so a regression shows up in experiment output, not only in tests.
func integrity(title string, specs []HybridSpec, results []*Result, label func(HybridSpec) string) *Table {
	tab := NewTable(title, "run", "lossless_gaps", "lossless_violations", "audit_errors")
	for i, r := range results {
		tab.AddRow(label(specs[i]), fmt.Sprint(r.LosslessGaps),
			fmt.Sprint(r.LosslessViolations), fmt.Sprint(len(r.AuditErrors)))
	}
	return tab
}

// pivot lays a policy-major grid out as one row per policy and one column
// per point of that policy, headed by col(spec).
func pivot(title string, specs []HybridSpec, results []*Result, col func(HybridSpec) string, cell func(*Result) string) *Table {
	headers := []string{"policy"}
	for _, sp := range specs {
		if sp.Policy != specs[0].Policy {
			break
		}
		headers = append(headers, col(sp))
	}
	tab := NewTable(title, headers...)
	for i, n := 0, len(headers)-1; i < len(specs); i += n {
		row := []string{specs[i].Policy}
		for _, r := range results[i : i+n] {
			row = append(row, cell(r))
		}
		tab.AddRow(row...)
	}
	return tab
}

// occupancyKB formats percentiles of occupancy samples (bytes) in KB.
func occupancyKB(xs []float64, ps ...float64) []string {
	cells := make([]string, len(ps))
	for i, p := range ps {
		cells[i] = f2(metrics.Percentile(xs, p) / 1024)
	}
	return cells
}

// occupancySamples pools the readings of the given occupancy timelines (one
// ToR's, or all of a run's).
func occupancySamples(timelines ...[]metrics.Reading) []float64 {
	var xs []float64
	for _, timeline := range timelines {
		for _, s := range timeline {
			xs = append(xs, float64(s.Value))
		}
	}
	return xs
}

func rdmaP99(r *Result) string { return f2(r.RDMAp99()) }
func pauses(r *Result) string  { return fmt.Sprint(r.PauseFrames) }

func renderFig3a(w io.Writer, scale Scale, specs []HybridSpec, results []*Result) error {
	protocol := func(sp HybridSpec) string {
		if sp.RDMALoad > 0 {
			return "RDMA"
		}
		return "TCP"
	}
	tab := NewTable("Fig 3(a): buffer occupancy, TCP vs RDMA under the same workload",
		"protocol", "occ_p50_KB", "occ_p90_KB", "occ_p99_KB", "peak_frac_of_B")
	buffer := float64(scale.Topo().Switch.TotalShared)
	for i, r := range results {
		all := occupancySamples(r.TorOccupancy...)
		row := append([]string{protocol(specs[i])}, occupancyKB(all, 50, 90, 99)...)
		tab.AddRow(append(row, f3(metrics.Percentile(all, 100)/buffer))...)
	}
	return fprintTables(w, tab,
		integrity("Fig 3(a) integrity: lossless gaps / violations / MMU audits", specs, results, protocol))
}

func renderFig3b(w io.Writer, _ Scale, specs []HybridSpec, results []*Result) error {
	return fprintTables(w,
		pivot("Fig 3(b): RDMA 99% FCT slowdown vs TCP load (motivation)", specs, results, loadHeader, rdmaP99),
		integrity("Fig 3(b) integrity: lossless gaps / violations / MMU audits", specs, results, loadLabel))
}

func renderFig7(w io.Writer, scale Scale, specs []HybridSpec, results []*Result) error {
	buffer := scale.Topo().Switch.TotalShared
	return fprintTables(w,
		pivot("Fig 7(a): RDMA 99% FCT slowdown", specs, results, loadHeader, rdmaP99),
		pivot("Fig 7(b): TCP 99% FCT slowdown", specs, results, loadHeader,
			func(r *Result) string { return f2(r.TCPp99()) }),
		pivot("Fig 7(c): ToR buffer occupancy (p99 fraction of B)", specs, results, loadHeader,
			func(r *Result) string { return f3(r.OccupancyP99Fraction(buffer)) }),
		pivot("Fig 7(d): PFC pause frames", specs, results, loadHeader, pauses),
		integrity("Fig 7 integrity: lossless gaps / violations / MMU audits", specs, results, loadLabel))
}

func renderTable2(w io.Writer, _ Scale, specs []HybridSpec, results []*Result) error {
	return fprintTables(w,
		pivot("Table II: number of PFC pause frames", specs, results, loadHeader, pauses),
		integrity("Table II integrity: lossless gaps / violations / MMU audits", specs, results, loadLabel))
}

func renderFig8(w io.Writer, _ Scale, specs []HybridSpec, results []*Result) error {
	tab := NewTable("Fig 8: ToR occupancy at TCP load 0.8 (KB at CDF points)",
		"policy", "tor", "p25", "p50", "p75", "p90", "p99")
	for i, r := range results {
		for tor, timeline := range r.TorOccupancy {
			tab.AddRow(append([]string{specs[i].Policy, fmt.Sprint(tor)},
				occupancyKB(occupancySamples(timeline), 25, 50, 75, 90, 99)...)...)
		}
	}
	return fprintTables(w, tab,
		integrity("Fig 8 integrity: lossless gaps / violations / MMU audits", specs, results, policyLabel))
}

func renderFig9(w io.Writer, _ Scale, specs []HybridSpec, results []*Result) error {
	tab := NewTable("Fig 9: FCT slowdown at TCP load 0.8",
		"policy", "class", "p50", "p90", "p99")
	for i, r := range results {
		tab.AddRow(specs[i].Policy, pkt.ClassLossless.String(),
			f2(metrics.PercentileSorted(r.RDMASlowdowns, 50)),
			f2(metrics.PercentileSorted(r.RDMASlowdowns, 90)),
			f2(r.RDMAp99()))
		tab.AddRow(specs[i].Policy, pkt.ClassLossy.String(),
			f2(metrics.PercentileSorted(r.TCPSlowdowns, 50)),
			f2(metrics.PercentileSorted(r.TCPSlowdowns, 90)),
			f2(r.TCPp99()))
	}
	return fprintTables(w, tab,
		integrity("Fig 9 integrity: lossless gaps / violations / MMU audits", specs, results, policyLabel))
}

func renderFig10(w io.Writer, _ Scale, specs []HybridSpec, results []*Result) error {
	cdf := NewTable("Fig 10(a): incast flow FCT slowdown (N=5)",
		"policy", "p50", "p90", "p99", "frac_under_10x")
	bars := NewTable("Fig 10(b): query response delay (ms)",
		"policy", "mean", "std", "min", "p25", "median", "p75", "max")
	occ := NewTable("Fig 10(c): ToR occupancy under incast (KB)",
		"policy", "p50", "p90", "p99")
	for i, r := range results {
		pol := specs[i].Policy
		under10 := 0
		for _, s := range r.IncastSlowdowns {
			if s < 10 {
				under10++
			}
		}
		frac := 0.0
		if n := len(r.IncastSlowdowns); n > 0 {
			frac = float64(under10) / float64(n)
		}
		cdf.AddRow(pol,
			f2(metrics.PercentileSorted(r.IncastSlowdowns, 50)),
			f2(metrics.PercentileSorted(r.IncastSlowdowns, 90)),
			f2(r.Incastp99()), f3(frac))

		s := r.QueryDelaySummary()
		bars.AddRow(pol, f2(s.Mean), f2(s.Std), f2(s.Min), f2(s.P25), f2(s.Median), f2(s.P75), f2(s.Max))
		occ.AddRow(append([]string{pol}, occupancyKB(occupancySamples(r.TorOccupancy...), 50, 90, 99)...)...)
	}
	return fprintTables(w, cdf, bars, occ,
		integrity("Fig 10 integrity: lossless gaps / violations / MMU audits", specs, results, policyLabel))
}

func renderFig11(w io.Writer, _ Scale, specs []HybridSpec, results []*Result) error {
	return fprintTables(w,
		pivot("Fig 11(a): 99% FCT slowdown of incast flows", specs, results, fanoutHeader,
			func(r *Result) string { return f2(r.Incastp99()) }),
		pivot("Fig 11(b): average query response time (ms)", specs, results, fanoutHeader,
			func(r *Result) string { return f2(r.QueryDelaySummary().Mean) }),
		pivot("Fig 11(c): PFC pause frames", specs, results, fanoutHeader, pauses),
		integrity("Fig 11 integrity: lossless gaps / violations / MMU audits", specs, results,
			func(sp HybridSpec) string { return sp.Policy + "@" + fanoutHeader(sp) }))
}
