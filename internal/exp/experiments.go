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

// bufferBytes returns the shared buffer size of the scale's switches, for
// occupancy normalization.
func bufferBytes(s Scale) int64 { return s.Topo().Switch.TotalShared }

// Fig3aResult carries the motivation experiment's per-protocol occupancy.
type Fig3aResult struct {
	TCPOnly  *Result
	RDMAOnly *Result
}

// RunFig3a reproduces Fig. 3(a): the same web-search workload (load 0.4,
// inter-rack) offered once as all-TCP and once as all-RDMA, comparing the
// switch buffer each occupies under default DT.
func (h *Harness) RunFig3a(scale Scale, w io.Writer) (*Fig3aResult, error) {
	results, err := h.runAll([]HybridSpec{
		{Name: "fig3a-tcp", Policy: "DT", Scale: scale, TCPLoad: 0.4, InterRackOnly: true},
		{Name: "fig3a-rdma", Policy: "DT", Scale: scale, RDMALoad: 0.4, InterRackOnly: true},
	}, nil)
	if err != nil {
		return nil, err
	}
	tcp, rdma := results[0], results[1]

	tab := NewTable("Fig 3(a): buffer occupancy, TCP vs RDMA under the same workload",
		"protocol", "occ_p50_KB", "occ_p90_KB", "occ_p99_KB", "peak_frac_of_B")
	for _, row := range []struct {
		name string
		r    *Result
	}{{"TCP", tcp}, {"RDMA", rdma}} {
		var all []float64
		for _, trace := range row.r.TorOccupancy {
			for _, s := range trace {
				all = append(all, float64(s.Value))
			}
		}
		tab.AddRow(row.name,
			f2(metrics.Percentile(all, 50)/1024),
			f2(metrics.Percentile(all, 90)/1024),
			f2(metrics.Percentile(all, 99)/1024),
			f3(metrics.Percentile(all, 100)/float64(bufferBytes(scale))))
	}
	if err := tab.Fprint(w); err != nil {
		return nil, err
	}
	integ := newIntegrityTable("Fig 3(a) integrity: lossless gaps / violations / MMU audits")
	addIntegrityRow(integ, "TCP", tcp)
	addIntegrityRow(integ, "RDMA", rdma)
	if err := integ.Fprint(w); err != nil {
		return nil, err
	}
	return &Fig3aResult{TCPOnly: tcp, RDMAOnly: rdma}, nil
}

// sweepIntegrity renders the integrity table of a (policy × load) sweep.
func sweepIntegrity(title string, sweep *SweepResult, w io.Writer) error {
	integ := newIntegrityTable(title)
	for _, pol := range sweep.Policies {
		for i, res := range sweep.Cells[pol] {
			addIntegrityRow(integ, fmt.Sprintf("%s@%.1f", pol, sweep.Loads[i]), res)
		}
	}
	return integ.Fprint(w)
}

// SweepResult is a (policy, load) grid of results.
type SweepResult struct {
	Policies []string
	Loads    []float64
	// Cells[policy][load index]
	Cells map[string][]*Result
}

// runLoadSweep executes the Fig. 7 grid for the given policies, fanning
// the policy×load points across the harness's worker pool. Progress lines
// are emitted by the pool's collator in spec order, so the stream is
// byte-identical for any worker count.
func (h *Harness) runLoadSweep(name string, scale Scale, policies []string, loads []float64, progress io.Writer) (*SweepResult, error) {
	specs := make([]HybridSpec, 0, len(policies)*len(loads))
	for _, pol := range policies {
		for _, load := range loads {
			specs = append(specs, HybridSpec{
				Name: name, Policy: pol, Scale: scale,
				RDMALoad: 0.4, TCPLoad: load,
			})
		}
	}
	var emit EmitFunc
	if progress != nil {
		emit = func(i int, res *Result) {
			pol, load := policies[i/len(loads)], loads[i%len(loads)]
			fmt.Fprintf(progress, "  %s %s load=%.1f: rdmaP99=%s tcpP99=%s pause=%d\n",
				name, pol, load, f2(res.RDMAp99()), f2(res.TCPp99()), res.PauseFrames)
		}
	}
	results, err := h.runAll(specs, emit)
	if err != nil {
		return nil, err
	}
	out := &SweepResult{Policies: policies, Loads: loads, Cells: make(map[string][]*Result)}
	for i, res := range results {
		out.Cells[policies[i/len(loads)]] = append(out.Cells[policies[i/len(loads)]], res)
	}
	return out, nil
}

// RunFig3b reproduces Fig. 3(b): RDMA tail latency vs TCP load under the
// pre-existing policies (DT, ABM) — the motivation for L2BM.
func (h *Harness) RunFig3b(scale Scale, w io.Writer) (*SweepResult, error) {
	sweep, err := h.runLoadSweep("fig3b", scale, []string{"DT", "ABM"}, TCPLoadSweep, nil)
	if err != nil {
		return nil, err
	}
	tab := NewTable("Fig 3(b): RDMA 99% FCT slowdown vs TCP load (motivation)",
		append([]string{"policy"}, loadHeaders()...)...)
	for _, pol := range sweep.Policies {
		row := []string{pol}
		for _, res := range sweep.Cells[pol] {
			row = append(row, f2(res.RDMAp99()))
		}
		tab.AddRow(row...)
	}
	if err := tab.Fprint(w); err != nil {
		return nil, err
	}
	if err := sweepIntegrity("Fig 3(b) integrity: lossless gaps / violations / MMU audits", sweep, w); err != nil {
		return nil, err
	}
	return sweep, nil
}

func loadHeaders() []string {
	hs := make([]string, len(TCPLoadSweep))
	for i, l := range TCPLoadSweep {
		hs[i] = fmt.Sprintf("load=%.1f", l)
	}
	return hs
}

// RunFig7 reproduces Fig. 7(a)–(d): RDMA p99 slowdown, TCP p99 slowdown,
// ToR buffer occupancy and PFC pause frames as TCP load grows, for all four
// policies.
func (h *Harness) RunFig7(scale Scale, w io.Writer) (*SweepResult, error) {
	sweep, err := h.runLoadSweep("fig7", scale, PolicyNames, TCPLoadSweep, w)
	if err != nil {
		return nil, err
	}
	panels := []struct {
		title string
		cell  func(*Result) string
	}{
		{"Fig 7(a): RDMA 99% FCT slowdown", func(r *Result) string { return f2(r.RDMAp99()) }},
		{"Fig 7(b): TCP 99% FCT slowdown", func(r *Result) string { return f2(r.TCPp99()) }},
		{"Fig 7(c): ToR buffer occupancy (p99 fraction of B)",
			func(r *Result) string { return f3(r.OccupancyP99Fraction(bufferBytes(scale))) }},
		{"Fig 7(d): PFC pause frames", func(r *Result) string { return fmt.Sprint(r.PauseFrames) }},
	}
	for _, panel := range panels {
		tab := NewTable(panel.title, append([]string{"policy"}, loadHeaders()...)...)
		for _, pol := range sweep.Policies {
			row := []string{pol}
			for _, res := range sweep.Cells[pol] {
				row = append(row, panel.cell(res))
			}
			tab.AddRow(row...)
		}
		if err := tab.Fprint(w); err != nil {
			return nil, err
		}
	}
	if err := sweepIntegrity("Fig 7 integrity: lossless gaps / violations / MMU audits", sweep, w); err != nil {
		return nil, err
	}
	return sweep, nil
}

// table2Policies is Table II's row order.
var table2Policies = []string{"ABM", "DT", "DT2", "L2BM"}

// RunTable2 reproduces Table II: PFC pause-frame counts for loads 0.4–0.8.
// Table II is the pause-frame column of Fig. 7, so this asks for the
// "fig7"-named grid at its own loads: a harness whose Cache already holds a
// Fig. 7 sweep restores every cell, and only absent ones are simulated.
func (h *Harness) RunTable2(scale Scale, w io.Writer) (*Table, error) {
	sweep, err := h.runLoadSweep("fig7", scale, table2Policies, Table2Loads, nil)
	if err != nil {
		return nil, err
	}
	tab := NewTable("Table II: number of PFC pause frames",
		"policy", "load=0.4", "load=0.5", "load=0.6", "load=0.7", "load=0.8")
	for _, pol := range sweep.Policies {
		row := []string{pol}
		for _, res := range sweep.Cells[pol] {
			row = append(row, fmt.Sprint(res.PauseFrames))
		}
		tab.AddRow(row...)
	}
	if err := tab.Fprint(w); err != nil {
		return nil, err
	}
	if err := sweepIntegrity("Table II integrity: lossless gaps / violations / MMU audits", sweep, w); err != nil {
		return nil, err
	}
	return tab, nil
}

// Fig8Result holds per-ToR occupancy CDFs per policy.
type Fig8Result struct {
	// CDFs[policy][tor] is the occupancy CDF of that rack switch.
	CDFs map[string][][]metrics.CDFPoint
}

// RunFig8 reproduces Fig. 8: the occupancy CDF of each ToR switch at TCP
// load 0.8 (samples every 1 ms in the paper; scaled sampling here).
func (h *Harness) RunFig8(scale Scale, w io.Writer) (*Fig8Result, error) {
	specs := make([]HybridSpec, len(PolicyNames))
	for i, pol := range PolicyNames {
		specs[i] = HybridSpec{
			Name: "fig8", Policy: pol, Scale: scale, RDMALoad: 0.4, TCPLoad: 0.8,
		}
	}
	results, err := h.runAll(specs, nil)
	if err != nil {
		return nil, err
	}

	out := &Fig8Result{CDFs: make(map[string][][]metrics.CDFPoint)}
	tab := NewTable("Fig 8: ToR occupancy at TCP load 0.8 (KB at CDF points)",
		"policy", "tor", "p25", "p50", "p75", "p90", "p99")
	integ := newIntegrityTable("Fig 8 integrity: lossless gaps / violations / MMU audits")
	for i, pol := range PolicyNames {
		res := results[i]
		addIntegrityRow(integ, pol, res)
		for tor, trace := range res.TorOccupancy {
			xs := make([]float64, len(trace))
			for i, s := range trace {
				xs[i] = float64(s.Value)
			}
			out.CDFs[pol] = append(out.CDFs[pol], metrics.EmpiricalCDF(xs, 100))
			tab.AddRow(pol, fmt.Sprint(tor),
				f2(metrics.Percentile(xs, 25)/1024), f2(metrics.Percentile(xs, 50)/1024),
				f2(metrics.Percentile(xs, 75)/1024), f2(metrics.Percentile(xs, 90)/1024),
				f2(metrics.Percentile(xs, 99)/1024))
		}
	}
	if err := tab.Fprint(w); err != nil {
		return nil, err
	}
	if err := integ.Fprint(w); err != nil {
		return nil, err
	}
	return out, nil
}

// Fig9Result holds the per-class FCT slowdown CDFs at high load.
type Fig9Result struct {
	// RDMA and TCP map policy to slowdown CDFs.
	RDMA map[string][]metrics.CDFPoint
	TCP  map[string][]metrics.CDFPoint
}

// RunFig9 reproduces Fig. 9: CDFs of RDMA and TCP FCT slowdowns at TCP
// load 0.8.
func (h *Harness) RunFig9(scale Scale, w io.Writer) (*Fig9Result, error) {
	specs := make([]HybridSpec, len(PolicyNames))
	for i, pol := range PolicyNames {
		specs[i] = HybridSpec{
			Name: "fig9", Policy: pol, Scale: scale, RDMALoad: 0.4, TCPLoad: 0.8,
		}
	}
	results, err := h.runAll(specs, nil)
	if err != nil {
		return nil, err
	}

	out := &Fig9Result{
		RDMA: make(map[string][]metrics.CDFPoint),
		TCP:  make(map[string][]metrics.CDFPoint),
	}
	tab := NewTable("Fig 9: FCT slowdown at TCP load 0.8",
		"policy", "class", "p50", "p90", "p99")
	integ := newIntegrityTable("Fig 9 integrity: lossless gaps / violations / MMU audits")
	for i, pol := range PolicyNames {
		res := results[i]
		addIntegrityRow(integ, pol, res)
		out.RDMA[pol] = metrics.EmpiricalCDF(res.RDMASlowdowns, 100)
		out.TCP[pol] = metrics.EmpiricalCDF(res.TCPSlowdowns, 100)
		tab.AddRow(pol, pkt.ClassLossless.String(),
			f2(metrics.PercentileSorted(res.RDMASlowdowns, 50)),
			f2(metrics.PercentileSorted(res.RDMASlowdowns, 90)),
			f2(res.RDMAp99()))
		tab.AddRow(pol, pkt.ClassLossy.String(),
			f2(metrics.PercentileSorted(res.TCPSlowdowns, 50)),
			f2(metrics.PercentileSorted(res.TCPSlowdowns, 90)),
			f2(res.TCPp99()))
	}
	if err := tab.Fprint(w); err != nil {
		return nil, err
	}
	if err := integ.Fprint(w); err != nil {
		return nil, err
	}
	return out, nil
}

// incastSpecFor scales the paper's incast parameters (1 MB over N
// responders, 752 queries/s) to the run's host count so the burst remains
// ~25% of the switch buffer.
func incastSpecFor(fanout int) *IncastSpec {
	return &IncastSpec{Fanout: fanout, RequestBytes: 1 << 20, QueryRate: 752}
}

// RunFig10 reproduces Fig. 10: incast deep dive at N = 5 over TCP
// web-search background at load 0.8 — FCT slowdown CDF of incast flows,
// query-delay error-bar statistics, and ToR occupancy CDF.
func (h *Harness) RunFig10(scale Scale, w io.Writer) (map[string]*Result, error) {
	specs := make([]HybridSpec, len(PolicyNames))
	for i, pol := range PolicyNames {
		specs[i] = HybridSpec{
			Name: "fig10", Policy: pol, Scale: scale,
			TCPLoad: 0.8, Incast: incastSpecFor(5),
		}
	}
	results, err := h.runAll(specs, nil)
	if err != nil {
		return nil, err
	}

	out := make(map[string]*Result)
	cdf := NewTable("Fig 10(a): incast flow FCT slowdown (N=5)",
		"policy", "p50", "p90", "p99", "frac_under_10x")
	bars := NewTable("Fig 10(b): query response delay (ms)",
		"policy", "mean", "std", "min", "p25", "median", "p75", "max")
	occ := NewTable("Fig 10(c): ToR occupancy under incast (KB)",
		"policy", "p50", "p90", "p99")
	integ := newIntegrityTable("Fig 10 integrity: lossless gaps / violations / MMU audits")
	for i, pol := range PolicyNames {
		res := results[i]
		out[pol] = res
		addIntegrityRow(integ, pol, res)

		under10 := 0
		for _, s := range res.IncastSlowdowns {
			if s < 10 {
				under10++
			}
		}
		frac := 0.0
		if n := len(res.IncastSlowdowns); n > 0 {
			frac = float64(under10) / float64(n)
		}
		cdf.AddRow(pol,
			f2(metrics.PercentileSorted(res.IncastSlowdowns, 50)),
			f2(metrics.PercentileSorted(res.IncastSlowdowns, 90)),
			f2(res.Incastp99()), f3(frac))

		s := res.QueryDelaySummary()
		bars.AddRow(pol, f2(s.Mean), f2(s.Std), f2(s.Min), f2(s.P25), f2(s.Median), f2(s.P75), f2(s.Max))

		var all []float64
		for _, trace := range res.TorOccupancy {
			for _, smp := range trace {
				all = append(all, float64(smp.Value))
			}
		}
		occ.AddRow(pol, f2(metrics.Percentile(all, 50)/1024),
			f2(metrics.Percentile(all, 90)/1024), f2(metrics.Percentile(all, 99)/1024))
	}
	for _, tab := range []*Table{cdf, bars, occ, integ} {
		if err := tab.Fprint(w); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunFig11 reproduces Fig. 11: incast behaviour as the fan-in degree N
// grows — tail slowdown, average query delay and PFC pause frames.
func (h *Harness) RunFig11(scale Scale, w io.Writer) (map[string]map[int]*Result, error) {
	specs := make([]HybridSpec, 0, len(PolicyNames)*len(IncastFanouts))
	for _, pol := range PolicyNames {
		for _, n := range IncastFanouts {
			specs = append(specs, HybridSpec{
				Name: fmt.Sprintf("fig11-n%d", n), Policy: pol, Scale: scale,
				TCPLoad: 0.8, Incast: incastSpecFor(n),
			})
		}
	}
	results, err := h.runAll(specs, nil)
	if err != nil {
		return nil, err
	}

	out := make(map[string]map[int]*Result)
	tail := NewTable("Fig 11(a): 99% FCT slowdown of incast flows",
		"policy", "N=5", "N=10", "N=15")
	avg := NewTable("Fig 11(b): average query response time (ms)",
		"policy", "N=5", "N=10", "N=15")
	pauses := NewTable("Fig 11(c): PFC pause frames",
		"policy", "N=5", "N=10", "N=15")
	integ := newIntegrityTable("Fig 11 integrity: lossless gaps / violations / MMU audits")
	for pi, pol := range PolicyNames {
		out[pol] = make(map[int]*Result)
		tailRow, avgRow, pauseRow := []string{pol}, []string{pol}, []string{pol}
		for ni, n := range IncastFanouts {
			res := results[pi*len(IncastFanouts)+ni]
			out[pol][n] = res
			addIntegrityRow(integ, fmt.Sprintf("%s@N=%d", pol, n), res)
			tailRow = append(tailRow, f2(res.Incastp99()))
			avgRow = append(avgRow, f2(res.QueryDelaySummary().Mean))
			pauseRow = append(pauseRow, fmt.Sprint(res.PauseFrames))
		}
		tail.AddRow(tailRow...)
		avg.AddRow(avgRow...)
		pauses.AddRow(pauseRow...)
	}
	for _, tab := range []*Table{tail, avg, pauses, integ} {
		if err := tab.Fprint(w); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Package-level wrappers preserve the pre-scheduler API: each runs the
// experiment on a fresh default harness (GOMAXPROCS workers).

// RunFig3a runs Fig. 3(a) on a default harness; see Harness.RunFig3a.
func RunFig3a(scale Scale, w io.Writer) (*Fig3aResult, error) {
	return defaultHarness().RunFig3a(scale, w)
}

// RunFig3b runs Fig. 3(b) on a default harness; see Harness.RunFig3b.
func RunFig3b(scale Scale, w io.Writer) (*SweepResult, error) {
	return defaultHarness().RunFig3b(scale, w)
}

// RunFig7 runs Fig. 7 on a default harness; see Harness.RunFig7.
func RunFig7(scale Scale, w io.Writer) (*SweepResult, error) {
	return defaultHarness().RunFig7(scale, w)
}

// RunTable2 runs Table II on a default harness; see Harness.RunTable2.
func RunTable2(scale Scale, w io.Writer) (*Table, error) {
	return defaultHarness().RunTable2(scale, w)
}

// RunFig8 runs Fig. 8 on a default harness; see Harness.RunFig8.
func RunFig8(scale Scale, w io.Writer) (*Fig8Result, error) {
	return defaultHarness().RunFig8(scale, w)
}

// RunFig9 runs Fig. 9 on a default harness; see Harness.RunFig9.
func RunFig9(scale Scale, w io.Writer) (*Fig9Result, error) {
	return defaultHarness().RunFig9(scale, w)
}

// RunFig10 runs Fig. 10 on a default harness; see Harness.RunFig10.
func RunFig10(scale Scale, w io.Writer) (map[string]*Result, error) {
	return defaultHarness().RunFig10(scale, w)
}

// RunFig11 runs Fig. 11 on a default harness; see Harness.RunFig11.
func RunFig11(scale Scale, w io.Writer) (map[string]map[int]*Result, error) {
	return defaultHarness().RunFig11(scale, w)
}
