package exp

import (
	"fmt"
	"io"

	"l2bm/internal/sim"
	"l2bm/internal/topo"
)

// HyperscaleFor maps the CLI scale to a hyperscale fabric preset: the smoke
// experiment reuses the familiar tiny/small/full axis but swaps the paper's
// 128-server testbed for pod-structured Clos fabrics of 1k, 10k and 100k
// hosts (topo.Hyperscale1k/10k/100k).
func HyperscaleFor(scale Scale) topo.HyperscaleConfig {
	switch scale {
	case ScaleTiny:
		return topo.Hyperscale1k()
	case ScaleSmall:
		return topo.Hyperscale10k()
	default:
		return topo.Hyperscale100k()
	}
}

// scaleWindow sizes the traffic window so the smoke stays tractable as the
// fabric grows: total offered work scales with host count, so the window
// shrinks as the fabric widens.
func scaleWindow(scale Scale) sim.Duration {
	switch scale {
	case ScaleTiny:
		return 500 * sim.Microsecond
	case ScaleSmall:
		return 200 * sim.Microsecond
	default:
		return 100 * sim.Microsecond
	}
}

// scaleLoad keeps per-host offered load low enough that the 100k-host point
// finishes in CI time while still exercising every tier of the fabric.
func scaleLoad(scale Scale) float64 {
	switch scale {
	case ScaleTiny:
		return 0.10
	case ScaleSmall:
		return 0.05
	default:
		return 0.02
	}
}

// scaleSpec is the smoke's one point: a short mixed RDMA+TCP window under
// L2BM on the fabric cfg (HyperscaleFor(scale) lowered).
func scaleSpec(scale Scale, cfg topo.Config) HybridSpec {
	load := scaleLoad(scale)
	return HybridSpec{
		Name:           fmt.Sprintf("scale-%s", scale),
		Policy:         "L2BM",
		Scale:          scale,
		TCPLoad:        load,
		RDMALoad:       load,
		InterRackOnly:  true,
		WindowOverride: scaleWindow(scale),
		TopoOverride:   func(c *topo.Config) { *c = cfg },
		// The smoke always runs under the global invariant auditor: at
		// hyperscale an MMU accounting leak is invisible in aggregate
		// counters, so sweeps are the only way to catch one. Auditing is
		// observer-free, so the determinism diffs are unaffected.
		Audit: &AuditSpec{},
	}
}

// The hyperscale smoke experiment (-exp scale) builds the pod-structured
// Clos fabric the scale selects (1k/10k/100k hosts), offers a short mixed
// RDMA+TCP window under L2BM with the invariant auditor armed (violations
// exit nonzero — this is the CI smoke), and renders fabric dimensions,
// delivery counters and integrity in one deterministic table pair. It runs
// through the same harness as every figure, so self-sizing and -fidelity
// hybrid apply unchanged; the point of the experiment is that the numbers do
// NOT change when those execution strategies do.
func scaleGrid(scale Scale, _ []string) ([]HybridSpec, error) {
	cfg, err := HyperscaleFor(scale).Config()
	if err != nil {
		return nil, err
	}
	return []HybridSpec{scaleSpec(scale, cfg)}, nil
}

func renderScale(w io.Writer, scale Scale, specs []HybridSpec, results []*Result) error {
	hyper, res := HyperscaleFor(scale), results[0]
	cfg := specs[0].fabric()
	tab := NewTable(fmt.Sprintf("Scale smoke: %d-host hyperscale Clos (%d pods x %d ToRs x %d servers, %g:1 oversub)",
		cfg.Hosts(), hyper.Pods, hyper.ToRsPerPod, hyper.ServersPerToR, hyper.Oversubscription),
		"hosts", "tors", "aggs", "cores", "flows_done", "trunc", "lossy_drops", "pauses")
	tab.AddRow(
		fmt.Sprintf("%d", cfg.Hosts()),
		fmt.Sprintf("%d", cfg.ToRCount),
		fmt.Sprintf("%d", cfg.AggCount),
		fmt.Sprintf("%d", cfg.CoreCount),
		fmt.Sprintf("%d", res.FlowsCompleted),
		fmt.Sprintf("%d", res.TruncatedFlows),
		fmt.Sprintf("%d", res.LossyDrops),
		fmt.Sprintf("%d", res.PauseFrames))
	err := fprintTables(w, tab,
		integrity("Scale smoke integrity: lossless gaps / violations / MMU audits", specs, results,
			func(sp HybridSpec) string { return fmt.Sprintf("%s@%s", sp.Policy, scale) }))
	if err != nil {
		return err
	}
	// The smoke is a CI gate: an unhealthy fabric must exit nonzero, not
	// just render a nonzero cell in the integrity table.
	if res.AuditChecks == 0 {
		return fmt.Errorf("scale smoke: auditor armed but ran zero sweeps")
	}
	if n := len(res.AuditErrors); n > 0 {
		return fmt.Errorf("scale smoke: %d audit violation(s), first: %s", n, res.AuditErrors[0])
	}
	if res.LosslessViolations > 0 {
		return fmt.Errorf("scale smoke: %d lossless violation(s)", res.LosslessViolations)
	}
	return nil
}

// ScaleResult carries the hyperscale smoke's one point.
type ScaleResult struct {
	Run *Result
}

// RunScale is Run("scale") for callers that want the smoke's Result by name.
func (h *Harness) RunScale(scale Scale, w io.Writer) (*ScaleResult, error) {
	_, results, err := h.Run("scale", scale, nil, w)
	if err != nil {
		return nil, err
	}
	return &ScaleResult{Run: results[0]}, nil
}
