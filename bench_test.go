// The Ablation* benchmarks quantify L2BM's design choices (DESIGN.md §6) on
// the Fig. 7 headline point at ScaleTiny; each reports the point's headline
// quantities via b.ReportMetric, so `-bench` output doubles as a compact
// results table:
//
//	go test -bench=BenchmarkAblation -benchtime=1x
//
// The paper's figures and tables are `l2bmexp -exp <name>` (its trailer
// prints events/s and allocs/event); speed across commits is bench/'s job.
package l2bm_test

import (
	"testing"

	"l2bm"
	"l2bm/internal/core"
	"l2bm/internal/exp"
)

// runPoint executes one hybrid data point and reports its metrics.
func runPoint(b *testing.B, spec exp.HybridSpec) *exp.Result {
	b.Helper()
	var res *exp.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = exp.RunHybrid(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.RDMAp99(), "rdma-p99-slowdown")
	b.ReportMetric(res.TCPp99(), "tcp-p99-slowdown")
	b.ReportMetric(float64(res.PauseFrames), "pause-frames")
	b.ReportMetric(res.OccupancyP99Fraction(l2bm.DefaultSwitchConfig().TotalShared), "occ-p99-frac")
	b.ReportMetric(float64(res.Events)/b.Elapsed().Seconds()*float64(b.N), "events/s")
	return res
}

// BenchmarkAblationNormalization compares L2BM's normalization constant
// choices (paper-literal sum vs mean vs max vs count).
func BenchmarkAblationNormalization(b *testing.B) {
	norms := []struct {
		name string
		n    core.Normalization
	}{
		{"sum-tau", core.NormSumTau},
		{"mean-tau", core.NormMeanTau},
		{"max-tau", core.NormMaxTau},
		{"count", core.NormCount},
	}
	for _, norm := range norms {
		b.Run(norm.name, func(b *testing.B) {
			cfg := core.DefaultL2BMConfig()
			cfg.Normalization = norm.n
			runPoint(b, exp.HybridSpec{
				Name:          "ablation-norm",
				PolicyFactory: func() core.Policy { return core.NewL2BM(cfg) },
				Scale:         exp.ScaleTiny,
				RDMALoad:      0.4, TCPLoad: 0.8,
			})
		})
	}
}

// BenchmarkAblationPauseExclusion toggles the §III-D pause-time exclusion.
func BenchmarkAblationPauseExclusion(b *testing.B) {
	for _, exclude := range []bool{true, false} {
		name := "on"
		if !exclude {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultL2BMConfig()
			cfg.ExcludePauseTime = exclude
			runPoint(b, exp.HybridSpec{
				Name:          "ablation-pause",
				PolicyFactory: func() core.Policy { return core.NewL2BM(cfg) },
				Scale:         exp.ScaleTiny,
				RDMALoad:      0.4, TCPLoad: 0.8,
			})
		})
	}
}

// BenchmarkAblationAlpha sweeps DT's control factor, exhibiting the
// pause-rate/occupancy tension L2BM's adaptive weighting escapes.
func BenchmarkAblationAlpha(b *testing.B) {
	for _, alpha := range []struct {
		name  string
		value float64
	}{{"a0625", 1.0 / 16}, {"a125", 0.125}, {"a25", 0.25}, {"a5", 0.5}, {"a1", 1.0}} {
		b.Run(alpha.name, func(b *testing.B) {
			v := alpha.value
			runPoint(b, exp.HybridSpec{
				Name:          "ablation-alpha",
				PolicyFactory: func() core.Policy { return core.NewDTAlpha(v) },
				Scale:         exp.ScaleTiny,
				RDMALoad:      0.4, TCPLoad: 0.8,
			})
		})
	}
}
