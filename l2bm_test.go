package l2bm_test

import (
	"testing"

	"l2bm"
)

// TestPublicQuickstart exercises the documented facade flow end to end.
func TestPublicQuickstart(t *testing.T) {
	eng := l2bm.NewEngine(42)
	completions := make(map[l2bm.FlowID]l2bm.Time)
	cluster, err := l2bm.BuildCluster(eng, l2bm.TinyClusterConfig(), l2bm.NewL2BMPolicy,
		func(id l2bm.FlowID, at l2bm.Time) { completions[id] = at })
	if err != nil {
		t.Fatal(err)
	}

	f := &l2bm.Flow{ID: 1, Src: 0, Dst: 7, Size: 1 << 20,
		Priority: l2bm.PrioLossless, Class: l2bm.ClassLossless}
	cluster.StartFlow(f)
	eng.RunAll()

	at, ok := completions[1]
	if !ok {
		t.Fatal("flow did not complete")
	}
	ideal := cluster.IdealFCT(0, 7, 1<<20)
	slowdown := float64(at-f.Start) / float64(ideal)
	if slowdown < 0.99 || slowdown > 1.5 {
		t.Errorf("uncontended slowdown = %v, want ≈1", slowdown)
	}
}

// TestPublicPolicies checks every shipped policy constructor through the
// facade.
func TestPublicPolicies(t *testing.T) {
	for _, tc := range []struct {
		want string
		p    l2bm.Policy
	}{
		{"DT", l2bm.NewDTPolicy()},
		{"DT2", l2bm.NewDT2Policy()},
		{"ABM", l2bm.NewABMPolicy()},
		{"L2BM", l2bm.NewL2BMPolicy()},
		{"DT", l2bm.NewDTPolicyAlpha(0.25)},
		{"L2BM", l2bm.NewL2BMPolicyWith(l2bm.DefaultL2BMConfig())},
		{"EDT", l2bm.NewEDTPolicy()},
		{"TDT", l2bm.NewTDTPolicy()},
	} {
		if got := tc.p.Name(); got != tc.want {
			t.Errorf("policy name = %q, want %q", got, tc.want)
		}
	}
}

// TestPublicCustomPolicy verifies a user-defined Policy plugs in through
// the facade types alone.
func TestPublicCustomPolicy(t *testing.T) {
	static := &staticPolicy{}
	res, err := l2bm.RunHybrid(l2bm.HybridSpec{
		Name:          "facade-custom",
		PolicyFactory: func() l2bm.Policy { return static },
		Scale:         l2bm.ScaleTiny,
		RDMALoad:      0.2,
		TCPLoad:       0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "Static" {
		t.Errorf("policy name = %q", res.Policy)
	}
	if res.FlowsCompleted == 0 {
		t.Error("no flows completed under the custom policy")
	}
	if !static.sawTraffic {
		t.Error("custom policy hooks never invoked")
	}
}

type staticPolicy struct {
	sawTraffic bool
}

func (p *staticPolicy) Name() string { return "Static" }

func (p *staticPolicy) IngressThreshold(s l2bm.StateView, _, _ int) int64 {
	return s.TotalShared() / 8
}

func (p *staticPolicy) EgressThreshold(s l2bm.StateView, _, _ int) int64 {
	return s.TotalShared() / 8
}

func (p *staticPolicy) OnEnqueue(_ l2bm.StateView, _ *l2bm.Packet) { p.sawTraffic = true }
func (p *staticPolicy) OnDequeue(l2bm.StateView, *l2bm.Packet)     {}

// TestPublicWorkloadHelpers exercises the workload facade.
func TestPublicWorkloadHelpers(t *testing.T) {
	cdf := l2bm.WebSearchCDF()
	if cdf.Mean() <= 0 {
		t.Error("CDF mean must be positive")
	}
	if l2bm.Percentile([]float64{1, 2, 3}, 50) != 2 {
		t.Error("Percentile facade wrong")
	}
	if s := l2bm.Summarize([]float64{1, 2, 3}); s.Mean != 2 {
		t.Error("Summarize facade wrong")
	}
	if l2bm.TxTime(1000, 25e9) != 320*l2bm.Nanosecond {
		t.Error("TxTime facade wrong")
	}
}
