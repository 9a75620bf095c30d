package exp

import (
	"math"
	"strings"
	"testing"

	"l2bm/internal/core"
	"l2bm/internal/faults"
	"l2bm/internal/sim"
	"l2bm/internal/topo"
)

func tinySpec(policy string) HybridSpec {
	return HybridSpec{
		Name:     "smoke",
		Policy:   policy,
		Scale:    ScaleTiny,
		RDMALoad: 0.4,
		TCPLoad:  0.4,
	}
}

func TestRunHybridSmoke(t *testing.T) {
	res, err := RunHybrid(tinySpec("L2BM"))
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowsStarted == 0 {
		t.Fatal("no flows generated")
	}
	if res.FlowsCompleted == 0 {
		t.Fatal("no flows completed")
	}
	if len(res.RDMASlowdowns) == 0 || len(res.TCPSlowdowns) == 0 {
		t.Fatal("missing per-class slowdowns")
	}
	for _, s := range res.RDMASlowdowns {
		if s < 0.99 { // ≥1 up to rounding of ideal
			t.Fatalf("slowdown %v below 1", s)
		}
	}
	if res.LosslessViolations != 0 || res.LosslessGaps != 0 {
		t.Errorf("lossless integrity broken: violations=%d gaps=%d",
			res.LosslessViolations, res.LosslessGaps)
	}
	if len(res.TorOccupancy) != 2 {
		t.Errorf("occupancy traces = %d, want one per ToR", len(res.TorOccupancy))
	}
	if res.Events == 0 || res.EndTime == 0 {
		t.Error("run accounting empty")
	}
	t.Logf("events=%d endTime=%v flows=%d/%d rdmaP99=%.2f tcpP99=%.2f pause=%d drops=%d",
		res.Events, res.EndTime, res.FlowsCompleted, res.FlowsStarted,
		res.RDMAp99(), res.TCPp99(), res.PauseFrames, res.LossyDrops)
}

func TestRunHybridDeterministic(t *testing.T) {
	a, err := RunHybrid(tinySpec("DT"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunHybrid(tinySpec("DT"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Events != b.Events || a.FlowsCompleted != b.FlowsCompleted ||
		a.PauseFrames != b.PauseFrames || a.RDMAp99() != b.RDMAp99() {
		t.Errorf("replay diverged: %+v vs %+v", a.Events, b.Events)
	}
}

func TestRunHybridIncast(t *testing.T) {
	spec := tinySpec("L2BM")
	spec.Incast = &IncastSpec{Fanout: 3, RequestBytes: 300_000, QueryRate: 2000}
	res, err := RunHybrid(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IncastSlowdowns) == 0 {
		t.Fatal("no incast flows measured")
	}
	if len(res.QueryDelays) == 0 {
		t.Fatal("no query delays measured")
	}
	sum := res.QueryDelaySummary()
	if sum.N != len(res.QueryDelays) || sum.Mean <= 0 {
		t.Errorf("query summary wrong: %+v", sum)
	}
}

func TestScaleParsing(t *testing.T) {
	for _, s := range []string{"tiny", "small", "full"} {
		sc, err := ParseScale(s)
		if err != nil || sc.String() != s {
			t.Errorf("ParseScale(%q) = %v, %v", s, sc, err)
		}
	}
	if _, err := ParseScale("galactic"); err == nil {
		t.Error("want error for unknown scale")
	}
}

// TestRunHybridRefusesInvalidSpec: a library call passes the same envelope
// as a daemon submission. Each spec here fails Validate, and RunHybrid must
// return that error before it builds a fabric — a load of 1.5 used to run
// to completion, and a zero Scale to run the paper's 128-server fabric.
func TestRunHybridRefusesInvalidSpec(t *testing.T) {
	for name, edit := range map[string]func(*HybridSpec){
		"TCPLoad 1.5":         func(s *HybridSpec) { s.TCPLoad = 1.5 },
		"unknown policy":      func(s *HybridSpec) { s.Policy = "nope" },
		"Scale 0":             func(s *HybridSpec) { s.Scale = 0 },
		"NaN FlapRate":        func(s *HybridSpec) { s.Faults = &FaultSpec{Plan: faults.Plan{FlapRate: math.NaN()}} },
		"incast below fanout": func(s *HybridSpec) { s.Incast = &IncastSpec{Fanout: 5, RequestBytes: 3, QueryRate: 100} },
		// Each of the next six used to run as the default spec.
		"negative WindowOverride": func(s *HybridSpec) { s.WindowOverride = -1_000_000 },
		"negative DrainOverride":  func(s *HybridSpec) { s.DrainOverride = -1e9 },
		"negative Audit.Every":    func(s *HybridSpec) { s.Audit = &AuditSpec{Every: -5} },
		"negative Audit.MaxPauseAge": func(s *HybridSpec) {
			s.Audit = &AuditSpec{MaxPauseAge: -sim.Microsecond}
		},
		"negative Trace.SampleEvery": func(s *HybridSpec) { s.Trace = &TraceSpec{SampleEvery: -sim.Microsecond} },
		"negative Trace.Capacity":    func(s *HybridSpec) { s.Trace = &TraceSpec{Capacity: -1} },
		"InterRackOnly on one rack": func(s *HybridSpec) {
			s.InterRackOnly = true
			s.TopoOverride = func(c *topo.Config) { c.Pods, c.ToRCount, c.AggCount, c.CoreCount = 1, 1, 1, 1 }
		},
		// Each of the next three would run as a spec other than the one
		// written: the two hybrid ones as their packet specs, the third
		// under the factory's policy but Policy's label.
		"hybrid with an empty fault plan": func(s *HybridSpec) { s.Fidelity, s.Faults = FidelityHybrid, &FaultSpec{} },
		"hybrid with a fault plan":        func(s *HybridSpec) { s.Fidelity, s.Faults = FidelityHybrid, pinnedFaults() },
		"Policy and PolicyFactory":        func(s *HybridSpec) { s.PolicyFactory = func() core.Policy { return core.NewDefaultL2BM() } },
	} {
		t.Run(name, func(t *testing.T) {
			spec := tinySpec("DT")
			edit(&spec)
			want := spec.Validate()
			if want == nil {
				t.Fatal("Validate accepted the spec")
			}
			built := false
			spec.Hooks = &RunHooks{PostBuild: func(*topo.Cluster) { built = true }}
			res, err := RunHybrid(spec)
			if err == nil || !strings.Contains(err.Error(), want.Error()) || res != nil {
				t.Errorf("RunHybrid = %v, %v; want Validate's error %q", res, err, want)
			}
			if built {
				t.Error("a fabric was built for an invalid spec")
			}
		})
	}

	// A hybrid fault plan is refused by name, whatever the plan holds.
	for _, plan := range []*FaultSpec{{}, pinnedFaults()} {
		spec := tinySpec("DT")
		spec.Fidelity, spec.Faults = FidelityHybrid, plan
		if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "Fidelity") || !strings.Contains(err.Error(), "Faults") {
			t.Errorf("hybrid spec with fault plan %+v: Validate = %v, want an error naming Fidelity and Faults", plan, err)
		}
	}

	// A PolicyFactory stands in for a registered name, and hybrid fidelity
	// holds any shard count the fabric does.
	spec := tinySpec("")
	spec.PolicyFactory = func() core.Policy { return core.NewDT() }
	if err := spec.Validate(); err != nil {
		t.Errorf("spec with a PolicyFactory and no Policy: %v", err)
	}
	spec = tinySpec("DT")
	spec.Fidelity, spec.Shards = FidelityHybrid, 2
	if err := spec.Validate(); err != nil {
		t.Errorf("hybrid spec at 2 shards: %v", err)
	}
}

func TestSeedForStableAndDistinct(t *testing.T) {
	if seedFor("a", "b") != seedFor("a", "b") {
		t.Error("seed not stable")
	}
	if seedFor("a", "b") == seedFor("a", "c") {
		t.Error("seeds collide")
	}
	if seedFor("ab") == seedFor("a", "b") {
		t.Error("field separator missing")
	}
}

func TestScaleAccessors(t *testing.T) {
	if ScaleTiny.Window() >= ScaleFull.Window() {
		t.Error("windows not ordered")
	}
	if ScaleTiny.Topo().ServersPerToR >= ScaleFull.Topo().ServersPerToR {
		t.Error("topologies not ordered")
	}
	if ScaleFull.Drain() <= 0 {
		t.Error("drain must be positive")
	}
	var horizon sim.Duration = ScaleTiny.Window() + ScaleTiny.Drain()
	if horizon <= ScaleTiny.Window() {
		t.Error("horizon must exceed window")
	}
}
