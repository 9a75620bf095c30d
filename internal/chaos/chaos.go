// Package chaos is the randomized soak harness: it fuzzes scenarios —
// random small topologies × hybrid workloads × fault plans, drawn inside a
// validity envelope — and runs each one under the global invariant auditor
// (internal/audit), the packet-pool use-after-free audit, per-point panic
// containment and a wall-clock watchdog. Any violation, error or panic is a
// finding; the harness then shrinks the offending scenario to a minimal
// reproducer and emits it as a runnable JSON spec.
//
// A Scenario is deliberately plain data: every field serializes, so a
// finding's reproducer is the scenario itself — `l2bmexp -exp chaos
// -replay repro.json` rebuilds the identical spec (same seeds, same
// envelope) and replays the failure deterministically.
package chaos

import (
	"fmt"
	"math/rand"

	"l2bm/internal/exp"
	"l2bm/internal/faults"
	"l2bm/internal/sim"
	"l2bm/internal/topo"
)

// Scenario is one fuzzed simulation: a self-contained, JSON-serializable
// description of topology, workload, schedule and fault plan. Zero-valued
// optional fields mean "off" everywhere, so shrinking is monotone: every
// transform moves fields toward zero and the zero-heavy scenario is the
// simplest.
type Scenario struct {
	// Seed seeds scenario generation AND salts the run's RNG streams, so
	// two scenarios with equal fields but different seeds explore different
	// arrival patterns.
	Seed int64

	// Topology (all totals; AggCount and ToRCount divide evenly by Pods).
	Pods          int
	CoreCount     int
	AggCount      int
	ToRCount      int
	ServersPerToR int

	// Workload.
	Policy        string
	RDMALoad      float64
	TCPLoad       float64
	InterRackOnly bool
	IncastFanout  int   // 0 = no incast
	IncastBytes   int64 // per-query payload when fanout > 0
	IncastRate    float64

	// Schedule.
	Window sim.Duration
	Drain  sim.Duration
	Shards int // psim shards; 0 and 1 both mean one engine

	// Fault plan (all zero = clean fabric).
	FlapRate     float64 // link flaps/s over fabric links
	FlapDowntime sim.Duration
	BER          float64
	PFCLossRate  float64
	BlackoutAt   sim.Duration // 0 = no blackout
	BlackoutLen  sim.Duration
	BlackoutTor  bool // target tor0 instead of agg0

	// Audit knobs (derived by Generate, kept explicit so repro files pin
	// them).
	AuditEvery  sim.Duration
	MaxPauseAge sim.Duration // only set on clean scenarios
}

// Validate checks the scenario against the envelope the simulator accepts —
// its own fields, then the spec it materializes, so a scenario RunHybrid
// would refuse fails here rather than replaying as a failure. Generate
// always returns valid scenarios and every shrink transform preserves
// validity, so a failure here means a hand-edited repro file.
func (sc *Scenario) Validate() error {
	cfg := sc.topoConfig()
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	switch {
	case sc.Policy == "":
		return fmt.Errorf("chaos: no policy")
	case sc.RDMALoad <= 0 && sc.TCPLoad <= 0 && sc.IncastFanout <= 0:
		return fmt.Errorf("chaos: scenario offers no traffic at all")
	case sc.Window <= 0 || sc.Drain <= 0:
		return fmt.Errorf("chaos: window %v / drain %v must be positive", sc.Window, sc.Drain)
	case sc.Shards < 0 || sc.Shards > sc.ToRCount:
		return fmt.Errorf("chaos: %d shards on %d ToRs", sc.Shards, sc.ToRCount)
	case sc.IncastFanout < 0 || sc.IncastFanout == 1:
		return fmt.Errorf("chaos: incast fanout %d", sc.IncastFanout)
	case sc.IncastFanout > 0 && (sc.IncastBytes <= 0 || sc.IncastRate <= 0):
		return fmt.Errorf("chaos: incast armed without bytes/rate")
	case sc.BlackoutAt > 0 && sc.BlackoutLen <= 0:
		return fmt.Errorf("chaos: blackout armed without a duration")
	}
	if err := sc.Spec().Validate(); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	return nil
}

// faulty reports whether any fault mechanism is armed.
func (sc *Scenario) faulty() bool {
	return sc.FlapRate > 0 || sc.BER > 0 || sc.PFCLossRate > 0 || sc.BlackoutAt > 0
}

// topoConfig materializes the scenario's topology.
func (sc *Scenario) topoConfig() topo.Config {
	cfg := topo.TinyConfig()
	cfg.Pods = sc.Pods
	cfg.CoreCount = sc.CoreCount
	cfg.AggCount = sc.AggCount
	cfg.ToRCount = sc.ToRCount
	cfg.ServersPerToR = sc.ServersPerToR
	cfg.PacketPoolDebug = true // arm the use-after-free audit on every run
	return cfg
}

// Spec materializes the runnable experiment spec. The spec carries a
// TopoOverride func, so chaos specs are not checkpointable — chaos has its
// own persistence (the repro file).
func (sc *Scenario) Spec() exp.HybridSpec {
	spec := exp.HybridSpec{
		Name:           fmt.Sprintf("chaos-%d", sc.Seed),
		Policy:         sc.Policy,
		Scale:          exp.ScaleTiny,
		RDMALoad:       sc.RDMALoad,
		TCPLoad:        sc.TCPLoad,
		InterRackOnly:  sc.InterRackOnly,
		WindowOverride: sc.Window,
		DrainOverride:  sc.Drain,
		SeedSalt:       fmt.Sprintf("chaos-salt-%d", sc.Seed),
		Shards:         sc.Shards,
		TopoOverride: func(cfg *topo.Config) {
			*cfg = sc.topoConfig()
		},
		Audit: &exp.AuditSpec{Every: sc.AuditEvery, MaxPauseAge: sc.MaxPauseAge},
	}
	if sc.IncastFanout > 0 {
		spec.Incast = &exp.IncastSpec{
			Fanout: sc.IncastFanout, RequestBytes: sc.IncastBytes, QueryRate: sc.IncastRate,
		}
	}
	if sc.faulty() {
		plan := faults.Plan{
			FlapRate:     sc.FlapRate,
			FlapDowntime: sc.FlapDowntime,
			FlapWindow:   sc.Window,
			BER:          sc.BER,
			PFCLossRate:  sc.PFCLossRate,
		}
		if sc.BlackoutAt > 0 {
			target := "agg0"
			if sc.BlackoutTor {
				target = "tor0"
			}
			plan.Blackouts = []faults.Blackout{{
				Switch: target, At: sim.Time(sc.BlackoutAt), Duration: sc.BlackoutLen,
			}}
		}
		spec.Faults = &exp.FaultSpec{Plan: plan}
	}
	return spec
}

// Generate draws one scenario from the validity envelope, deterministically
// from the seed (Go's rand is a fixed algorithm, so the same seed generates
// the same scenario on every platform and run).
func Generate(seed int64) Scenario {
	r := rand.New(rand.NewSource(seed))
	sc := Scenario{Seed: seed}

	// Topology: 1-2 pods, 1-2 ToRs and aggs per pod, 2-4 servers per rack.
	sc.Pods = 1 + r.Intn(2)
	sc.ToRCount = sc.Pods * (1 + r.Intn(2))
	sc.AggCount = sc.Pods * (1 + r.Intn(2))
	sc.CoreCount = 1 + r.Intn(2)
	sc.ServersPerToR = 2 + r.Intn(3)
	hosts := sc.ToRCount * sc.ServersPerToR

	// Workload: always at least one traffic source.
	sc.Policy = exp.ExtendedPolicyNames[r.Intn(len(exp.ExtendedPolicyNames))]
	sc.RDMALoad = 0.1 + 0.7*r.Float64()
	sc.TCPLoad = 0.1 + 0.8*r.Float64()
	switch r.Intn(8) { // occasionally single-class
	case 0:
		sc.RDMALoad = 0
	case 1:
		sc.TCPLoad = 0
	}
	sc.InterRackOnly = r.Intn(4) == 0 && sc.ToRCount > 1
	if r.Intn(2) == 0 && hosts >= 3 {
		sc.IncastFanout = 2 + r.Intn(min(5, hosts-1)-1)
		sc.IncastBytes = int64(20_000 + r.Intn(180_000))
		sc.IncastRate = 500 + 3500*r.Float64()
	}

	// Schedule: short windows keep a soak seed cheap (~tens of ms wall).
	sc.Window = sim.Duration(200+r.Intn(1300)) * sim.Microsecond
	sc.Drain = sc.Window * sim.Duration(6+r.Intn(5))
	if sc.ToRCount >= 2 && r.Intn(2) == 0 {
		sc.Shards = 2
	}

	// Fault plan: each mechanism independently, ~half the scenarios clean.
	if r.Intn(2) == 0 {
		if r.Intn(2) == 0 {
			sc.FlapRate = 50 + 450*r.Float64()
			sc.FlapDowntime = sim.Duration(50+r.Intn(350)) * sim.Microsecond
		}
		if r.Intn(3) == 0 {
			sc.BER = 1e-8 * float64(1+r.Intn(100))
		}
		if r.Intn(3) == 0 {
			sc.PFCLossRate = 0.05 * r.Float64()
		}
		if r.Intn(4) == 0 {
			sc.BlackoutAt = sim.Duration(1+r.Intn(int(sc.Window/2))) + sc.Window/4
			sc.BlackoutLen = sc.Window / sim.Duration(2+r.Intn(3))
			sc.BlackoutTor = r.Intn(2) == 0
		}
		if !sc.faulty() { // the dice all missed: force one mechanism
			sc.PFCLossRate = 0.01 + 0.04*r.Float64()
		}
		// Faults delay recovery (RTO backoff, rate ramps): drain longer.
		sc.Drain += 4 * sc.Window
	}

	// Audit cadence scales with the window so every run gets many sweeps.
	sc.AuditEvery = sc.Window / 8
	if !sc.faulty() {
		// On a clean fabric a pause can legitimately persist while offered
		// load sustains congestion (the whole window), but once injection
		// stops it must clear: flag anything older than window + half the
		// drain, and Final still requires zero pauses after full drain.
		sc.MaxPauseAge = sc.Window + sc.Drain/2
	}
	return sc
}
