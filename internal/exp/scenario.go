// Package exp is the experiment harness: one runner per table/figure of the
// paper's evaluation (§IV), built on a shared hybrid-traffic scenario
// driver. Each runner returns structured results and can render the same
// rows/series the paper reports.
package exp

import (
	"fmt"
	"hash/fnv"

	"l2bm/internal/core"
	"l2bm/internal/sim"
	"l2bm/internal/topo"
)

// Scale selects the simulation size/duration trade-off. The comparison
// between policies is stable across scales; Full matches the paper's
// topology (128 servers) with a generation window sized for tractable
// event counts (see DESIGN.md's substitution table).
type Scale int

const (
	// ScaleTiny is for unit tests and quick benches: 8 servers, 2 ms.
	ScaleTiny Scale = iota + 1
	// ScaleSmall is for CI-sized sweeps: 32 servers, 10 ms.
	ScaleSmall
	// ScaleFull is the paper's 128-server Clos with a 40 ms window.
	ScaleFull
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleSmall:
		return "small"
	case ScaleFull:
		return "full"
	default:
		return fmt.Sprintf("scale(%d)", int(s))
	}
}

// ParseScale maps a CLI string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return ScaleTiny, nil
	case "small":
		return ScaleSmall, nil
	case "full":
		return ScaleFull, nil
	default:
		return 0, fmt.Errorf("exp: unknown scale %q (tiny|small|full)", s)
	}
}

// Topo returns the topology for this scale.
func (s Scale) Topo() topo.Config {
	switch s {
	case ScaleTiny:
		return topo.TinyConfig()
	case ScaleSmall:
		cfg := topo.DefaultConfig()
		cfg.ServersPerToR = 8
		return cfg
	default:
		return topo.DefaultConfig()
	}
}

// Window returns the traffic-generation window for this scale.
func (s Scale) Window() sim.Duration {
	switch s {
	case ScaleTiny:
		return 2 * sim.Millisecond
	case ScaleSmall:
		return 10 * sim.Millisecond
	default:
		return 40 * sim.Millisecond
	}
}

// Drain returns how long past the window the run may continue so started
// flows can finish.
func (s Scale) Drain() sim.Duration { return 8 * s.Window() }

// PolicyNames lists the evaluation's four schemes in the paper's order —
// the row order of every reproduced figure/table. It is a fixed view into
// the policy registry, which additionally carries the related-work
// policies (see core.RegisteredPolicies / the arena experiment).
var PolicyNames = []string{"L2BM", "DT", "DT2", "ABM"}

// ExtendedPolicyNames is every policy in the registry, in registration
// order: the paper's four first, then the related work (EDT, TDT, BShare,
// Occamy, FB). The arena races exactly this list.
var ExtendedPolicyNames = core.RegisteredPolicies()

// seedFor derives a stable per-scenario seed so every (experiment, policy,
// parameter) point is reproducible yet decorrelated.
func seedFor(parts ...string) int64 {
	h := fnv.New64a()
	for _, p := range parts {
		_, _ = h.Write([]byte(p))
		_, _ = h.Write([]byte{0})
	}
	return int64(h.Sum64() & 0x7FFFFFFFFFFFFFFF)
}
