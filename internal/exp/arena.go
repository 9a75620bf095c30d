package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"l2bm/internal/core"
)

// The arena races every registered policy over a common grid: two
// background loads, with and without the incast query stream, plus one
// faulted cell. Seeds exclude the policy name (common random numbers), so
// every policy sees the identical offered workload in each cell and the
// scorecard differences are attributable to buffer management alone.

// arenaCells is the grid every policy runs: base (0.4) and high (0.8) TCP
// load with RDMA at the paper's fixed 0.4, each clean and with the incast
// query stream (N = 5), plus a faulted base-load cell (DefaultFaultScenario
// with the extended fault drain) for the recovery metrics. The slice order
// is the spec order (and so the emit order).
var arenaCells = []struct {
	tcpLoad      float64
	burst, fault bool
}{
	{tcpLoad: 0.4},
	{tcpLoad: 0.8},
	{tcpLoad: 0.4, burst: true},
	{tcpLoad: 0.8, burst: true},
	{tcpLoad: 0.4, fault: true},
}

// ArenaScore is one policy's scorecard row. All criteria are
// lower-is-better except FaultCompletion; Score is the min–max-normalized
// mean over the criteria, so 0 would be a policy that wins every column
// and 1 one that loses every column.
type ArenaScore struct {
	Policy string
	Score  float64
	// RDMAp99 and TCPp99 are the worst (max) per-class p99 FCT slowdowns
	// over the clean cells; IncastP99 the worst over the burst cells.
	RDMAp99   float64
	TCPp99    float64
	IncastP99 float64
	// PauseFrames and Losses (drops + preemptive evictions) sum over the
	// clean cells; the fault cell's are excluded as fault noise.
	PauseFrames uint64
	Losses      uint64
	// FaultHorizonMs is the faulted cell's end-of-run instant — how long
	// the fabric needed to drain after recovery — and FaultCompletion the
	// fraction of started flows that finished despite the faults.
	FaultHorizonMs  float64
	FaultCompletion float64
}

// arenaGrid is the arena experiment's policy × cell grid over the given
// policies (nil/empty = every registered policy), every point with the
// invariant auditor armed. Its render — per-cell detail, the ranked
// scorecard (table + CSV) and the integrity table — is deterministic:
// byte-identical across harness worker counts and shard counts.
func arenaGrid(scale Scale, policies []string) ([]HybridSpec, error) {
	if len(policies) == 0 {
		policies = ExtendedPolicyNames
	}
	specs := make([]HybridSpec, 0, len(policies)*len(arenaCells))
	for _, pol := range policies {
		if !core.IsRegistered(pol) {
			return nil, fmt.Errorf("exp: arena: unknown policy %q (have %s)",
				pol, strings.Join(core.RegisteredPolicies(), ", "))
		}
		for _, c := range arenaCells {
			spec := HybridSpec{
				Name:     "arena",
				Policy:   pol,
				Scale:    scale,
				RDMALoad: 0.4,
				TCPLoad:  c.tcpLoad,
				Audit:    &AuditSpec{},
			}
			if c.burst {
				spec.Incast = incastSpecFor(5)
			}
			if c.fault {
				spec.Faults = DefaultFaultScenario(scale)
				spec.DrainOverride = FaultDrain * scale.Window()
			}
			specs = append(specs, spec)
		}
	}
	return specs, nil
}

// arenaCellKey labels a point's cell in tables and progress lines.
func arenaCellKey(sp HybridSpec) string {
	key := fmt.Sprintf("l%.1f", sp.TCPLoad)
	if sp.Incast != nil {
		key += "+burst"
	}
	if sp.Faults != nil {
		key += "+faults"
	}
	return key
}

func arenaProgress(sp HybridSpec, r *Result) string {
	return fmt.Sprintf("  arena %s %s: flows %d/%d, pause=%d, losses=%d",
		sp.Policy, arenaCellKey(sp), r.FlowsCompleted, r.FlowsStarted,
		r.PauseFrames, r.LossyDrops+r.LossyEvictions)
}

// arenaScoreFor condenses one policy's grid row into scorecard criteria.
func arenaScoreFor(cells []HybridSpec, runs []*Result) ArenaScore {
	sc := ArenaScore{Policy: cells[0].Policy, FaultCompletion: 1}
	for i, c := range cells {
		r := runs[i]
		if c.Faults != nil {
			sc.FaultHorizonMs = r.EndTime.Millis()
			if r.FlowsStarted > 0 {
				sc.FaultCompletion = float64(r.FlowsCompleted) / float64(r.FlowsStarted)
			}
			continue
		}
		if v := r.RDMAp99(); v > sc.RDMAp99 {
			sc.RDMAp99 = v
		}
		if v := r.TCPp99(); v > sc.TCPp99 {
			sc.TCPp99 = v
		}
		if c.Incast != nil {
			if v := r.Incastp99(); v > sc.IncastP99 {
				sc.IncastP99 = v
			}
		}
		sc.PauseFrames += r.PauseFrames
		sc.Losses += r.LossyDrops + r.LossyEvictions
	}
	return sc
}

// rankArena builds the scorecard and sorts it best-first. Each criterion
// is min–max normalized across the raced policies (a constant column
// contributes zero to everyone), the score is the mean contribution, and
// ties break on the input (registration) order, so the ranking is total
// and deterministic.
func rankArena(specs []HybridSpec, results []*Result) []ArenaScore {
	n := len(arenaCells)
	scores := make([]ArenaScore, len(specs)/n)
	for i := range scores {
		scores[i] = arenaScoreFor(specs[i*n:(i+1)*n], results[i*n:(i+1)*n])
	}
	criteria := []func(*ArenaScore) float64{
		func(s *ArenaScore) float64 { return s.RDMAp99 },
		func(s *ArenaScore) float64 { return s.TCPp99 },
		func(s *ArenaScore) float64 { return s.IncastP99 },
		func(s *ArenaScore) float64 { return float64(s.PauseFrames) },
		func(s *ArenaScore) float64 { return float64(s.Losses) },
		func(s *ArenaScore) float64 { return s.FaultHorizonMs },
		func(s *ArenaScore) float64 { return 1 - s.FaultCompletion },
	}
	for _, crit := range criteria {
		lo, hi := crit(&scores[0]), crit(&scores[0])
		for i := range scores {
			if v := crit(&scores[i]); v < lo {
				lo = v
			} else if v > hi {
				hi = v
			}
		}
		if hi <= lo {
			continue
		}
		for i := range scores {
			scores[i].Score += (crit(&scores[i]) - lo) / (hi - lo)
		}
	}
	for i := range scores {
		scores[i].Score /= float64(len(criteria))
	}
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return scores[order[a]].Score < scores[order[b]].Score
	})
	ranked := make([]ArenaScore, len(scores))
	for i, idx := range order {
		ranked[i] = scores[idx]
	}
	return ranked
}

// renderArena writes the per-cell detail table, the ranked scorecard as a
// table and as CSV, and the integrity table.
func renderArena(w io.Writer, _ Scale, specs []HybridSpec, results []*Result) error {
	detail := NewTable("arena: per-cell detail",
		"policy", "cell", "rdma_p99", "tcp_p99", "incast_p99",
		"pause", "drops", "evict", "flows", "end_ms")
	for i, r := range results {
		detail.AddRow(specs[i].Policy, arenaCellKey(specs[i]),
			f2(r.RDMAp99()), f2(r.TCPp99()), f2(r.Incastp99()),
			fmt.Sprint(r.PauseFrames), fmt.Sprint(r.LossyDrops),
			fmt.Sprint(r.LossyEvictions),
			fmt.Sprintf("%d/%d", r.FlowsCompleted, r.FlowsStarted),
			f2(r.EndTime.Millis()))
	}
	card := NewTable("arena: ranked scorecard",
		"rank", "policy", "score", "rdma_p99", "tcp_p99", "incast_p99",
		"pause", "losses", "fault_ms", "fault_done")
	for i, s := range rankArena(specs, results) {
		card.AddRow(fmt.Sprint(i+1), s.Policy, f3(s.Score),
			f2(s.RDMAp99), f2(s.TCPp99), f2(s.IncastP99),
			fmt.Sprint(s.PauseFrames), fmt.Sprint(s.Losses),
			f2(s.FaultHorizonMs), f3(s.FaultCompletion))
	}
	if err := fprintTables(w, detail, card); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "\narena scorecard CSV:\n%s", card.CSV()); err != nil {
		return err
	}
	return integrity("arena: integrity", specs, results, func(sp HybridSpec) string {
		return sp.Policy + "/" + arenaCellKey(sp)
	}).Fprint(w)
}
