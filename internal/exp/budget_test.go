package exp

import (
	"runtime"
	"testing"

	"l2bm/internal/sim"
)

// TestPointAllocBudget bounds what one simulation point allocates, shape by
// shape: the Fig. 7 headline point under the policy with the most admission
// state (L2BM) and the least (DT), the same point on two psim shards, the
// arena's audited burst cell under Occamy (preemption hook inside the MMU's
// drop sites), and the steady window at both fidelities. The counts are
// near-deterministic (±5 allocations run to run), so a budget of 1.25× the
// measured value trips on the regressions it is here for — a closure per
// transmitted packet adds one allocation per ~2 events, 113k on the Fig. 7
// point — and on nothing else. The runtime.MemStats delta around RunHybrid
// is what `go test -benchmem` reports per op.
func TestPointAllocBudget(t *testing.T) {
	// Shards: 1 — the budgets are the one-engine build's (a self-sized run adds
	// a second engine and pool).
	fig7 := HybridSpec{Name: "fig7", Scale: ScaleTiny, RDMALoad: 0.4, TCPLoad: 0.8, Shards: 1}
	steady := HybridSpec{Name: "steady", Policy: "L2BM", Scale: ScaleTiny, Shards: 1,
		RDMALoad: 0.02, TCPLoad: 0.02, InterRackOnly: true, WindowOverride: 40 * sim.Millisecond}
	with := func(sp HybridSpec, edit func(*HybridSpec)) HybridSpec {
		edit(&sp)
		return sp
	}
	for _, tc := range []struct {
		name          string
		spec          HybridSpec
		allocs, bytes uint64 // measured; the budget is 1.25x
	}{
		{"fig7-L2BM", with(fig7, func(s *HybridSpec) { s.Policy = "L2BM" }), 6188, 1_088_000},
		{"fig7-DT", with(fig7, func(s *HybridSpec) { s.Policy = "DT" }), 6121, 1_089_000},
		{"fig7-L2BM-shards2", with(fig7, func(s *HybridSpec) { s.Policy, s.Shards = "L2BM", 2 }), 6771, 1_175_000},
		{"arena-Occamy-burst", with(fig7, func(s *HybridSpec) {
			s.Name, s.Policy, s.Incast, s.Audit = "arena", "Occamy", incastSpecFor(5), &AuditSpec{}
		}), 5561, 1_013_000},
		{"steady-packet", with(steady, func(s *HybridSpec) { s.Fidelity = FidelityPacket }), 8810, 1_538_000},
		{"steady-hybrid", with(steady, func(s *HybridSpec) { s.Fidelity = FidelityHybrid }), 737, 76_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := RunHybrid(tc.spec); err != nil { // warm-up: sync.Pools, lazily built tables
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := RunHybrid(tc.spec)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
			t.Logf("%d allocs, %d B over %d events", allocs, bytes, res.Events)
			if allocs > tc.allocs*5/4 || bytes > tc.bytes*5/4 {
				t.Errorf("%d allocs / %d B, budget 1.25 x (%d / %d)", allocs, bytes, tc.allocs, tc.bytes)
			}
		})
	}
}
