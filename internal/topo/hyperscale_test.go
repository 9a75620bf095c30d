package topo

import (
	"strings"
	"testing"

	"l2bm/internal/core"
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/transport"
)

// TestHyperscaleValidate exercises the one-line per-field errors and the
// oversubscription-divisibility check.
func TestHyperscaleValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*HyperscaleConfig)
		wantErr string // substring; "" means valid
	}{
		{"valid-10k", func(h *HyperscaleConfig) {}, ""},
		{"zero-pods", func(h *HyperscaleConfig) { h.Pods = 0 }, "Pods = 0"},
		{"negative-tors", func(h *HyperscaleConfig) { h.ToRsPerPod = -1 }, "ToRsPerPod = -1"},
		{"zero-servers", func(h *HyperscaleConfig) { h.ServersPerToR = 0 }, "ServersPerToR = 0"},
		{"zero-oversub", func(h *HyperscaleConfig) { h.Oversubscription = 0 }, "Oversubscription = 0"},
		// 32 servers × 25G / (3 × 100G) = 2.67 uplinks: not whole.
		{"indivisible-oversub", func(h *HyperscaleConfig) { h.Oversubscription = 3 },
			"does not divide the rack"},
		// Oversubscription so high the rack rounds to zero uplinks.
		{"zero-uplinks", func(h *HyperscaleConfig) { h.Oversubscription = 64 },
			"does not divide the rack"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := Hyperscale10k()
			tc.mutate(&h)
			err := h.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestHyperscalePresets checks each preset lowers to a valid Config with the
// advertised host count and a sane derived aggregation layer.
func TestHyperscalePresets(t *testing.T) {
	cases := []struct {
		name      string
		h         HyperscaleConfig
		wantHosts int
	}{
		{"1k", Hyperscale1k(), 1024},
		{"10k", Hyperscale10k(), 10240},
		{"100k", Hyperscale100k(), 102400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.h.Hosts(); got != tc.wantHosts {
				t.Fatalf("Hosts() = %d, want %d", got, tc.wantHosts)
			}
			cfg, err := tc.h.Config()
			if err != nil {
				t.Fatalf("Config() error: %v", err)
			}
			if got := cfg.Hosts(); got != tc.wantHosts {
				t.Fatalf("lowered Hosts() = %d, want %d", got, tc.wantHosts)
			}
			if cfg.AggCount%cfg.Pods != 0 || cfg.ToRCount%cfg.Pods != 0 {
				t.Fatalf("lowered config not pod-divisible: %+v", cfg)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatalf("lowered config invalid: %v", err)
			}
		})
	}
}

// TestHyperscaleDerivedWidths pins the oversubscription arithmetic: a rack of
// 32 × 25 Gbps servers at 4:1 over 100 Gbps uplinks gets exactly 2 uplinks,
// and the spine is as wide as a pod's aggregation layer.
func TestHyperscaleDerivedWidths(t *testing.T) {
	cfg, err := Hyperscale10k().Config()
	if err != nil {
		t.Fatal(err)
	}
	if aggs := cfg.AggCount / cfg.Pods; aggs != 2 {
		t.Fatalf("aggs per pod = %d, want 2", aggs)
	}
	if cfg.CoreCount != 2 {
		t.Fatalf("derived CoreCount = %d, want 2 (aggs per pod)", cfg.CoreCount)
	}
}

// TestComputePartitionHyperscale checks the shard map on multi-pod
// oversubscribed fabrics: every host follows its ToR's shard, every
// aggregation switch shares a shard with a ToR of its pod, and shards stay
// contiguous over ToRs (the conductor's lookahead proof assumes it).
func TestComputePartitionHyperscale(t *testing.T) {
	for _, preset := range []struct {
		name string
		h    HyperscaleConfig
	}{{"1k", Hyperscale1k()}, {"10k", Hyperscale10k()}} {
		cfg, err := preset.h.Config()
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 4, 8} {
			part, err := ComputePartition(cfg, shards)
			if err != nil {
				t.Fatalf("%s/%d shards: %v", preset.name, shards, err)
			}
			if part.Shards != shards {
				t.Fatalf("%s: Shards = %d, want %d", preset.name, part.Shards, shards)
			}
			for h, sh := range part.Host {
				if want := part.ToR[cfg.ToROf(h)]; sh != want {
					t.Fatalf("%s/%d: host %d on shard %d, its ToR on %d", preset.name, shards, h, sh, want)
				}
			}
			prev := 0
			for tIdx, sh := range part.ToR {
				if sh < prev || sh >= shards {
					t.Fatalf("%s/%d: ToR %d shard %d breaks contiguity (prev %d)", preset.name, shards, tIdx, sh, prev)
				}
				prev = sh
			}
			torsPerPod := cfg.ToRCount / cfg.Pods
			aggsPerPod := cfg.AggCount / cfg.Pods
			for a, sh := range part.Agg {
				pod := a / aggsPerPod
				found := false
				for k := 0; k < torsPerPod; k++ {
					if part.ToR[pod*torsPerPod+k] == sh {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("%s/%d: agg %d on shard %d, no ToR of pod %d there", preset.name, shards, a, sh, pod)
				}
			}
		}
	}
}

// TestHyperscaleBuildRunsSmoke builds the 1k-host fabric on one engine
// and pushes one cross-pod flow through it — the smallest end-to-end proof
// that a hyperscale-lowered Config wires, routes and drains.
func TestHyperscaleBuildRunsSmoke(t *testing.T) {
	cfg, err := Hyperscale1k().Config()
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(1)
	done := 0
	cl, err := Build(eng, cfg, func() core.Policy { return core.NewDT() },
		func(id pkt.FlowID, at sim.Time) { done++ })
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.NumHosts(); got != 1024 {
		t.Fatalf("NumHosts = %d, want 1024", got)
	}
	cl.StartFlow(&transport.Flow{
		ID: 1, Src: 0, Dst: cl.NumHosts() - 1, Size: 64 << 10,
		Priority: pkt.PrioLossy, Class: pkt.ClassLossy,
	})
	eng.Run(20 * sim.Millisecond)
	if done != 1 {
		t.Fatalf("flow completions = %d, want 1", done)
	}
	for _, sw := range cl.AllSwitches() {
		if err := sw.CheckDrained(); err != nil {
			t.Fatal(err)
		}
	}
}
