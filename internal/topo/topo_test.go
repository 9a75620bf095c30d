package topo

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"l2bm/internal/core"
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/transport"
)

func dtFactory() core.Policy { return core.NewDT() }

func TestBuildPaperTopology(t *testing.T) {
	eng := sim.NewEngine(1)
	cl, err := Build(eng, DefaultConfig(), dtFactory, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.NumHosts(); got != 128 {
		t.Errorf("hosts = %d, want 128", got)
	}
	if len(cl.ToRs) != 4 || len(cl.Aggs) != 4 || len(cl.Cores) != 2 {
		t.Errorf("switch counts = %d/%d/%d, want 4/4/2", len(cl.ToRs), len(cl.Aggs), len(cl.Cores))
	}
	// ToR ports: 32 servers + 2 pod aggs.
	if got := cl.ToRs[0].NumPorts(); got != 34 {
		t.Errorf("ToR ports = %d, want 34", got)
	}
	// Agg ports: 2 pod ToRs + 2 cores.
	if got := cl.Aggs[0].NumPorts(); got != 4 {
		t.Errorf("Agg ports = %d, want 4", got)
	}
	// Core ports: one per agg.
	if got := cl.Cores[0].NumPorts(); got != 4 {
		t.Errorf("Core ports = %d, want 4", got)
	}
	if len(cl.AllSwitches()) != 10 {
		t.Errorf("AllSwitches = %d, want 10", len(cl.AllSwitches()))
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero pods", func(c *Config) { c.Pods = 0 }},
		{"tor not divisible", func(c *Config) { c.ToRCount = 3 }},
		{"agg not divisible", func(c *Config) { c.AggCount = 3 }},
		{"no cores", func(c *Config) { c.CoreCount = 0 }},
		{"no servers", func(c *Config) { c.ServersPerToR = 0 }},
		{"zero rate", func(c *Config) { c.ServerRate = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if _, err := Build(sim.NewEngine(1), cfg, dtFactory, nil); err == nil {
				t.Error("Build should fail")
			}
		})
	}
}

func TestHopsClassification(t *testing.T) {
	eng := sim.NewEngine(1)
	cl := MustBuild(eng, DefaultConfig(), dtFactory, nil)

	tests := []struct {
		name     string
		src, dst int
		want     int
	}{
		{"same rack", 0, 1, 2},
		{"same pod", 0, 32, 4},  // tor0 -> tor1, pod 0
		{"cross pod", 0, 64, 6}, // tor0 -> tor2, pod 1
		{"cross pod far", 33, 127, 6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := cl.Hops(tt.src, tt.dst); got != tt.want {
				t.Errorf("Hops(%d,%d) = %d, want %d", tt.src, tt.dst, got, tt.want)
			}
		})
	}
}

func TestBasePathDelayOrdering(t *testing.T) {
	cl := MustBuild(sim.NewEngine(1), DefaultConfig(), dtFactory, nil)
	rack := cl.BasePathDelay(0, 1)
	pod := cl.BasePathDelay(0, 32)
	cross := cl.BasePathDelay(0, 64)
	if !(rack < pod && pod < cross) {
		t.Errorf("path delays not ordered: rack %v, pod %v, cross %v", rack, pod, cross)
	}
	// Intra-rack: 2 µs propagation + 2 MTU at 25G.
	want := 2*sim.Microsecond + 2*sim.TxTime(pkt.MTUBytes, 25e9)
	if rack != want {
		t.Errorf("rack delay = %v, want %v", rack, want)
	}
}

func TestIdealFCTScalesWithSize(t *testing.T) {
	cl := MustBuild(sim.NewEngine(1), DefaultConfig(), dtFactory, nil)
	small := cl.IdealFCT(0, 64, 1000)
	big := cl.IdealFCT(0, 64, 1_000_000)
	if small >= big {
		t.Error("ideal FCT must grow with size")
	}
	// A 1 MB flow at 25 Gbps takes at least 335 µs of serialization.
	if big < sim.TxTime(1_000_000, 25e9) {
		t.Errorf("ideal FCT %v below raw serialization", big)
	}
}

// End-to-end delivery across each path class, both protocols.
func TestClusterDeliversAcrossAllPathClasses(t *testing.T) {
	eng := sim.NewEngine(7)
	completed := make(map[pkt.FlowID]sim.Time)
	cl := MustBuild(eng, DefaultConfig(), func() core.Policy { return core.NewDefaultL2BM() },
		func(id pkt.FlowID, at sim.Time) { completed[id] = at })

	flows := []*transport.Flow{
		{ID: 1, Src: 0, Dst: 1, Size: 50_000, Priority: pkt.PrioLossless, Class: pkt.ClassLossless},
		{ID: 2, Src: 0, Dst: 33, Size: 50_000, Priority: pkt.PrioLossless, Class: pkt.ClassLossless},
		{ID: 3, Src: 0, Dst: 100, Size: 50_000, Priority: pkt.PrioLossless, Class: pkt.ClassLossless},
		{ID: 4, Src: 5, Dst: 2, Size: 50_000, Priority: pkt.PrioLossy, Class: pkt.ClassLossy},
		{ID: 5, Src: 5, Dst: 40, Size: 50_000, Priority: pkt.PrioLossy, Class: pkt.ClassLossy},
		{ID: 6, Src: 5, Dst: 90, Size: 50_000, Priority: pkt.PrioLossy, Class: pkt.ClassLossy},
	}
	for _, f := range flows {
		cl.StartFlow(f)
	}
	eng.RunAll()

	for _, f := range flows {
		at, ok := completed[f.ID]
		if !ok {
			t.Errorf("flow %d (src %d dst %d) did not complete", f.ID, f.Src, f.Dst)
			continue
		}
		ideal := cl.IdealFCT(f.Src, f.Dst, f.Size)
		if at < ideal {
			t.Errorf("flow %d FCT %v beats ideal %v", f.ID, at, ideal)
		}
	}
	if cl.LosslessGaps() != 0 {
		t.Error("lossless gaps in an uncongested network")
	}
}

func TestECMPSpreadsFlows(t *testing.T) {
	counts := make(map[int]int)
	for f := 0; f < 1000; f++ {
		counts[ecmpHash(pkt.FlowID(f), saltToR, 2)]++
	}
	if len(counts) != 2 {
		t.Fatalf("hash used %d buckets, want 2", len(counts))
	}
	for b, c := range counts {
		if c < 300 {
			t.Errorf("bucket %d has %d of 1000 flows; poor spread", b, c)
		}
	}
	// Same flow, same choice (per-flow consistency).
	if ecmpHash(42, 1, 4) != ecmpHash(42, 1, 4) {
		t.Error("hash not deterministic")
	}
	if ecmpHash(42, 0, 1) != 0 {
		t.Error("single path must return 0")
	}
}

// ecmpHashFNV is ecmpHash as it was written before the hash was inlined:
// through hash/fnv's hash.Hash64 over the same 16 bytes. It survives as the
// oracle.
func ecmpHashFNV(f pkt.FlowID, salt uint64, n int) int {
	if n == 1 {
		return 0
	}
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(f))
	binary.LittleEndian.PutUint64(buf[8:], salt)
	_, _ = h.Write(buf[:])
	return int(h.Sum64() % uint64(n))
}

func TestECMPHashMatchesHashFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	salts := []uint64{0, saltToR, saltAgg, saltCore, ^uint64(0)}
	for i := 0; i < 20000; i++ {
		f, salt, n := pkt.FlowID(rng.Uint64()), salts[rng.Intn(len(salts))], 1+rng.Intn(64)
		if i%3 == 0 {
			salt = rng.Uint64()
		}
		if i%5 == 0 {
			f = pkt.FlowID(i) // small sequential ids, as workloads issue them
		}
		if got, want := ecmpHash(f, salt, n), ecmpHashFNV(f, salt, n); got != want {
			t.Fatalf("ecmpHash(%d, %#x, %d) = %d, hash/fnv form gives %d", f, salt, n, got, want)
		}
	}
}

// TestPathOfMatchesForwarding holds the analytic path to the routers: on the
// paper's fabric, one small inter-rack flow at a time, the switches whose
// ports receive anything are exactly the data path PathOf(id, src, dst) and
// the ACK path PathOf(id, dst, src) — no switch off them, none on them
// skipped. The fluid layer prices links by PathOf, so a router hashing with
// another salt would move its flows onto links it never charges.
func TestPathOfMatchesForwarding(t *testing.T) {
	cfg := DefaultConfig()
	eng := sim.NewEngine(3)
	cl := MustBuild(eng, cfg, dtFactory, nil)
	all := cl.AllSwitches()
	received := func() []uint64 {
		rx := make([]uint64, len(all))
		for i, sw := range all {
			for p := 0; p < sw.NumPorts(); p++ {
				rx[i] += sw.Port(p).Stats().RxPackets
			}
		}
		return rx
	}
	torsPerPod, aggsPerPod := cfg.ToRCount/cfg.Pods, cfg.AggCount/cfg.Pods
	onPath := func(p PathChoice, want map[string]bool) {
		want[cl.ToRs[p.SrcToR].Name()] = true
		want[cl.ToRs[p.DstToR].Name()] = true
		if p.Hops >= 4 {
			want[cl.Aggs[p.SrcToR/torsPerPod*aggsPerPod+p.UpAgg].Name()] = true
			want[cl.Aggs[p.DstToR/torsPerPod*aggsPerPod+p.DownAgg].Name()] = true
		}
		if p.Hops == 6 {
			want[cl.Cores[p.Core].Name()] = true
		}
	}

	rng := rand.New(rand.NewSource(5))
	hosts := cfg.Hosts()
	hops := map[int]int{}
	for i := 0; i < 320; i++ {
		src, dst := rng.Intn(hosts), rng.Intn(hosts)
		if cfg.ToROf(src) == cfg.ToROf(dst) {
			i--
			continue
		}
		f := &transport.Flow{ID: pkt.FlowID(rng.Uint64() >> 1), Src: src, Dst: dst, Size: 3000,
			Priority: pkt.PrioLossy, Class: pkt.ClassLossy}
		if i%2 == 0 {
			f.Priority, f.Class = pkt.PrioLossless, pkt.ClassLossless
		}
		want := map[string]bool{}
		onPath(cfg.PathOf(f.ID, src, dst), want)
		onPath(cfg.PathOf(f.ID, dst, src), want)
		hops[cfg.Hops(src, dst)]++

		before := received()
		cl.StartFlow(f)
		eng.RunAll()
		got := map[string]bool{}
		for k, rx := range received() {
			if rx != before[k] {
				got[all[k].Name()] = true
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("flow %d (%d→%d, %d hops) touched %v, PathOf says %v", f.ID, src, dst, cfg.Hops(src, dst), got, want)
		}
	}
	if hops[4] == 0 || hops[6] == 0 {
		t.Fatalf("path classes exercised: %v, want both intra- and inter-pod", hops)
	}
}

func TestTinyConfigBuilds(t *testing.T) {
	eng := sim.NewEngine(1)
	cl := MustBuild(eng, TinyConfig(), dtFactory, nil)
	if cl.NumHosts() != 8 {
		t.Errorf("tiny hosts = %d, want 8", cl.NumHosts())
	}
	// Cross-pod flow completes.
	done := false
	cl.Hosts[0].SetCompletionHandler(nil)
	for _, h := range cl.Hosts {
		h.SetCompletionHandler(func(pkt.FlowID, sim.Time) { done = true })
	}
	cl.StartFlow(&transport.Flow{ID: 1, Src: 0, Dst: 7, Size: 10_000,
		Priority: pkt.PrioLossless, Class: pkt.ClassLossless})
	eng.RunAll()
	if !done {
		t.Error("tiny cluster flow did not complete")
	}
}

func TestMustBuildPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pods = 0
	defer func() {
		if recover() == nil {
			t.Error("MustBuild should panic on invalid config")
		}
	}()
	MustBuild(sim.NewEngine(1), cfg, dtFactory, nil)
}
