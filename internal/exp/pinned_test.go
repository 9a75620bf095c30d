package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"

	"l2bm/internal/faults"
	"l2bm/internal/sim"
	"l2bm/internal/topo"
)

// pinnedPoint is one absolute pin: FNV-64a of json.Marshal(Result), of the
// WriteCol bytes when traced, and Result.Events.
type pinnedPoint struct {
	spec   HybridSpec
	json   string
	col    string // "" on untraced points
	events uint64
}

// pinnedFaults is a fault scenario with the detection machinery on short
// periods and the detector's degraded mode armed, so the detector and
// watchdog fire often enough to matter to Result.Events.
func pinnedFaults() *FaultSpec {
	return &FaultSpec{
		Plan: faults.Plan{
			FlapRate:     500,
			FlapDowntime: 20 * sim.Microsecond,
			FlapWindow:   ScaleTiny.Window(),
			BER:          1e-6,
			PFCLossRate:  0.02,
		},
		DetectorPeriod: 50 * sim.Microsecond,
		BreakDeadlocks: true,
		WatchdogWindow: 300 * sim.Microsecond,
	}
}

// pinnedPoints is the absolute-digest matrix. Every other determinism test
// in the tree compares run A to run B inside one binary, so a refactor that
// shifted both sides would pass them all; these constants were captured at
// the commit before the run assembler was unified and must only be
// re-captured on purpose (ROADMAP 1(e), widening the RNG seed, is the
// planned occasion). Two rows were, when Result.Events began counting
// barrier-task firings: the two that already ran their observers on the
// barrier. Only Events moved in them, by exactly the firings, and with it
// the json digest; the Shards 0 rows counted the same firings as engine
// events all along and did not move. One row was again when Events stopped
// counting the tick chains a sharded run replicates per shard: the Shards 2
// row, to its one-shard value.
func pinnedPoints() []pinnedPoint {
	incast := &IncastSpec{Fanout: 5, RequestBytes: 200_000, QueryRate: 2000}
	heavy := &IncastSpec{Fanout: 7, RequestBytes: 400_000, QueryRate: 4000}
	trace := &TraceSpec{SampleEvery: 100 * sim.Microsecond, Capacity: 1 << 16}
	// An eighth of the shared buffer under TCP load 0.8 plus fan-in bursts
	// makes every tier pause and the lossy class drop, so the per-tier and
	// drop counters the harvest copies are non-zero in the pinned bytes.
	pressured := func(name, policy string) HybridSpec {
		return HybridSpec{Name: name, Policy: policy, Scale: ScaleTiny, RDMALoad: 0.4, TCPLoad: 0.8,
			Incast: heavy, TopoOverride: func(c *topo.Config) { c.Switch.TotalShared /= 8 }}
	}
	faulted := func(name, policy string) HybridSpec {
		s := pressured(name, policy)
		s.Faults, s.DrainOverride = pinnedFaults(), 16*ScaleTiny.Window()
		return s
	}
	with := func(s HybridSpec, edit func(*HybridSpec)) HybridSpec {
		edit(&s)
		return s
	}
	return []pinnedPoint{
		{spec: HybridSpec{Name: "zz-clean", Policy: "L2BM", Scale: ScaleTiny, RDMALoad: 0.4, TCPLoad: 0.6, Incast: incast},
			json: "b5db93137f99ad4e", events: 159566},
		{spec: with(pressured("zz-observed", "L2BM"), func(s *HybridSpec) { s.Audit, s.Trace = &AuditSpec{}, trace }),
			json: "6836667ab89c3a45", col: "8c6f35ec203af5bb", events: 281478},
		{spec: faulted("zz-faults", "DT"),
			json: "76021fd727470d28", events: 5935962},
		// Was 2,338,689 engine events; + 861 firings (68 sweeps, 680 scans, 113
		// ticks) = 2,339,550; − 30 firings of the second shard's injector and
		// incast replicas = 2,339,520, the Shards 1 count (one simulated event,
		// one count). Only Events moved, and with it the json digest.
		{spec: with(faulted("zz-sharded-faults", "L2BM"), func(s *HybridSpec) { s.Audit, s.Shards = &AuditSpec{}, 2 }),
			json: "2264b4f870ba9a5c", events: 2339520},
		{spec: with(pressured("zz-sharded-traced", "Occamy"), func(s *HybridSpec) { s.Trace, s.Shards = trace, 1 }),
			json: "4419d65612c1133a", col: "c518d2ebcac65659", events: 850481},
		// Was 634,665 engine events; + 50 firings (every sweep but Final's).
		{spec: with(pressured("zz-hybrid", "L2BM"), func(s *HybridSpec) {
			s.RDMALoad, s.TCPLoad, s.InterRackOnly = 0.1, 0.1, true
			s.Incast = &IncastSpec{Fanout: 5, RequestBytes: 200_000, QueryRate: 400}
			s.WindowOverride = 8 * ScaleTiny.Window()
			s.Audit, s.Trace, s.Fidelity = &AuditSpec{}, trace, FidelityHybrid
		}), json: "fdba0033185ab861", col: "03e03a0eee25cdb2", events: 634715},
		{spec: with(faulted("zz-fallback", "L2BM"), func(s *HybridSpec) { s.Audit, s.Fidelity = &AuditSpec{}, FidelityHybrid }),
			json: "ce65a2c34c0ef4ec", events: 1464971},
		// The two DT variants under the same pressure: 292 (EDT) and 827 (TDT)
		// lossy drops, so their absorb and evacuate modes shape the bytes.
		{spec: pressured("zz-EDT", "EDT"), json: "1639882ddf956a28", events: 319406},
		{spec: pressured("zz-TDT", "TDT"), json: "33367036bac72e32", events: 460913},
	}
}

func fnvHex(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestRunDigestsPinned holds RunHybrid's output to absolute constants across
// every way a run is assembled: one engine clean / observed / faulted, Shards
// 1 and 2, hybrid fidelity, and the hybrid → packet fault fallback. It is not
// skipped in -short mode: CI's `go test -race -short` pass is what drives an
// audited + traced point through the conductor.
func TestRunDigestsPinned(t *testing.T) {
	for _, p := range pinnedPoints() {
		p := p
		t.Run(p.spec.Name, func(t *testing.T) {
			t.Parallel()
			res, err := RunHybrid(p.spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.FlowsCompleted == 0 {
				t.Fatal("no flows completed")
			}
			body, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			col := ""
			if p.spec.Trace != nil {
				var buf bytes.Buffer
				if err := res.WriteCol(&buf); err != nil {
					t.Fatal(err)
				}
				col = fnvHex(buf.Bytes())
			}
			if got := fnvHex(body); got != p.json || col != p.col || res.Events != p.events {
				t.Errorf("digest moved:\n got json: %q, col: %q, events: %d\nwant json: %q, col: %q, events: %d",
					got, col, res.Events, p.json, p.col, p.events)
			}
		})
	}
}
