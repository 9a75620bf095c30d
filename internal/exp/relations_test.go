package exp

import (
	"bytes"
	"encoding/json"
	"testing"

	"l2bm/internal/core"
	"l2bm/internal/topo"
)

// relation is one exact equivalence between two policies: at every point,
// after transform, policy b's Result equals policy a's byte for byte, label
// aside, wherever holds accepts b's run. A relation needs no paper number,
// and it catches a policy that acts through some channel other than its
// thresholds.
type relation struct {
	name      string
	points    []HybridSpec
	transform func(*HybridSpec) // nil: the points as written
	a         string
	b         []string
	holds     func(b *Result) bool // nil: everywhere
}

func relations() []relation {
	tiny := func(rdma, tcp float64) HybridSpec {
		return HybridSpec{Name: "relation", Scale: ScaleTiny, RDMALoad: rdma, TCPLoad: tcp}
	}
	small := func(rdma, tcp float64) HybridSpec {
		s := tiny(rdma, tcp)
		s.Scale = ScaleSmall
		return s
	}
	policies := core.RegisteredPolicies()
	return []relation{
		// R1: a buffer no load can fill binds no policy. ECN marking and
		// headroom are policy-free, so every policy runs as DT does.
		{
			name:   "R1 non-binding buffer",
			points: []HybridSpec{tiny(0.4, 0.4), tiny(0.4, 0.8)},
			transform: func(s *HybridSpec) {
				s.TopoOverride = func(c *topo.Config) { c.Switch.TotalShared = 1 << 40 }
			},
			a: policies[0], b: policies[1:],
		},
		// R2: a preemptive policy that never preempts is its base policy.
		{
			name:   "R2 preemption unused",
			points: []HybridSpec{tiny(0.4, 0.2), tiny(0.4, 0.8), small(0.4, 0.2)},
			a:      "DT2", b: []string{"Occamy"},
			holds: func(r *Result) bool { return r.LossyEvictions == 0 },
		},
		// R3: without lossy traffic L2BM's lossless weight stays at DT2's α.
		{
			name:   "R3 L2BM without lossy traffic",
			points: []HybridSpec{small(0.6, 0)},
			a:      "DT2", b: []string{"L2BM"},
		},
		// R4: BShare pins its lossless weight at DT2's α as well.
		{
			name:   "R4 BShare without lossy traffic",
			points: []HybridSpec{tiny(0.4, 0), small(0.6, 0)},
			a:      "DT2", b: []string{"BShare"},
		},
		// R5: at light load no lossy queue grows long enough for EDT's or
		// TDT's threshold to bind, in whatever mode, so each runs as DT.
		{
			name:   "R5 DT variants at light load",
			points: []HybridSpec{tiny(0.4, 0.1), tiny(0.4, 0.2)},
			a:      "DT", b: []string{"EDT", "TDT"},
		},
	}
}

// unlabelled runs spec and returns its Result JSON with the policy label
// blanked.
func unlabelled(t *testing.T, spec HybridSpec) ([]byte, *Result) {
	t.Helper()
	res, err := RunHybrid(spec)
	if err != nil {
		t.Fatalf("%s at %+v: %v", spec.Policy, spec, err)
	}
	res.Policy = ""
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b, res
}

// TestPolicyRelations checks every relation at every one of its points.
// A relation whose precondition held at none of its points tested nothing,
// and fails.
func TestPolicyRelations(t *testing.T) {
	for _, rel := range relations() {
		t.Run(rel.name, func(t *testing.T) {
			checked, pairs := 0, 0
			for _, point := range rel.points {
				if rel.transform != nil {
					rel.transform(&point)
				}
				point.Policy = rel.a
				want, _ := unlabelled(t, point)
				for _, b := range rel.b {
					point.Policy = b
					got, res := unlabelled(t, point)
					pairs++
					if rel.holds != nil && !rel.holds(res) {
						continue
					}
					checked++
					if !bytes.Equal(got, want) {
						t.Errorf("%s ≠ %s at scale %v, RDMA %v, TCP %v", b, rel.a, point.Scale, point.RDMALoad, point.TCPLoad)
					}
				}
			}
			t.Logf("%d of %d pairs met the precondition", checked, pairs)
			if checked == 0 {
				t.Error("the precondition held at no point: the relation tested nothing")
			}
		})
	}
}

// FuzzNonBindingBuffer is R1 over FuzzSpecRun's inputs: a spec fuzzSpec
// accepts, on the fabric it draws with a shared pool no load can fill, runs
// to the same Result under every registered policy, label blanked. Plain
// `go test` replays the chaos seeds; CI gives it a time budget.
func FuzzNonBindingBuffer(f *testing.F) {
	for _, seed := range chaosSeeds {
		f.Add([]byte(seed.spec), seed.fabric)
	}
	f.Fuzz(func(t *testing.T, data []byte, fabric uint8) {
		sp, err := fuzzSpec(data, fabric)
		if err != nil {
			return
		}
		place := sp.TopoOverride
		sp.TopoOverride = func(c *topo.Config) {
			place(c)
			c.Switch.TotalShared = 1 << 40
		}
		policies := core.RegisteredPolicies()
		sp.Policy = policies[0]
		want, _ := unlabelled(t, sp)
		for _, policy := range policies[1:] {
			sp.Policy = policy
			if got, _ := unlabelled(t, sp); !bytes.Equal(got, want) {
				t.Fatalf("%s ≠ %s on fabric %d with a non-binding buffer: %s", policy, policies[0], fabric, specJSON(sp))
			}
		}
	})
}
