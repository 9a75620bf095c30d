package switchsim

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"l2bm/internal/core"
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// TestInvariantsHoldDuringHybridRun audits the MMU periodically while a
// mixed workload churns through the switch under every policy.
func TestInvariantsHoldDuringHybridRun(t *testing.T) {
	policies := []core.Policy{
		core.NewDT(), core.NewDT2(), core.NewABM(),
		core.NewDefaultL2BM(), core.NewEDT(), core.NewTDT(),
	}
	for _, pol := range policies {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			r := newRig(t, 5, DefaultConfig(), pol, 25e9, sim.Microsecond)
			for src := 0; src < 4; src++ {
				r.send(src, 4, 150, pkt.PrioLossless, pkt.ClassLossless)
				r.send(src, 4, 150, pkt.PrioLossy, pkt.ClassLossy)
			}
			// Audit every 5 µs until the switch drains (the audit chain
			// must terminate or RunAll never empties the event queue).
			var audit func()
			failures := 0
			audit = func() {
				if err := r.sw.CheckInvariants(); err != nil {
					failures++
					if failures == 1 {
						t.Error(err)
					}
					return
				}
				if r.eng.Now() > 50*sim.Microsecond && r.sw.Occupancy() == 0 {
					return
				}
				r.eng.Schedule(5*sim.Microsecond, audit)
			}
			r.eng.Schedule(5*sim.Microsecond, audit)
			r.eng.RunAll()

			if err := r.sw.CheckInvariants(); err != nil {
				t.Errorf("final audit: %v", err)
			}
		})
	}
}

func TestInvariantsDetectCorruption(t *testing.T) {
	r := newRig(t, 3, DefaultConfig(), core.NewDT(), 25e9, 0)
	r.send(0, 2, 5, pkt.PrioLossy, pkt.ClassLossy)
	r.eng.Run(10 * sim.Microsecond)

	if err := r.sw.CheckInvariants(); err != nil {
		t.Fatalf("clean switch flagged: %v", err)
	}
	// Corrupt a counter: the auditor must notice.
	r.sw.mmu.sharedUsed += 17
	if err := r.sw.CheckInvariants(); err == nil {
		t.Error("auditor missed sharedUsed corruption")
	}
	r.sw.mmu.sharedUsed -= 17

	r.sw.mmu.resident += 5
	if err := r.sw.CheckInvariants(); err == nil {
		t.Error("auditor missed resident corruption")
	}
	r.sw.mmu.resident -= 5

	r.sw.mmu.congested[pkt.PrioLossy]++
	if err := r.sw.CheckInvariants(); err == nil {
		t.Error("auditor missed congestion census corruption")
	}
	r.sw.mmu.congested[pkt.PrioLossy]--

	r.sw.mmu.setPaused(0, pkt.PrioLossy, true)
	if err := r.sw.CheckInvariants(); err == nil {
		t.Error("auditor missed lossy pause state")
	}
	r.sw.mmu.setPaused(0, pkt.PrioLossy, false)

	if err := r.sw.CheckInvariants(); err != nil {
		t.Errorf("restored switch still flagged: %v", err)
	}
}

// TestCheckDrainedDetectsLeaks verifies the drained-state auditor accepts a
// quiescent switch and flags each class of leak the invariant check alone
// cannot see (balanced-but-nonzero counters, wedged pause state).
func TestCheckDrainedDetectsLeaks(t *testing.T) {
	r := newRig(t, 3, DefaultConfig(), core.NewDT(), 25e9, 0)
	r.send(0, 2, 5, pkt.PrioLossy, pkt.ClassLossy)
	r.eng.RunAll()

	if err := r.sw.CheckDrained(); err != nil {
		t.Fatalf("drained switch flagged: %v", err)
	}

	// A balanced leak: bump both sides of the accounting so CheckInvariants
	// passes but bytes are still "resident" after drain.
	r.sw.mmu.cell(0, pkt.PrioLossy).ing += pkt.MTUBytes
	r.sw.mmu.cell(2, pkt.PrioLossy).eg += pkt.MTUBytes
	r.sw.mmu.poolUsed[pkt.ClassLossy] += pkt.MTUBytes
	r.sw.mmu.resident += pkt.MTUBytes
	if err := r.sw.CheckInvariants(); err != nil {
		t.Fatalf("balanced leak should pass the invariant check, got: %v", err)
	}
	if err := r.sw.CheckDrained(); err == nil {
		t.Error("drained auditor missed a balanced byte leak")
	}
	r.sw.mmu.cell(0, pkt.PrioLossy).ing -= pkt.MTUBytes
	r.sw.mmu.cell(2, pkt.PrioLossy).eg -= pkt.MTUBytes
	r.sw.mmu.poolUsed[pkt.ClassLossy] -= pkt.MTUBytes
	r.sw.mmu.resident -= pkt.MTUBytes

	// A wedged pause: lossless so the invariant check stays quiet.
	r.sw.mmu.setPaused(0, pkt.PrioLossless, true)
	if err := r.sw.CheckInvariants(); err != nil {
		t.Fatalf("lossless pause should pass the invariant check, got: %v", err)
	}
	if err := r.sw.CheckDrained(); err == nil {
		t.Error("drained auditor missed a wedged PFC pause")
	}
	r.sw.mmu.setPaused(0, pkt.PrioLossless, false)

	if err := r.sw.CheckDrained(); err != nil {
		t.Errorf("restored switch still flagged: %v", err)
	}
}

// digest hashes everything CheckInvariants reads from the MMU.
func (m *mmuState) digest() uint64 {
	h := fnv.New64a()
	word := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		_, _ = h.Write(b[:])
	}
	for port, paused := range m.paused {
		for prio := 0; prio < pkt.NumPriorities; prio++ {
			c := m.at(port, prio)
			word(c.ing)
			word(c.eg)
			word(c.hr)
		}
		word(int64(paused))
	}
	word(m.sharedUsed)
	word(m.resident)
	for _, v := range m.poolUsed {
		word(v)
	}
	for _, v := range m.congested {
		word(int64(v))
	}
	return h.Sum64()
}

// versionWatch compares the MMU digest and version after every engine event
// (and wherever the test calls check): state that changed under an unmoved
// version is the auditor's gate going blind.
type versionWatch struct {
	t       *testing.T
	r       *rig
	digest  uint64
	version uint64
	changes int
}

func watchVersion(t *testing.T, r *rig) *versionWatch {
	w := &versionWatch{t: t, r: r, digest: r.sw.mmu.digest(), version: r.sw.MMUVersion()}
	r.eng.SetInterrupt(1, func() bool { w.check("an engine event"); return false })
	return w
}

func (w *versionWatch) check(after string) {
	w.t.Helper()
	d, v := w.r.sw.mmu.digest(), w.r.sw.MMUVersion()
	if d != w.digest {
		w.changes++
		if v == w.version {
			w.t.Fatalf("t=%v after %s: MMU state changed but the version stayed at %d", w.r.eng.Now(), after, v)
		}
	}
	w.digest, w.version = d, v
}

// smallBufferConfig makes thresholds bind within a few dozen packets.
func smallBufferConfig() Config {
	cfg := DefaultConfig()
	cfg.TotalShared = 60_000
	cfg.HeadroomPerQueue = 12_000
	cfg.ECNLossyThreshold = 20_000
	return cfg
}

// TestVersionCoversEveryMMUWrite is the soundness half of the auditor's
// version gate: whenever anything CheckInvariants reads has changed, the
// version must have moved. A random script of bursts, evictions and skews
// runs against small-buffer switches — so lossy drops, headroom, PFC
// assert/release and (under Occamy) preemption all occur — and the
// digest/version pair is compared after every engine event and every
// direct call.
func TestVersionCoversEveryMMUWrite(t *testing.T) {
	policies := map[string]func() core.Policy{
		"DT":     func() core.Policy { return core.NewDT() },
		"L2BM":   func() core.Policy { return core.NewDefaultL2BM() },
		"Occamy": func() core.Policy { return core.NewOccamy() },
	}
	for name, newPolicy := range policies {
		name, newPolicy := name, newPolicy
		t.Run(name, func(t *testing.T) {
			r := newRig(t, 5, smallBufferConfig(), newPolicy(), 25e9, sim.Microsecond)
			rng := rand.New(rand.NewSource(7))
			w := watchVersion(t, r)
			for step := 0; step < 400; step++ {
				switch roll := rng.Intn(10); {
				case roll < 6:
					src, dst := rng.Intn(4), 4
					if rng.Intn(4) == 0 {
						dst = (src + 1 + rng.Intn(3)) % 4
					}
					if rng.Intn(2) == 0 {
						r.send(src, dst, 1+rng.Intn(40), pkt.PrioLossless, pkt.ClassLossless)
					} else {
						r.send(src, dst, 1+rng.Intn(40), pkt.PrioLossy, pkt.ClassLossy)
					}
				case roll < 8:
					r.sw.EvictLossyTail(rng.Intn(5), pkt.PrioLossy, int64(1+rng.Intn(3))*pkt.MTUBytes)
					w.check("EvictLossyTail")
				default:
					delta := int64(1 + rng.Intn(1000))
					r.sw.SkewSharedUsedForTest(delta)
					w.check("SkewSharedUsedForTest")
					r.sw.SkewSharedUsedForTest(-delta)
					w.check("SkewSharedUsedForTest")
				}
				r.eng.Run(r.eng.Now() + sim.Duration(1+rng.Intn(20))*sim.Microsecond)
			}
			r.eng.RunAll()

			st := r.sw.Stats()
			if w.changes < 1000 || st.PauseFramesSent == 0 || st.ResumeFramesSent == 0 || st.LossyDropsIngress+st.LossyDropsEgress == 0 {
				t.Fatalf("script too tame to prove anything: %d state changes, stats %+v", w.changes, st)
			}
			if name == "Occamy" && st.LossyEvictions == 0 {
				t.Fatal("no eviction happened under the preemptive policy")
			}
		})
	}
}

// TestVersionCoversPauseAsOnlyWrite covers the one write the random script
// cannot isolate: a pause bit flipping with no counter moving. With no
// headroom configured, a lossless arrival over the ingress threshold is
// discarded uncharged, and if the queue crossed the threshold only because
// other traffic shrank it, the XOFF that arrival triggers is the event's
// only MMU write.
func TestVersionCoversPauseAsOnlyWrite(t *testing.T) {
	cfg := smallBufferConfig()
	cfg.HeadroomPerQueue = 0
	pol := core.NewDT()
	r := newRig(t, 5, cfg, pol, 25e9, sim.Microsecond)
	w := watchVersion(t, r)

	// Park everything bound for host 4 inside the switch.
	r.hosts[4].port.SendPFC(pkt.PrioLossless, true)
	r.hosts[4].port.SendPFC(pkt.PrioLossy, true)
	r.eng.RunAll()

	// Eight lossless packets sit under the threshold of an empty switch ...
	r.send(0, 4, 8, pkt.PrioLossless, pkt.ClassLossless)
	r.eng.RunAll()
	paused := func() bool { return r.sw.mmu.pausedOn(0, pkt.PrioLossless) }
	if paused() || r.sw.Stats().LosslessViolations != 0 {
		t.Fatal("set-up: the lossless queue should be admitted whole and unpaused")
	}
	// ... until lossy traffic from three other ports eats the shared pool.
	for src := 1; src <= 3; src++ {
		r.send(src, 4, 30, pkt.PrioLossy, pkt.ClassLossy)
	}
	r.eng.RunAll()
	th := cfg.ReservedPerQueue + pol.IngressThreshold(r.sw, 0, pkt.PrioLossless)
	if paused() || r.sw.mmu.at(0, pkt.PrioLossless).ing < th {
		t.Fatalf("set-up: want an unpaused queue over its threshold, have occupancy %d, threshold %d, paused %v",
			r.sw.mmu.at(0, pkt.PrioLossless).ing, th, paused())
	}

	before, occupancy := w.digest, r.sw.mmu.at(0, pkt.PrioLossless).ing
	r.send(0, 4, 1, pkt.PrioLossless, pkt.ClassLossless)
	r.eng.RunAll() // the watch checks after every event
	if !paused() || r.sw.Stats().LosslessViolations != 1 || r.sw.mmu.at(0, pkt.PrioLossless).ing != occupancy {
		t.Fatal("the arrival should have been discarded uncharged and have paused the queue")
	}
	if w.digest == before {
		t.Fatal("the pause did not show in the MMU digest")
	}
}
