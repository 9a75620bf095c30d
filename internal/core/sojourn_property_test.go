package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// checkActiveSet verifies the table's dense active set against a scan of
// the table — active == {q : q.n > 0}, every member knowing its own slot —
// and the O(active) aggregates against a full-scan oracle.
func checkActiveSet(t *testing.T, tab *SojournTable, s StateView, floor sim.Duration) bool {
	t.Helper()
	var wantSum, wantMax sim.Duration
	wantN := 0
	for _, q := range tab.queues {
		if q == nil || q.n == 0 {
			continue
		}
		if q.activeIdx >= len(tab.active) || tab.active[q.activeIdx] != q {
			t.Errorf("queue with n=%d is not in the active set at its recorded slot %d", q.n, q.activeIdx)
			return false
		}
		tau := max(q.tau(s, tab.excludePause), floor)
		wantSum += tau
		if tau > wantMax {
			wantMax = tau
		}
		wantN++
	}
	if len(tab.active) != wantN {
		t.Errorf("active set holds %d queues, table scan finds %d", len(tab.active), wantN)
		return false
	}
	sum, n := tab.SumActiveTau(s, floor)
	maxTau, n2 := tab.MaxActiveTau(s, floor)
	if sum != wantSum || maxTau != wantMax || n != wantN || n2 != wantN {
		t.Errorf("aggregates = (Σ %v, max %v, n %d/%d), full scan = (Σ %v, max %v, n %d)",
			sum, maxTau, n, n2, wantSum, wantMax, wantN)
		return false
	}
	return true
}

// Property: under any interleaving of enqueues, dequeues and time advances,
// the sojourn table keeps τ ≥ 0, resident counts ≥ 0, and empty queues at
// exactly τ = 0 (Algorithm 1's bookkeeping never goes negative or sticky),
// and after every step the active set and its aggregates match a scan of
// the whole table.
func TestSojournInvariantsUnderChaos(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newFakeState()
		tab := NewSojournTable(rng.Intn(2) == 0)

		type key struct{ port, prio int }
		resident := make(map[key][]*pkt.Packet)

		for step := 0; step < 400; step++ {
			switch rng.Intn(4) {
			case 0, 1: // enqueue
				k := key{rng.Intn(4), []int{pkt.PrioLossless, pkt.PrioLossy}[rng.Intn(2)]}
				egress := rng.Intn(4)
				s.qout[[2]int{egress, k.prio}] = int64(rng.Intn(300_000))
				p := admit(k.port, k.prio, egress)
				tab.OnEnqueue(s, p)
				resident[k] = append(resident[k], p)
			case 2: // dequeue from a random non-empty queue
				for k, ps := range resident {
					if len(ps) == 0 {
						// A stray dequeue of an empty (or never-created)
						// queue must leave the active set alone.
						tab.OnDequeue(s, admit(k.port, k.prio, 0))
						continue
					}
					i := rng.Intn(len(ps))
					tab.OnDequeue(s, ps[i])
					resident[k] = append(ps[:i], ps[i+1:]...)
					break
				}
			default: // advance time (and sometimes paused time)
				s.now += sim.Duration(rng.Intn(100)) * sim.Microsecond
				if rng.Intn(3) == 0 {
					j, p := rng.Intn(4), []int{pkt.PrioLossless, pkt.PrioLossy}[rng.Intn(2)]
					s.paused[[2]int{j, p}] += sim.Duration(rng.Intn(50)) * sim.Microsecond
				}
			}

			if !checkActiveSet(t, tab, s, sim.Microsecond) {
				return false
			}
			for port := 0; port < 4; port++ {
				for _, prio := range []int{pkt.PrioLossless, pkt.PrioLossy} {
					tau := tab.Tau(s, port, prio)
					if tau < 0 {
						return false
					}
					n := tab.Resident(port, prio)
					if n != len(resident[key{port, prio}]) {
						return false
					}
					if n == 0 && tau != 0 {
						return false
					}
				}
			}
		}

		// Drain everything: the table must return to the zero state.
		for _, ps := range resident {
			for _, p := range ps {
				tab.OnDequeue(s, p)
			}
		}
		sum, active := tab.SumActiveTau(s, sim.Microsecond)
		return sum == 0 && active == 0 && len(tab.active) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: pause exclusion can only make τ larger or equal — never smaller
// — than the unexcluded estimate, for identical histories.
func TestSojournPauseExclusionMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sA, sB := newFakeState(), newFakeState()
		with := NewSojournTable(true)
		without := NewSojournTable(false)

		for step := 0; step < 100; step++ {
			egress := rng.Intn(3)
			qlen := int64(rng.Intn(200_000))
			sA.qout[[2]int{egress, pkt.PrioLossless}] = qlen
			sB.qout[[2]int{egress, pkt.PrioLossless}] = qlen
			pA := admit(0, pkt.PrioLossless, egress)
			pB := admit(0, pkt.PrioLossless, egress)
			with.OnEnqueue(sA, pA)
			without.OnEnqueue(sB, pB)

			dt := sim.Duration(rng.Intn(50)) * sim.Microsecond
			sA.now += dt
			sB.now += dt
			paused := sim.Duration(rng.Intn(int(dt) + 1))
			sA.paused[[2]int{egress, pkt.PrioLossless}] += paused
			sB.paused[[2]int{egress, pkt.PrioLossless}] += paused

			if with.Tau(sA, 0, pkt.PrioLossless) < without.Tau(sB, 0, pkt.PrioLossless) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// readKinds counts the kinds of read read performs: four on the table, then
// Weight, IngressThreshold and PeekSamplesAppend under each Normalization.
const readKinds = 4 + 3*4

// read performs one kind of read on tab as of s, for ingress queue (port,
// prio) where the kind names one. The L2BM reads go through a policy that
// shares tab and keeps both classes adaptive, so no read is skipped.
func read(s StateView, tab *SojournTable, kind, port, prio int) {
	const floor = sim.Microsecond
	switch kind {
	case 0:
		tab.Tau(s, port, prio)
	case 1:
		tab.SumActiveTau(s, floor)
	case 2:
		tab.MaxActiveTau(s, floor)
	case 3:
		tab.PeekActiveAppend(nil, s, floor)
	default:
		cfg := DefaultL2BMConfig()
		cfg.Normalization = NormSumTau + Normalization((kind-4)/3)
		cfg.BoundsLossless = WeightBounds{}
		l := &L2BM{cfg: cfg, sojourn: tab}
		switch (kind - 4) % 3 {
		case 0:
			l.Weight(s, port, prio)
		case 1:
			l.IngressThreshold(s, port, prio)
		default:
			l.PeekSamplesAppend(nil, s)
		}
	}
}

// readAll performs every kind of read for every queue of a ports × prios
// table.
func readAll(s StateView, tab *SojournTable, ports int, prios []int) {
	for kind := 0; kind < readKinds; kind++ {
		for port := 0; port < ports; port++ {
			for _, prio := range prios {
				read(s, tab, kind, port, prio)
			}
		}
	}
}

// sameTables reports, through t, the first way a table read after every
// step differs from a twin never read: any queue's state (total, n,
// lastUpdate, resident ports with their counts and pause snapshots, ...),
// the active set, or any queue's τ.
func sameTables(t *testing.T, s StateView, queried, never *SojournTable, ports int, prios []int) bool {
	t.Helper()
	if !reflect.DeepEqual(queried, never) {
		t.Errorf("reads wrote: queried table %s, never-queried %s", dumpTable(queried), dumpTable(never))
		return false
	}
	for port := 0; port < ports; port++ {
		for _, prio := range prios {
			if q, n := queried.Tau(s, port, prio), never.Tau(s, port, prio); q != n {
				t.Errorf("queue (%d,%d): queried τ = %v, never-queried τ = %v", port, prio, q, n)
				return false
			}
		}
	}
	return true
}

func dumpTable(tab *SojournTable) string {
	out := fmt.Sprintf("%d active:", len(tab.active))
	for idx, q := range tab.queues {
		if q != nil {
			out += fmt.Sprintf(" [%d]%+v", idx, *q)
		}
	}
	return out
}

// Property: reads never write. One scripted enqueue/dequeue/pause trace is
// driven into two tables; the queried one gets every kind of read — per-
// queue τ, both aggregates, the ordered peek, and L2BM's Weight,
// IngressThreshold and samples under all four Normalizations — after every
// step, the other none. After every step the two tables must be deep-equal
// and agree on every τ.
//
// The pause clock here is physical, as a switch's is: a paused (port,
// priority) accrues exactly the time that elapses. Purity does not need that
// (FuzzSojournReads moves the clock freely); the argument in DESIGN.md's
// "Reads never write" that a queue advanced only at its own events matches
// one advanced at every read does.
func TestSojournLazyEqualsEager(t *testing.T) {
	const ports = 4
	prios := []int{pkt.PrioLossless, pkt.PrioLossy}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newFakeState()
		excl := rng.Intn(2) == 0
		queried, never := NewSojournTable(excl), NewSojournTable(excl)

		var resident []*pkt.Packet
		pausedNow := make(map[[2]int]bool)

		for step := 0; step < 600; step++ {
			switch rng.Intn(5) {
			case 0, 1: // enqueue
				prio := prios[rng.Intn(2)]
				egress := rng.Intn(ports)
				s.qout[[2]int{egress, prio}] = int64(rng.Intn(300_000))
				if pausedNow[[2]int{egress, prio}] {
					s.drain[[2]int{egress, prio}] = 0
				} else {
					delete(s.drain, [2]int{egress, prio})
				}
				p := admit(rng.Intn(ports), prio, egress)
				queried.OnEnqueue(s, p)
				never.OnEnqueue(s, p)
				resident = append(resident, p)
			case 2: // dequeue
				if len(resident) == 0 {
					continue
				}
				i := rng.Intn(len(resident))
				queried.OnDequeue(s, resident[i])
				never.OnDequeue(s, resident[i])
				resident = append(resident[:i], resident[i+1:]...)
			case 3: // a downstream XOFF or XON
				k := [2]int{rng.Intn(ports), prios[rng.Intn(2)]}
				pausedNow[k] = !pausedNow[k]
			default: // time passes; paused egress priorities accrue it
				dt := sim.Duration(rng.Intn(20_000_000)) // up to 20 µs, odd picoseconds included
				s.now += dt
				for k, on := range pausedNow {
					if on {
						s.paused[k] += dt
					}
				}
			}

			readAll(s, queried, ports, prios)
			if !sameTables(t, s, queried, never, ports, prios) {
				t.Logf("seed %d step %d", seed, step)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// FuzzSojournReads decodes bytes into a script of (operation, argument)
// pairs — enqueue, dequeue, an XOFF/XON toggle, time passing, one read of
// any kind — and drives two tables with it, one read in full after every
// operation. Their state and τ must stay equal. Purity needs no physical
// pause clock, so a toggle moves the clock by any amount, backward too.
func FuzzSojournReads(f *testing.F) {
	f.Add([]byte{0, 0x21, 0, 0x0b, 3, 0x40, 4, 0x05, 2, 0x03, 3, 0x91, 1, 0x00, 4, 0x2f})
	f.Add([]byte{0x80, 0x13, 2, 0x13, 0, 0x13, 3, 0xff, 2, 0x13, 3, 0x7f, 1, 0x01, 1, 0x00})
	f.Fuzz(func(t *testing.T, script []byte) {
		const ports = 4
		prios := []int{pkt.PrioLossless, pkt.PrioLossy}
		s := newFakeState()
		excl := len(script) > 0 && script[0]&0x80 != 0
		queried, never := NewSojournTable(excl), NewSojournTable(excl)
		var resident []*pkt.Packet
		for i := 0; i+1 < len(script); i += 2 {
			arg := int(script[i+1])
			k := [2]int{arg % ports, prios[arg/ports%2]} // an egress (port, prio)
			switch script[i] % 5 {
			case 0: // enqueue from ingress port arg/8 toward egress k
				s.qout[k] = int64(arg) * 1500
				p := admit(arg/8%ports, k[1], k[0])
				queried.OnEnqueue(s, p)
				never.OnEnqueue(s, p)
				resident = append(resident, p)
			case 1: // dequeue
				if len(resident) == 0 {
					continue
				}
				j := arg % len(resident)
				queried.OnDequeue(s, resident[j])
				never.OnDequeue(s, resident[j])
				resident = append(resident[:j], resident[j+1:]...)
			case 2: // XOFF/XON toggle of egress k
				if _, paused := s.drain[k]; paused {
					delete(s.drain, k)
					delete(s.pausedFor, k)
				} else {
					s.drain[k] = 0
					s.pausedFor[k] = sim.Duration(arg) * sim.Microsecond
				}
				s.paused[k] += sim.Duration(arg-100) * 333_333
			case 3: // time passes
				s.now += sim.Duration(arg) * 104_729
			default: // one read of any kind
				read(s, queried, arg%readKinds, arg/readKinds%ports, k[1])
			}
			readAll(s, queried, ports, prios)
			if !sameTables(t, s, queried, never, ports, prios) {
				t.Fatalf("after operation %d", i/2)
			}
		}
	})
}
