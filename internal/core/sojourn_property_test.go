package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// checkActiveSet verifies the table's dense active set against a scan of
// the table — active == {q : q.n > 0}, every member knowing its own slot —
// and the O(active) aggregates against a full-scan oracle. The oracle peeks
// (no write-back) before the aggregates run, so it cannot lean on state they
// just advanced.
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
		tau := q.peekTau(s, q.prio, tab.excludePause)
		if tau < floor {
			tau = floor
		}
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

// Property (the licence for L2BM.Weight answering a pinned class without
// touching the table): a queue advanced lazily reaches the same state as
// one advanced at every step. One scripted enqueue/dequeue/pause trace is
// driven into two tables; the eager one is queried — per-queue τ and both
// aggregates, all of which write their advance back — after every step, the
// lazy one never until the end. Their τ must agree for every queue at every
// step (the lazy side is peeked, which writes nothing back).
//
// The pause clock is physical, as a switch's is: a paused (port, priority)
// accrues exactly the time that elapses, so cumulative paused time never
// outruns the wall clock. That is the one property the argument needs; the
// chaos test above deliberately violates it, which is why it cannot make
// this comparison.
func TestSojournLazyEqualsEager(t *testing.T) {
	const ports = 4
	prios := []int{pkt.PrioLossless, pkt.PrioLossy}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newFakeState()
		excl := rng.Intn(2) == 0
		eager, lazy := NewSojournTable(excl), NewSojournTable(excl)

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
				eager.OnEnqueue(s, p)
				lazy.OnEnqueue(s, p)
				resident = append(resident, p)
			case 2: // dequeue
				if len(resident) == 0 {
					continue
				}
				i := rng.Intn(len(resident))
				eager.OnDequeue(s, resident[i])
				lazy.OnDequeue(s, resident[i])
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

			eager.SumActiveTau(s, sim.Microsecond)
			eager.MaxActiveTau(s, sim.Microsecond)
			for port := 0; port < ports; port++ {
				for _, prio := range prios {
					got := eager.Tau(s, port, prio)
					var want sim.Duration
					if q := lazy.lookup(port, prio); q != nil {
						want = q.peekTau(s, prio, excl)
					}
					if got != want {
						t.Errorf("step %d queue (%d,%d): eager τ = %v, lazy τ = %v", step, port, prio, got, want)
						return false
					}
				}
			}
		}
		for port := 0; port < ports; port++ {
			for _, prio := range prios {
				if e, l := eager.Tau(s, port, prio), lazy.Tau(s, port, prio); e != l {
					t.Errorf("final queue (%d,%d): eager τ = %v, lazy τ = %v", port, prio, e, l)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
