package netdev

import (
	"fmt"
	"math/rand"
	"testing"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

func TestDWRRByteFairness(t *testing.T) {
	// Priority A sends 250-byte packets, priority B 1000-byte packets.
	// Packet RR would give B 4x the bytes; DWRR must equalize bytes.
	eng := sim.NewEngine(1)
	a := &captureNode{name: "a", eng: eng}
	b := &captureNode{name: "b", eng: eng}
	pa, _ := Connect(eng, a, b, 25e9, 0)
	pa.EnableDWRR(1500)

	for i := 0; i < 200; i++ {
		pa.Enqueue(data(pkt.PrioLossless, 250-pkt.HeaderBytes))
		if i < 50 {
			pa.Enqueue(data(pkt.PrioLossy, 1000-pkt.HeaderBytes))
		}
	}
	// Run long enough to transmit ~half the backlog, then compare bytes.
	eng.Run(sim.TxTime(60_000, 25e9))

	var bytesA, bytesB int
	for _, p := range b.got {
		if p.Priority == pkt.PrioLossless {
			bytesA += p.Size
		} else {
			bytesB += p.Size
		}
	}
	if bytesA == 0 || bytesB == 0 {
		t.Fatal("one class starved")
	}
	ratio := float64(bytesA) / float64(bytesB)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("byte ratio A/B = %v, want ≈1 under DWRR", ratio)
	}
}

func TestDWRRDeliversEverything(t *testing.T) {
	eng := sim.NewEngine(1)
	a := &captureNode{name: "a", eng: eng}
	b := &captureNode{name: "b", eng: eng}
	pa, _ := Connect(eng, a, b, 25e9, 0)
	pa.EnableDWRR(500)

	total := 0
	for i := 0; i < 30; i++ {
		pa.Enqueue(data(pkt.PrioLossless, 100+i*17))
		pa.Enqueue(data(pkt.PrioLossy, 900-i*13))
		total += 2
	}
	eng.RunAll()
	if len(b.got) != total {
		t.Errorf("delivered %d/%d under DWRR", len(b.got), total)
	}
	if pa.TotalBacklog() != 0 {
		t.Error("backlog left behind")
	}
}

func TestDWRRHonorsPFCPause(t *testing.T) {
	eng := sim.NewEngine(1)
	a := &captureNode{name: "a", eng: eng}
	b := &captureNode{name: "b", eng: eng}
	pa, pb := Connect(eng, a, b, 25e9, 0)
	pb.EnableDWRR(1500)

	pa.SendPFC(pkt.PrioLossless, true)
	eng.RunAll()
	pb.Enqueue(data(pkt.PrioLossless, 500))
	pb.Enqueue(data(pkt.PrioLossy, 500))
	eng.RunAll()

	if pb.QueuePackets(pkt.PrioLossless) != 1 {
		t.Error("paused priority transmitted under DWRR")
	}
	if pb.QueuePackets(pkt.PrioLossy) != 0 {
		t.Error("unpaused priority starved under DWRR")
	}
}

func TestDWRRToggleBackToRR(t *testing.T) {
	eng := sim.NewEngine(1)
	a := &captureNode{name: "a", eng: eng}
	b := &captureNode{name: "b", eng: eng}
	pa, _ := Connect(eng, a, b, 25e9, 0)
	pa.EnableDWRR(1000)
	pa.EnableDWRR(0) // back to RR
	pa.Enqueue(data(pkt.PrioLossy, 100))
	eng.RunAll()
	if len(b.got) != 1 {
		t.Error("packet lost after toggling scheduler")
	}
}

func TestDWRRValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	a := &captureNode{name: "a", eng: eng}
	b := &captureNode{name: "b", eng: eng}
	pa, _ := Connect(eng, a, b, 25e9, 0)
	defer func() {
		if recover() == nil {
			t.Error("negative quantum should panic")
		}
	}()
	pa.EnableDWRR(-1)
}

// schedOracle is the port as it was before Port kept its eligible set as a
// bitmask and its per-priority state behind first-use pointers: eight
// queues, eight pause clocks and eight DWRR credits, all provisioned up
// front, and every decision walks all eight priorities and asks each queue
// for its length and pause state. It survives here as the reference the
// dense port is checked against.
type schedOracle struct {
	queues      [pkt.NumPriorities][]*pkt.Packet
	paused      [pkt.NumPriorities]bool
	pausedSince [pkt.NumPriorities]sim.Time
	cumPaused   [pkt.NumPriorities]sim.Duration
	rr          int
	quantum     int
	deficit     [pkt.NumPriorities]int
	granted     [pkt.NumPriorities]bool
}

func (o *schedOracle) backlogged() int {
	n := 0
	for prio := 0; prio < pkt.NumPriorities; prio++ {
		if len(o.queues[prio]) > 0 && !o.paused[prio] {
			n++
		}
	}
	return n
}

func (o *schedOracle) queueBytes(prio int) int {
	total := 0
	for _, q := range o.queues[prio] {
		total += q.Size
	}
	return total
}

func (o *schedOracle) drainRate(prio int, rate int64) int64 {
	if o.paused[prio] {
		return 0
	}
	n := o.backlogged()
	if n == 0 || (len(o.queues[prio]) > 0 && n == 1) {
		return rate
	}
	if len(o.queues[prio]) == 0 {
		n++
	}
	return rate / int64(n)
}

func (o *schedOracle) enableDWRR(quantum int) {
	o.quantum = quantum
	o.deficit = [pkt.NumPriorities]int{}
	o.granted = [pkt.NumPriorities]bool{}
}

// setPaused is a PFC frame (or a forced resume) taking effect at now: only
// an actual transition moves a clock.
func (o *schedOracle) setPaused(prio int, pause bool, now sim.Time) {
	switch {
	case pause && !o.paused[prio]:
		o.paused[prio] = true
		o.pausedSince[prio] = now
	case !pause && o.paused[prio]:
		o.paused[prio] = false
		o.cumPaused[prio] += now - o.pausedSince[prio]
	}
}

func (o *schedOracle) cumPausedTime(prio int, now sim.Time) sim.Duration {
	total := o.cumPaused[prio]
	if o.paused[prio] {
		total += now - o.pausedSince[prio]
	}
	return total
}

func (o *schedOracle) pop(prio int) *pkt.Packet {
	q := o.queues[prio][0]
	o.queues[prio] = o.queues[prio][1:]
	return q
}

func (o *schedOracle) evictTail(prio int) *pkt.Packet {
	n := len(o.queues[prio])
	if n == 0 {
		return nil
	}
	q := o.queues[prio][n-1]
	o.queues[prio] = o.queues[prio][:n-1]
	return q
}

func (o *schedOracle) next() *pkt.Packet {
	if o.quantum > 0 {
		return o.nextDWRR()
	}
	for i := 0; i < pkt.NumPriorities; i++ {
		prio := (o.rr + i) % pkt.NumPriorities
		if o.paused[prio] || len(o.queues[prio]) == 0 {
			continue
		}
		o.rr = (prio + 1) % pkt.NumPriorities
		return o.pop(prio)
	}
	return nil
}

func (o *schedOracle) nextDWRR() *pkt.Packet {
	eligible := false
	for prio := 0; prio < pkt.NumPriorities; prio++ {
		if !o.paused[prio] && len(o.queues[prio]) > 0 {
			eligible = true
		} else {
			o.deficit[prio] = 0
		}
	}
	if !eligible {
		return nil
	}
	for {
		prio := o.rr
		if o.paused[prio] || len(o.queues[prio]) == 0 {
			o.deficit[prio] = 0
			o.granted[prio] = false
			o.rr = (o.rr + 1) % pkt.NumPriorities
			continue
		}
		if !o.granted[prio] {
			o.deficit[prio] += o.quantum
			o.granted[prio] = true
		}
		if head := o.queues[prio][0]; o.deficit[prio] >= head.Size {
			q := o.pop(prio)
			o.deficit[prio] -= q.Size
			if len(o.queues[prio]) == 0 {
				o.deficit[prio] = 0
				o.granted[prio] = false
				o.rr = (o.rr + 1) % pkt.NumPriorities
			}
			return q
		}
		o.granted[prio] = false
		o.rr = (o.rr + 1) % pkt.NumPriorities
	}
}

// TestSchedulerMasksMatchEightWayScan drives one port and the oracle with
// the same random script — enqueues, scheduling decisions, PFC pause and
// resume frames (redundant ones included), forced resumes, tail evictions,
// the clock moving in between — under packet round robin and under DWRR,
// with the scheduler switched to the other discipline for the middle third
// of the script and back. It requires the same packet from every decision
// and, after every step, the same answer from every per-priority accessor on
// all eight priorities, the same scheduler state, and that the port has
// allocated state only for what the script has used so far. The priorities
// enter the script one at a time in a random order, so each is queried as a
// never-carried priority first and takes its queue at a different slot per
// seed. The port's transmitter is held busy so that only the test takes
// scheduling decisions.
func TestSchedulerMasksMatchEightWayScan(t *testing.T) {
	const steps = 3000
	const rate = 25e9
	for _, quantum := range []int{0, 600, 1500} {
		other := 0 // the discipline of the middle third
		if quantum == 0 {
			other = 900
		}
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			eng := sim.NewEngine(1)
			a := &captureNode{name: "a", eng: eng}
			b := &captureNode{name: "b", eng: eng}
			p, _ := Connect(eng, a, b, rate, 0)
			p.EnableDWRR(quantum)
			p.busy = true
			o := &schedOracle{quantum: quantum}
			fail := func(step int, format string, args ...any) {
				t.Helper()
				t.Fatalf("quantum %d seed %d step %d: %s", quantum, seed, step, fmt.Sprintf(format, args...))
			}

			// order[:known] are the priorities the script may touch; the
			// rest have never been enqueued, paused or evicted from. Most
			// traffic lands on the first three so queues keep emptying.
			order := rng.Perm(pkt.NumPriorities)
			var carried [pkt.NumPriorities]bool
			everPaused := false
			for step := 0; step < steps; step++ {
				known := 1 + step*pkt.NumPriorities/(steps/2)
				if known > pkt.NumPriorities {
					known = pkt.NumPriorities
				}
				prio := order[rng.Intn(known)]
				if rng.Intn(4) > 0 && known > 3 {
					prio = order[rng.Intn(3)]
				}
				switch step {
				case steps / 3:
					p.EnableDWRR(other)
					o.enableDWRR(other)
				case 2 * steps / 3:
					p.EnableDWRR(quantum)
					o.enableDWRR(quantum)
				}
				if rng.Intn(3) == 0 {
					eng.Run(eng.Now() + sim.Duration(1+rng.Intn(5000))*sim.Nanosecond)
				}
				switch roll := rng.Intn(100); {
				case roll < 35:
					q := data(prio, 40+rng.Intn(1400))
					p.Enqueue(q)
					o.queues[prio] = append(o.queues[prio], q)
					carried[prio] = true
				case roll < 75:
					if got, want := p.nextPacket(), o.next(); got != want {
						fail(step, "scheduled %v, eight-way scan picks %v", got, want)
					}
				case roll < 90:
					pause := rng.Intn(2) == 0
					p.applyPFC(&pkt.Packet{Kind: pkt.KindPFC, PFCPriority: prio, PFCPause: pause})
					o.setPaused(prio, pause, eng.Now())
					everPaused = everPaused || pause
				case roll < 93:
					p.ForceResume(prio)
					o.setPaused(prio, false, eng.Now())
				default:
					// Any of the eight, never-carried priorities included.
					prio = rng.Intn(pkt.NumPriorities)
					if got, want := p.EvictTail(prio), o.evictTail(prio); got != want {
						fail(step, "evicted %v, want %v", got, want)
					}
				}

				if got, want := p.backloggedPriorities(), o.backlogged(); got != want {
					fail(step, "%d backlogged priorities, eight-way scan counts %d", got, want)
				}
				queues, backlog := 0, 0
				for i := 0; i < pkt.NumPriorities; i++ {
					backlog += o.queueBytes(i)
					if got, want := p.nonEmpty&(1<<uint(i)) != 0, len(o.queues[i]) > 0; got != want || p.QueuePackets(i) != len(o.queues[i]) {
						fail(step, "nonEmpty bit %d = %v with %d packets queued (oracle %d)", i, got, p.QueuePackets(i), len(o.queues[i]))
					}
					if got, want := p.QueueBytes(i), o.queueBytes(i); got != want {
						fail(step, "QueueBytes(%d) = %d, oracle %d", i, got, want)
					}
					if got, want := p.DrainRate(i), o.drainRate(i, rate); got != want {
						fail(step, "DrainRate(%d) = %d, oracle %d", i, got, want)
					}
					if p.Paused(i) != o.paused[i] {
						fail(step, "paused bit %d = %v, oracle %v", i, p.Paused(i), o.paused[i])
					}
					if got, want := p.PausedSince(i), o.pausedSince[i]; got != want {
						fail(step, "PausedSince(%d) = %v, oracle %v", i, got, want)
					}
					if got, want := p.CumPausedTime(i), o.cumPausedTime(i, eng.Now()); got != want {
						fail(step, "CumPausedTime(%d) = %v, oracle %v", i, got, want)
					}
					if (p.slot[i] != 0) != carried[i] {
						fail(step, "priority %d: queue slot %d, carried %v", i, p.slot[i], carried[i])
					}
					if carried[i] {
						queues++
					}
				}
				if len(p.queues) != queues || (p.pause != nil) != everPaused {
					fail(step, "port holds %d queues and pause clocks %v; the script has carried %d priorities and paused: %v",
						len(p.queues), p.pause != nil, queues, everPaused)
				}
				if got := p.TotalBacklog(); got != backlog {
					fail(step, "TotalBacklog = %d, oracle %d", got, backlog)
				}
				var deficit [pkt.NumPriorities]int
				var granted [pkt.NumPriorities]bool
				if p.dwrr != nil {
					deficit, granted = p.dwrr.deficit, p.dwrr.granted
				}
				if (p.dwrr != nil) != (o.quantum > 0) || p.rr != o.rr || deficit != o.deficit || granted != o.granted {
					fail(step, "scheduler state dwrr=%v rr=%d deficit=%v granted=%v, oracle quantum=%d rr=%d deficit=%v granted=%v",
						p.dwrr != nil, p.rr, deficit, granted, o.quantum, o.rr, o.deficit, o.granted)
				}
			}
			if queues := len(p.queues); queues != pkt.NumPriorities {
				t.Fatalf("quantum %d seed %d: the script carried only %d of eight priorities", quantum, seed, queues)
			}
		}
	}
}
