package netdev

import (
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

// schedOracle is the scheduler as it was before Port kept its eligible set
// as a bitmask: every decision walks all eight priorities and asks each
// queue for its length and pause state. It survives here as the reference
// the mask-based scheduler is checked against.
type schedOracle struct {
	queues  [pkt.NumPriorities][]*pkt.Packet
	paused  [pkt.NumPriorities]bool
	rr      int
	quantum int
	deficit [pkt.NumPriorities]int
	granted [pkt.NumPriorities]bool
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
// resume frames, forced resumes, tail evictions — under packet round robin
// and under DWRR, and requires the same packet from every decision and the
// same scheduler state after every step. The port's transmitter is held
// busy so that only the test takes scheduling decisions.
func TestSchedulerMasksMatchEightWayScan(t *testing.T) {
	for _, quantum := range []int{0, 600, 1500} {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			eng := sim.NewEngine(1)
			a := &captureNode{name: "a", eng: eng}
			b := &captureNode{name: "b", eng: eng}
			p, _ := Connect(eng, a, b, 25e9, 0)
			p.EnableDWRR(quantum)
			p.busy = true
			o := &schedOracle{quantum: quantum}

			// Most traffic lands on few priorities so queues keep emptying.
			pickPrio := func() int {
				if rng.Intn(4) > 0 {
					return rng.Intn(3)
				}
				return rng.Intn(pkt.NumPriorities)
			}
			for step := 0; step < 3000; step++ {
				prio := pickPrio()
				switch roll := rng.Intn(100); {
				case roll < 35:
					q := data(prio, 40+rng.Intn(1400))
					p.Enqueue(q)
					o.queues[prio] = append(o.queues[prio], q)
				case roll < 75:
					if got, want := p.nextPacket(), o.next(); got != want {
						t.Fatalf("quantum %d seed %d step %d: scheduled %v, eight-way scan picks %v", quantum, seed, step, got, want)
					}
				case roll < 90:
					pause := rng.Intn(2) == 0
					p.applyPFC(&pkt.Packet{Kind: pkt.KindPFC, PFCPriority: prio, PFCPause: pause})
					o.paused[prio] = pause
				case roll < 93:
					p.ForceResume(prio)
					o.paused[prio] = false
				default:
					if got, want := p.EvictTail(prio), o.evictTail(prio); got != want {
						t.Fatalf("quantum %d seed %d step %d: evicted %v, want %v", quantum, seed, step, got, want)
					}
				}

				if got, want := p.backloggedPriorities(), o.backlogged(); got != want {
					t.Fatalf("quantum %d seed %d step %d: %d backlogged priorities, eight-way scan counts %d", quantum, seed, step, got, want)
				}
				for i := 0; i < pkt.NumPriorities; i++ {
					if got, want := p.nonEmpty&(1<<uint(i)) != 0, len(o.queues[i]) > 0; got != want || p.QueuePackets(i) != len(o.queues[i]) {
						t.Fatalf("quantum %d seed %d step %d: nonEmpty bit %d = %v with %d packets queued (oracle %d)", quantum, seed, step, i, got, p.QueuePackets(i), len(o.queues[i]))
					}
					if p.Paused(i) != o.paused[i] {
						t.Fatalf("quantum %d seed %d step %d: paused bit %d = %v, oracle %v", quantum, seed, step, i, p.Paused(i), o.paused[i])
					}
				}
				if p.rr != o.rr || p.deficit != o.deficit || p.granted != o.granted {
					t.Fatalf("quantum %d seed %d step %d: scheduler state rr=%d deficit=%v granted=%v, oracle rr=%d deficit=%v granted=%v",
						quantum, seed, step, p.rr, p.deficit, p.granted, o.rr, o.deficit, o.granted)
				}
			}
		}
	}
}
