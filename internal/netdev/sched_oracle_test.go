package netdev

import (
	"fmt"
	"math/rand"
	"testing"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// schedOracle is the port as it was before Port kept its eligible set as a
// bitmask and its per-priority state behind first-use pointers: eight
// queues and eight pause clocks, all provisioned up front, and every
// decision walks all eight priorities and asks each queue for its length
// and pause state. It survives here as the reference the
// dense port is checked against.
type schedOracle struct {
	queues      [pkt.NumPriorities][]*pkt.Packet
	paused      [pkt.NumPriorities]bool
	pausedSince [pkt.NumPriorities]sim.Time
	cumPaused   [pkt.NumPriorities]sim.Duration
	rr          int
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

// TestSchedulerMasksMatchEightWayScan drives one port and the oracle with
// the same random script — enqueues, scheduling decisions, PFC pause and
// resume frames (redundant ones included), forced resumes, tail evictions,
// the clock moving in between. It requires the same packet from every
// decision and, after every step, the same answer from every per-priority accessor on
// all eight priorities, the same scheduler state, and that the port has
// allocated state only for what the script has used so far. The priorities
// enter the script one at a time in a random order, so each is queried as a
// never-carried priority first and takes its queue at a different slot per
// seed. The port's transmitter is held busy so that only the test takes
// scheduling decisions.
func TestSchedulerMasksMatchEightWayScan(t *testing.T) {
	const steps = 3000
	const rate = 25e9
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine(1)
		a := &captureNode{name: "a", eng: eng}
		b := &captureNode{name: "b", eng: eng}
		p, _ := Connect(eng, a, b, rate, 0)
		p.busy = true
		o := &schedOracle{}
		fail := func(step int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
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
			if p.rr != o.rr {
				fail(step, "round-robin pointer %d, oracle %d", p.rr, o.rr)
			}
		}
		if queues := len(p.queues); queues != pkt.NumPriorities {
			t.Fatalf("seed %d: the script carried only %d of eight priorities", seed, queues)
		}
	}
}
