package dcqcn

import (
	"math/rand"
	"testing"
	"testing/quick"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// Property: under any interleaving of CNPs and timer expirations, the rate
// stays within [MinRate, LineRate], the target within [rate, LineRate], and
// α within [0, 1].
func TestSenderRateInvariantsUnderChaos(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine(seed)
		env := &fakeEnv{eng: eng}
		cfg := DefaultConfig(25e9)
		s := NewSender(env, cfg, rdmaFlow(1<<30), nil)
		s.Start()

		for i := 0; i < 300; i++ {
			switch rng.Intn(3) {
			case 0:
				s.HandleCNP()
			case 1:
				// Let some simulated time pass (timers fire).
				eng.Run(eng.Now() + sim.Duration(rng.Intn(1000))*sim.Microsecond)
			default:
				// CNP bursts.
				for j := 0; j < rng.Intn(5); j++ {
					s.HandleCNP()
				}
			}
			if s.rc < minRate || s.rc > float64(cfg.LineRate) {
				return false
			}
			if s.rt < s.rc || s.rt > float64(cfg.LineRate) {
				return false
			}
			if s.alpha < 0 || s.alpha > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: total payload handed to the NIC equals the flow size exactly,
// for any flow size and rate trajectory.
func TestSenderEmitsExactFlowSize(t *testing.T) {
	f := func(rawSize uint32, cnpEvery uint8) bool {
		size := int64(rawSize%500_000) + 1
		eng := sim.NewEngine(int64(rawSize))
		env := &fakeEnv{eng: eng}
		s := NewSender(env, DefaultConfig(25e9), rdmaFlow(size), nil)

		// Inject CNPs periodically via a timer to vary the rate.
		if cnpEvery > 0 {
			every := sim.Duration(cnpEvery) * sim.Microsecond
			var tick func()
			tick = func() {
				if s.Done() {
					return
				}
				s.HandleCNP()
				eng.Schedule(every, tick)
			}
			eng.Schedule(every, tick)
		}

		s.Start()
		eng.Run(10 * sim.Second)
		if !s.Done() {
			return false
		}
		var total int64
		for _, p := range env.sent {
			total += int64(p.PayloadLen)
		}
		return total == size && env.sent[len(env.sent)-1].FlowFin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: the receiver emits at most ceil(duration/cnpInterval)+1 CNPs no
// matter how many marked packets arrive.
func TestReceiverCNPBudget(t *testing.T) {
	f := func(seed int64, packets uint8) bool {
		eng := sim.NewEngine(seed)
		env := &fakeEnv{eng: eng}
		cfg := DefaultConfig(25e9)
		r := NewReceiver(env, cfg, 7, 1, 0, nil)

		n := int(packets)%200 + 1
		gap := 5 * sim.Microsecond // 10 packets per CNP interval
		for i := 0; i < n; i++ {
			p := pkt.NewData(7, 0, 1, pkt.PrioLossless, pkt.ClassLossless, int64(i)*1000, 1000)
			p.CE = true
			eng.Schedule(sim.Duration(i)*gap, func() { r.HandleData(p) })
		}
		eng.RunAll()

		span := sim.Duration(n-1) * gap
		budget := int(span/cnpInterval) + 1
		return len(env.sent) <= budget && len(env.sent) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
