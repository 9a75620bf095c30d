package dctcp

import (
	"fmt"
	"math/rand"
	"testing"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

// mapReceiver is the reassembly the Receiver used before it kept sorted
// ranges — one map entry per out-of-order segment, folded into the prefix by
// a whole-map fixpoint — kept as the oracle the range list is checked
// against. Only the reassembly and its two outputs (the cumulative ACK and
// the completion instant) are modelled.
type mapReceiver struct {
	recvNxt  int64
	ooo      map[int64]int64 // seq -> end
	expected int64
	complete bool
	doneAt   sim.Time
}

func (r *mapReceiver) handleData(now sim.Time, p *pkt.Packet) (cumAck int64) {
	if p.FlowFin && p.End() > r.expected {
		r.expected = p.End()
	}
	if p.Seq <= r.recvNxt {
		if p.End() > r.recvNxt {
			r.recvNxt = p.End()
		}
		for progressed := true; progressed; {
			progressed = false
			for seq, end := range r.ooo {
				if seq <= r.recvNxt {
					if end > r.recvNxt {
						r.recvNxt = end
					}
					delete(r.ooo, seq)
					progressed = true
				}
			}
		}
	} else if end, ok := r.ooo[p.Seq]; !ok || p.End() > end {
		r.ooo[p.Seq] = p.End()
	}
	if !r.complete && r.expected > 0 && r.recvNxt >= r.expected {
		r.complete = true
		r.doneAt = now
	}
	return r.recvNxt
}

// arrivals builds a hostile arrival sequence for one flow: every MSS
// segment one to three times, segments cut short, segments that straddle
// their neighbours, all shuffled — so the FIN usually lands early — and,
// one time in four, with some segments never delivered at all.
func arrivals(rng *rand.Rand) []*pkt.Packet {
	const mss = int64(pkt.MTUPayload)
	size := int64(5+rng.Intn(60))*mss - int64(rng.Intn(int(mss)))
	lossy := rng.Intn(4) == 0

	var out []*pkt.Packet
	add := func(seq, end int64) {
		if end > size {
			end = size
		}
		if end <= seq {
			return
		}
		p := pkt.NewData(1, 0, 1, pkt.PrioLossy, pkt.ClassLossy, seq, int(end-seq))
		p.FlowFin = end == size
		p.CE = rng.Intn(5) == 0
		out = append(out, p)
	}
	for seq := int64(0); seq < size; seq += mss {
		if lossy && rng.Intn(6) == 0 {
			continue
		}
		for copies := 1 + rng.Intn(3); copies > 0; copies-- {
			add(seq, seq+mss)
		}
		switch rng.Intn(4) {
		case 0: // a partial segment: same start, shorter
			add(seq, seq+1+rng.Int63n(mss))
		case 1: // an overlapping one: starts inside this segment, ends inside a later one
			add(seq+1+rng.Int63n(mss-1), seq+mss+rng.Int63n(2*mss))
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Differential property: the range-list Receiver and the map oracle see the
// same packets at the same instants and must agree after every one of them
// on Received(), on the ACK sent (cumulative sequence and ECN echo) and, at
// the end, on whether and when the flow completed.
func TestReceiverMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		env := &fakeEnv{eng: sim.NewEngine(seed)}
		var doneAt sim.Time
		dones := 0
		r := NewReceiver(env, 1, 1, 0, func(at sim.Time) { doneAt = at; dones++ })
		oracle := &mapReceiver{ooo: make(map[int64]int64)}

		for i, p := range arrivals(rng) {
			i, p := i, p
			env.eng.Schedule(sim.Duration(i+1)*sim.Microsecond, func() {
				want := oracle.handleData(env.Now(), p)
				r.HandleData(p)
				ack := env.sent[len(env.sent)-1]
				if r.Received() != want || ack.Seq != want || ack.ECE != p.CE {
					t.Fatalf("seed %d packet %d [%d,%d): Received() = %d, ack{cum=%d ece=%v}; oracle cum = %d, ce = %v",
						seed, i, p.Seq, p.End(), r.Received(), ack.Seq, ack.ECE, want, p.CE)
				}
				for k := 1; k < len(r.ooo); k++ {
					if r.ooo[k-1].end >= r.ooo[k].seq {
						t.Fatalf("seed %d packet %d: ranges %v not sorted, disjoint and non-touching", seed, i, r.ooo)
					}
				}
			})
		}
		env.eng.RunAll()

		if r.Complete() != oracle.complete || (oracle.complete && (doneAt != oracle.doneAt || dones != 1)) {
			t.Fatalf("seed %d: complete = %v at %v (%d callbacks), oracle = %v at %v",
				seed, r.Complete(), doneAt, dones, oracle.complete, oracle.doneAt)
		}
		if oracle.complete && len(r.ooo) != 0 {
			t.Fatalf("seed %d: complete flow still buffers %v", seed, r.ooo)
		}
	}
}

// BenchmarkReceiverOOOBacklog is HandleData during loss recovery: in-order
// segments arrive below a standing backlog of out-of-order segments (one in
// sixteen of them missing, so the backlog has holes of its own) that a
// first hole keeps from merging. The cost per packet must not grow with the
// backlog.
func BenchmarkReceiverOOOBacklog(b *testing.B) {
	for _, backlog := range []int{128, 2048} {
		b.Run(fmt.Sprint(backlog), func(b *testing.B) {
			env := &recycleEnv{fakeEnv{eng: sim.NewEngine(1)}, pkt.NewPool()}
			r := NewReceiver(env, 1, 1, 0, nil)
			const far = int64(1) << 40
			for k := 0; k < backlog; k++ {
				if k%16 == 15 {
					continue
				}
				r.HandleData(pkt.NewData(1, 0, 1, pkt.PrioLossy, pkt.ClassLossy, far+int64(k)*pkt.MTUPayload, pkt.MTUPayload))
			}
			p := pkt.NewData(1, 0, 1, pkt.PrioLossy, pkt.ClassLossy, 0, pkt.MTUPayload)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Seq = int64(i) * pkt.MTUPayload
				r.HandleData(p)
			}
		})
	}
}

// recycleEnv is fakeEnv with a NIC that hands every ACK straight back to a
// packet pool, so the benchmark times reassembly rather than a growing
// capture slice and an allocation per ACK.
type recycleEnv struct {
	fakeEnv
	pool *pkt.Pool
}

func (e *recycleEnv) Send(p *pkt.Packet) { e.pool.Put(p) }
func (e *recycleEnv) Pool() *pkt.Pool    { return e.pool }
