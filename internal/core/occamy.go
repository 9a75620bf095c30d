package core

import "l2bm/internal/pkt"

// Evictor is the MMU capability a preemptive policy needs: the ability to
// remove already-admitted lossy bytes from an egress queue. It is
// implemented by switchsim.Switch; policies receive it only inside a
// Preempt call, never retain it.
type Evictor interface {
	// EvictLossyTail removes packets from the TAIL of lossy egress queue
	// (port, prio) — most recently admitted first, so the packets that
	// benefited from a stale high threshold are the first to go — until at
	// least want bytes are freed or the queue has no evictable packet
	// left. It returns the bytes actually freed (0 when the queue is
	// empty, holds no lossy data, or the priority is not a lossy class).
	// Evicted bytes count as drops in the MMU's conservation ledger.
	EvictLossyTail(port, prio int, want int64) int64
}

// PreemptivePolicy is the optional capability interface behind Occamy's
// preemption: the MMU type-asserts its policy once at construction, and
// policies that do not implement it (DT, DT2, ABM, L2BM, ...) run the
// admission path completely untouched.
type PreemptivePolicy interface {
	Policy
	// Preempt is invoked by the MMU when lossy packet p, arriving on
	// ingress port in and bound for egress port out, failed an admission
	// threshold check. The policy may evict already-admitted lossy bytes
	// through ev to make room. Returning true tells the MMU that state
	// changed and the admission decision should be re-evaluated exactly
	// once; returning false drops p immediately.
	Preempt(s StateView, ev Evictor, p *pkt.Packet, in, out int) bool
}

// Occamy reimplements the preemptive shared-memory buffer management of
// Occamy (Danfeng Shan et al., arXiv 2501.13570). Its thresholds are plain
// DT on both pools; the novelty is what happens when a packet fails
// admission. Under DT, thresholds fall as the buffer fills, so bytes
// admitted earlier (when thresholds were high) can legally occupy more
// than the *current* threshold allows — stranding newly arriving packets
// of lightly loaded queues. Occamy preempts: it evicts already-admitted
// bytes from the tail of the lossy egress queue most over its present
// threshold, freeing pool space (which raises every threshold) and retries
// the admission. The eviction shows up as a drop for the victim flow —
// trading loss in an already-over-budget queue for admission of a packet
// the current thresholds say deserves the space.
type Occamy struct{}

// occamyMaxVictims bounds how many distinct victim queues one Preempt call
// may drain (each round re-scans for the currently most over-threshold
// queue).
const occamyMaxVictims = 4

// NewOccamy returns Occamy with the evaluation defaults: the common
// α = 0.5 on both pools and up to occamyMaxVictims victim queues per
// preemption.
func NewOccamy() *Occamy { return &Occamy{} }

// Name implements Policy.
func (o *Occamy) Name() string { return "Occamy" }

// IngressThreshold implements Policy: plain DT.
func (o *Occamy) IngressThreshold(s StateView, _, _ int) int64 {
	return ingressDT(s, AlphaDT2)
}

// EgressThreshold implements Policy: egress-pool DT.
func (o *Occamy) EgressThreshold(s StateView, _, prio int) int64 {
	return egressDT(s, prio, AlphaEgress)
}

// OnEnqueue implements Policy; Occamy's thresholds are stateless (the
// preemption decision reads MMU state directly).
func (o *Occamy) OnEnqueue(StateView, *pkt.Packet) {}

// OnDequeue implements Policy.
func (o *Occamy) OnDequeue(StateView, *pkt.Packet) {}

// Preempt implements PreemptivePolicy. Victim selection is deterministic:
// scan every lossy egress queue in (port, prio) order, pick the one with
// the largest positive excess over its current DT threshold, evict at most
// that excess from its tail, and repeat (re-scanning, since each eviction
// moves every threshold) until the arriving packet's size is covered or no
// queue remains over threshold. The arriving packet's own target queue is
// never a victim — evicting it to admit into it would be a wash.
func (o *Occamy) Preempt(s StateView, ev Evictor, p *pkt.Packet, _, out int) bool {
	if ClassOfPriority(p.Priority) != pkt.ClassLossy {
		return false
	}
	need := int64(p.Size)
	var freed int64
	for round := 0; round < occamyMaxVictims && freed < need; round++ {
		bestPort, bestPrio, bestExcess := -1, -1, int64(0)
		for port := 0; port < s.NumPorts(); port++ {
			for prio := 0; prio < pkt.NumPriorities; prio++ {
				if ClassOfPriority(prio) != pkt.ClassLossy {
					continue
				}
				if port == out && prio == p.Priority {
					continue
				}
				excess := s.EgressQueueBytes(port, prio) - o.EgressThreshold(s, port, prio)
				if excess > bestExcess {
					bestPort, bestPrio, bestExcess = port, prio, excess
				}
			}
		}
		if bestPort < 0 {
			break
		}
		want := need - freed
		if want > bestExcess {
			want = bestExcess
		}
		got := ev.EvictLossyTail(bestPort, bestPrio, want)
		if got == 0 {
			break
		}
		freed += got
	}
	return freed > 0
}
