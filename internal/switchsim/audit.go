package switchsim

import (
	"fmt"

	"l2bm/internal/core"
	"l2bm/internal/pkt"
)

// CheckInvariants audits the MMU's internal consistency and returns the
// first violation found, or nil. It is O(ports × priorities) and intended
// for tests and debugging runs, where it is called between events; the
// conditions it checks must hold at every event boundary:
//
//  1. no counter is negative;
//  2. sharedUsed equals the summed over-reserve ingress usage;
//  3. each egress class pool equals the sum of its queues' counters;
//  4. resident equals total ingress + headroom bytes, and also total
//     egress bytes (every resident packet is counted once on each side);
//  5. the per-priority congested-queue census matches the counters;
//  6. a paused ingress queue is lossless (only lossless queues send PFC);
//  7. no headroom counter exceeds the configured per-queue headroom pool
//     (admission enforces the cap; a counter past it means some path
//     charged headroom without the check).
func (s *Switch) CheckInvariants() error {
	var ingSum, hrSum, egSum, sharedSum int64
	var poolSum [4]int64
	var congested [pkt.NumPriorities]int

	for port := range s.ports {
		for prio := 0; prio < pkt.NumPriorities; prio++ {
			c := s.mmu.at(port, prio)
			ing, eg, hr := c.ing, c.eg, c.hr
			if ing < 0 || eg < 0 || hr < 0 {
				return fmt.Errorf("switch %s: negative counter at (%d,%d): ing=%d eg=%d hr=%d",
					s.name, port, prio, ing, eg, hr)
			}
			if hr > s.cfg.HeadroomPerQueue {
				return fmt.Errorf("switch %s: headroom (%d,%d)=%d exceeds per-queue pool %d",
					s.name, port, prio, hr, s.cfg.HeadroomPerQueue)
			}
			ingSum += ing
			hrSum += hr
			egSum += eg
			sharedSum += sharedPart(ing, s.cfg.ReservedPerQueue)
			poolSum[int(core.ClassOfPriority(prio))] += eg
			if eg > congestionMark {
				congested[prio]++
			}
			if s.mmu.pausedOn(port, prio) && core.ClassOfPriority(prio) != pkt.ClassLossless {
				return fmt.Errorf("switch %s: non-lossless queue (%d,%d) is PFC-paused",
					s.name, port, prio)
			}
		}
	}

	if sharedSum != s.mmu.sharedUsed {
		return fmt.Errorf("switch %s: sharedUsed=%d, recomputed %d", s.name, s.mmu.sharedUsed, sharedSum)
	}
	if got := ingSum + hrSum; got != s.mmu.resident {
		return fmt.Errorf("switch %s: resident=%d, ingress+headroom=%d", s.name, s.mmu.resident, got)
	}
	if egSum != s.mmu.resident {
		return fmt.Errorf("switch %s: resident=%d, egress sum=%d", s.name, s.mmu.resident, egSum)
	}
	for c := 1; c <= 3; c++ {
		if poolSum[c] != s.mmu.poolUsed[c] {
			return fmt.Errorf("switch %s: pool[%v]=%d, recomputed %d",
				s.name, pkt.Class(c), s.mmu.poolUsed[c], poolSum[c])
		}
	}
	for prio := 0; prio < pkt.NumPriorities; prio++ {
		if congested[prio] != s.mmu.congested[prio] {
			return fmt.Errorf("switch %s: congested[%d]=%d, recomputed %d",
				s.name, prio, s.mmu.congested[prio], congested[prio])
		}
	}
	return nil
}

// SkewSharedUsedForTest corrupts the MMU's shared-pool counter by delta
// bytes WITHOUT touching the per-queue counters it is derived from — the
// seeded accounting bug TestAuditorCatchesSeededSkew plants to prove the
// invariant auditor catches real conservation violations. Production code
// must never call this.
func (s *Switch) SkewSharedUsedForTest(delta int64) {
	s.mmu.sharedUsed += delta
	s.mmu.version++
}

// MMUVersion returns a counter that moves whenever any MMU state
// CheckInvariants reads is written. Two reads returning the same value
// bracket an interval in which CheckInvariants' verdict cannot have
// changed.
func (s *Switch) MMUVersion() uint64 { return s.mmu.version }

// CheckDrained audits that the MMU is fully quiescent — the state every
// switch must reach after all traffic has drained, even across faults
// (carrier loss, corrupted frames, lost pause frames). It subsumes
// CheckInvariants and additionally requires every counter to be exactly
// zero and every PFC pause released:
//
//  1. the internal-consistency invariants hold (CheckInvariants);
//  2. resident, sharedUsed and every class pool are zero;
//  3. every per-queue ingress/egress/headroom counter is zero;
//  4. no ingress queue is still PFC-paused (a leaked pause would wedge the
//     upstream forever);
//  5. the congested census is zero for every priority.
//
// A non-nil error means buffer bytes or control state leaked: some path
// (a drop site, a fault-recovery path, a dequeue) updated one side of the
// accounting but not the other.
func (s *Switch) CheckDrained() error {
	if err := s.CheckInvariants(); err != nil {
		return err
	}
	if s.mmu.resident != 0 {
		return fmt.Errorf("switch %s: resident=%d after drain, want 0", s.name, s.mmu.resident)
	}
	if s.mmu.sharedUsed != 0 {
		return fmt.Errorf("switch %s: sharedUsed=%d after drain, want 0", s.name, s.mmu.sharedUsed)
	}
	for c := 1; c <= 3; c++ {
		if s.mmu.poolUsed[c] != 0 {
			return fmt.Errorf("switch %s: pool[%v]=%d after drain, want 0",
				s.name, pkt.Class(c), s.mmu.poolUsed[c])
		}
	}
	for port := range s.ports {
		for prio := 0; prio < pkt.NumPriorities; prio++ {
			c := s.mmu.at(port, prio)
			if v := c.ing; v != 0 {
				return fmt.Errorf("switch %s: ingress (%d,%d)=%d after drain, want 0", s.name, port, prio, v)
			}
			if v := c.eg; v != 0 {
				return fmt.Errorf("switch %s: egress (%d,%d)=%d after drain, want 0", s.name, port, prio, v)
			}
			if v := c.hr; v != 0 {
				return fmt.Errorf("switch %s: headroom (%d,%d)=%d after drain, want 0", s.name, port, prio, v)
			}
			if s.mmu.pausedOn(port, prio) {
				return fmt.Errorf("switch %s: ingress (%d,%d) still PFC-paused after drain", s.name, port, prio)
			}
		}
	}
	for prio := 0; prio < pkt.NumPriorities; prio++ {
		if s.mmu.congested[prio] != 0 {
			return fmt.Errorf("switch %s: congested[%d]=%d after drain, want 0", s.name, prio, s.mmu.congested[prio])
		}
	}
	return nil
}
