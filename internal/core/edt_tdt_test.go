package core

import (
	"testing"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
)

func TestEDTNormalMatchesDT(t *testing.T) {
	s := newFakeState()
	s.pool[pkt.ClassLossy] = 1 << 20
	e := NewEDT()
	want := egressDT(s, pkt.PrioLossy, AlphaEgress)
	if got := e.EgressThreshold(s, 0, pkt.PrioLossy); got != want {
		t.Errorf("normal-state threshold = %d, want DT %d", got, want)
	}
	if e.State(0, pkt.PrioLossy) != "normal" {
		t.Error("queue should start normal")
	}
}

func TestEDTAbsorbsWhenDTWouldDrop(t *testing.T) {
	s := newFakeState()
	e := NewEDT()
	key := [2]int{0, pkt.PrioLossy}

	dt := egressDT(s, pkt.PrioLossy, AlphaEgress)
	// Queue reaches the DT threshold while growing: absorption.
	s.qout[key] = dt / 2
	e.EgressThreshold(s, 0, pkt.PrioLossy) // observe growth
	s.qout[key] = dt + 1000
	got := e.EgressThreshold(s, 0, pkt.PrioLossy)
	if e.State(0, pkt.PrioLossy) != "absorb" {
		t.Fatalf("state = %s, want absorb", e.State(0, pkt.PrioLossy))
	}
	if got <= dt {
		t.Errorf("absorbing threshold %d should exceed DT %d", got, dt)
	}
}

func TestEDTEvacuatesAfterBurst(t *testing.T) {
	s := newFakeState()
	e := NewEDT()
	key := [2]int{0, pkt.PrioLossy}
	dt := egressDT(s, pkt.PrioLossy, AlphaEgress)

	s.qout[key] = dt / 2
	e.EgressThreshold(s, 0, pkt.PrioLossy)
	s.qout[key] = dt + 10_000
	e.EgressThreshold(s, 0, pkt.PrioLossy) // absorb

	// Queue stops growing: evacuation with a tightened threshold.
	s.qout[key] = dt + 5_000
	got := e.EgressThreshold(s, 0, pkt.PrioLossy)
	if e.State(0, pkt.PrioLossy) != "evacuate" {
		t.Fatalf("state = %s, want evacuate", e.State(0, pkt.PrioLossy))
	}
	if want := int64(edtEvacuateFactor * float64(dt)); got != want {
		t.Errorf("evacuating threshold = %d, want %d", got, want)
	}

	// Queue drains below the tightened bar: back to normal.
	s.qout[key] = int64(edtEvacuateFactor*float64(dt)) - 1000
	e.EgressThreshold(s, 0, pkt.PrioLossy)
	if e.State(0, pkt.PrioLossy) != "normal" {
		t.Errorf("state = %s, want normal after drain", e.State(0, pkt.PrioLossy))
	}
}

func TestEDTIngressIsDT2(t *testing.T) {
	s := newFakeState()
	s.used = 1 << 20
	want := NewDT2().IngressThreshold(s, 0, 0)
	if got := NewEDT().IngressThreshold(s, 0, 0); got != want {
		t.Errorf("EDT ingress = %d, want DT2's %d", got, want)
	}
}

func TestTDTNormalMatchesDT(t *testing.T) {
	s := newFakeState()
	td := NewTDT()
	want := egressDT(s, pkt.PrioLossy, AlphaEgress)
	if got := td.EgressThreshold(s, 0, pkt.PrioLossy); got != want {
		t.Errorf("normal threshold = %d, want %d", got, want)
	}
}

func TestTDTAbsorbsOnBurstWithFreeBuffer(t *testing.T) {
	s := newFakeState()
	td := NewTDT()
	key := [2]int{0, pkt.PrioLossy}

	s.qout[key] = 0
	td.EgressThreshold(s, 0, pkt.PrioLossy) // window anchor at len 0
	// Rapid growth within the window, buffer nearly empty: absorb.
	s.qout[key] = tdtBurstBytes + 1000
	got := td.EgressThreshold(s, 0, pkt.PrioLossy)
	if td.State(0, pkt.PrioLossy) != "absorb" {
		t.Fatalf("state = %s, want absorb", td.State(0, pkt.PrioLossy))
	}
	want := egressDT(s, pkt.PrioLossy, AlphaEgress*tdtAbsorbBoost)
	if got != want {
		t.Errorf("absorb threshold = %d, want %d", got, want)
	}
}

func TestTDTNoAbsorptionWhenBufferTight(t *testing.T) {
	s := newFakeState()
	td := NewTDT()
	key := [2]int{0, pkt.PrioLossy}
	s.used = s.total - s.total/8 // only 12.5% free < FreeFraction 25%

	s.qout[key] = 0
	td.EgressThreshold(s, 0, pkt.PrioLossy)
	s.qout[key] = tdtBurstBytes * 2
	td.EgressThreshold(s, 0, pkt.PrioLossy)
	if td.State(0, pkt.PrioLossy) != "normal" {
		t.Errorf("state = %s, want normal (no free buffer)", td.State(0, pkt.PrioLossy))
	}
}

func TestTDTEvacuatesWhenBurstCrests(t *testing.T) {
	s := newFakeState()
	td := NewTDT()
	key := [2]int{0, pkt.PrioLossy}

	s.qout[key] = 0
	td.EgressThreshold(s, 0, pkt.PrioLossy)
	s.qout[key] = tdtBurstBytes + 1000
	td.EgressThreshold(s, 0, pkt.PrioLossy) // absorb
	// Length falls: crest passed -> evacuate.
	s.qout[key] -= 2000
	got := td.EgressThreshold(s, 0, pkt.PrioLossy)
	if td.State(0, pkt.PrioLossy) != "evacuate" {
		t.Fatalf("state = %s, want evacuate", td.State(0, pkt.PrioLossy))
	}
	want := egressDT(s, pkt.PrioLossy, AlphaEgress*tdtEvacuateCut)
	if got != want {
		t.Errorf("evacuate threshold = %d, want %d", got, want)
	}

	// Drain under the normal share: back to normal.
	s.qout[key] = 100
	td.EgressThreshold(s, 0, pkt.PrioLossy)
	if td.State(0, pkt.PrioLossy) != "normal" {
		t.Errorf("state = %s, want normal", td.State(0, pkt.PrioLossy))
	}
}

func TestTDTWindowResets(t *testing.T) {
	s := newFakeState()
	td := NewTDT()
	key := [2]int{0, pkt.PrioLossy}

	s.qout[key] = 0
	td.EgressThreshold(s, 0, pkt.PrioLossy)
	// Slow growth across many windows must not trigger absorption.
	for i := 0; i < 10; i++ {
		s.now += tdtBurstWindow + sim.Microsecond
		s.qout[key] += tdtBurstBytes / 4
		td.EgressThreshold(s, 0, pkt.PrioLossy)
	}
	if td.State(0, pkt.PrioLossy) != "normal" {
		t.Errorf("slow growth misclassified as burst: %s", td.State(0, pkt.PrioLossy))
	}
}

func TestEDTAndTDTHooksTrackState(t *testing.T) {
	s := newFakeState()
	e := NewEDT()
	td := NewTDT()
	p := admit(0, pkt.PrioLossy, 3)
	// Hooks must not panic and must observe the egress queue.
	e.OnEnqueue(s, p)
	e.OnDequeue(s, p)
	td.OnEnqueue(s, p)
	td.OnDequeue(s, p)
	if e.Name() != "EDT" || td.Name() != "TDT" {
		t.Error("names wrong")
	}
}

// TDT leaves evacuation once the queue is back under its normal share: the
// Normal-mode threshold, over the queue's class pool. With the other class
// holding shared buffer, a bar measured against the whole shared pool is
// lower, and a queue between the two bars would stay in evacuation.
func TestTDTEvacuationExitsAtNormalShare(t *testing.T) {
	s := newFakeState()
	td := NewTDT()
	key := [2]int{0, pkt.PrioLossy}

	s.qout[key] = 0
	td.EgressThreshold(s, 0, pkt.PrioLossy)
	s.qout[key] = tdtBurstBytes + 1000
	td.EgressThreshold(s, 0, pkt.PrioLossy) // absorb
	s.qout[key] -= 2000
	td.EgressThreshold(s, 0, pkt.PrioLossy) // crest: evacuate
	if td.State(0, pkt.PrioLossy) != "evacuate" {
		t.Fatalf("state = %s, want evacuate", td.State(0, pkt.PrioLossy))
	}

	// Lossless traffic holds most of the shared pool; the lossy pool is
	// light. The queue sits above α_n·(B − SharedUsed) but under its
	// normal share α_n·(B − EgressPoolUsed(lossy)).
	s.used = 3 << 20
	s.pool[pkt.ClassLossy] = 1 << 20
	normal := egressDT(s, pkt.PrioLossy, AlphaEgress)
	wholePool := int64(AlphaEgress * float64(s.total-s.used))
	s.qout[key] = (wholePool + normal) / 2
	td.EgressThreshold(s, 0, pkt.PrioLossy)
	if td.State(0, pkt.PrioLossy) != "normal" {
		t.Errorf("queue at %d B, under its normal share %d B: state = %s, want normal",
			s.qout[key], normal, td.State(0, pkt.PrioLossy))
	}
}
