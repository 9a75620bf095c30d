package dctcp

import (
	"testing"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/transport"
)

// fakeEnv captures sent packets and drives timers off a real engine.
type fakeEnv struct {
	eng     *sim.Engine
	sent    []*pkt.Packet
	backlog int
}

var _ transport.Env = (*fakeEnv)(nil)

func (e *fakeEnv) Now() sim.Time      { return e.eng.Now() }
func (e *fakeEnv) Send(p *pkt.Packet) { e.sent = append(e.sent, p) }
func (e *fakeEnv) NICBacklog(int) int { return e.backlog }
func (e *fakeEnv) Pool() *pkt.Pool    { return nil }
func (e *fakeEnv) Schedule(d sim.Duration, fn func()) sim.EventRef {
	return e.eng.Schedule(d, fn)
}

func newFlow(size int64) *transport.Flow {
	return &transport.Flow{
		ID:       1,
		Src:      0,
		Dst:      1,
		Size:     size,
		Priority: pkt.PrioLossy,
		Class:    pkt.ClassLossy,
	}
}

func ackFor(f *transport.Flow, cum int64, ece bool) *pkt.Packet {
	return pkt.NewAck(f.ID, f.Dst, f.Src, cum, ece)
}

func TestSenderInitialWindow(t *testing.T) {
	env := &fakeEnv{eng: sim.NewEngine(1)}
	f := newFlow(1 << 20)
	s := NewSender(env, DefaultConfig(), f, nil)
	s.Start()

	if got := len(env.sent); got != 10 {
		t.Fatalf("initial burst = %d segments, want 10 (IW)", got)
	}
	for i, p := range env.sent {
		if p.Seq != int64(i*pkt.MTUPayload) {
			t.Errorf("segment %d has seq %d", i, p.Seq)
		}
		if p.Kind != pkt.KindData || p.Class != pkt.ClassLossy {
			t.Errorf("segment %d wrong kind/class", i)
		}
	}
}

func TestSenderSlowStartGrowth(t *testing.T) {
	env := &fakeEnv{eng: sim.NewEngine(1)}
	f := newFlow(1 << 20)
	s := NewSender(env, DefaultConfig(), f, nil)
	s.Start()
	before := s.Cwnd()

	// Ack the first 5 segments: slow start adds the acked bytes.
	s.HandleAck(ackFor(f, 5*int64(pkt.MTUPayload), false))
	if want := before + 5*float64(pkt.MTUPayload); s.Cwnd() != want {
		t.Errorf("cwnd = %v, want %v", s.Cwnd(), want)
	}
}

func TestSenderECNCutOncePerWindow(t *testing.T) {
	env := &fakeEnv{eng: sim.NewEngine(1)}
	cfg := DefaultConfig()
	f := newFlow(1 << 20)
	s := NewSender(env, cfg, f, nil)
	s.Start()

	sentEnd := int64(10 * pkt.MTUPayload)
	// All 10 initial segments acked with ECE. Crossing winEnd=0 happens on
	// the first ACK, so α updates from the first window's feedback.
	for cum := int64(pkt.MTUPayload); cum <= sentEnd; cum += int64(pkt.MTUPayload) {
		s.HandleAck(ackFor(f, cum, true))
	}
	if s.Alpha() <= 0 {
		t.Error("α should grow after marked window")
	}
	if s.Cwnd() >= float64(initCwndSegments*cfg.MSS)+float64(sentEnd) {
		t.Error("cwnd should have been cut below pure slow-start growth")
	}
}

func TestSenderAlphaConvergesUnderFullMarking(t *testing.T) {
	env := &fakeEnv{eng: sim.NewEngine(1)}
	f := newFlow(64 << 20)
	s := NewSender(env, DefaultConfig(), f, nil)
	s.Start()

	// Drive many fully marked windows: α → 1.
	for i := 0; i < 2000 && !s.Done(); i++ {
		cum := s.sndUna + int64(pkt.MTUPayload)
		if cum > f.Size {
			cum = f.Size
		}
		s.HandleAck(ackFor(f, cum, true))
	}
	if s.Alpha() < 0.5 {
		t.Errorf("α = %v after persistent marking, want near 1", s.Alpha())
	}
}

func TestSenderFastRetransmitOnTripleDup(t *testing.T) {
	env := &fakeEnv{eng: sim.NewEngine(1)}
	f := newFlow(1 << 20)
	s := NewSender(env, DefaultConfig(), f, nil)
	s.Start()
	sentBefore := len(env.sent)
	cwndBefore := s.Cwnd()

	// Segment 0 lost: three dup ACKs at cum=0... cum must equal sndUna.
	for i := 0; i < 3; i++ {
		s.HandleAck(ackFor(f, 0, false))
	}
	if s.Retransmissions != 1 {
		t.Fatalf("retransmissions = %d, want 1", s.Retransmissions)
	}
	// The retransmitted segment is seq 0.
	var resent *pkt.Packet
	for _, p := range env.sent[sentBefore:] {
		if p.Seq == 0 {
			resent = p
		}
	}
	if resent == nil {
		t.Fatal("segment 0 was not retransmitted")
	}
	if s.Cwnd() >= cwndBefore {
		t.Errorf("cwnd = %v, want reduced below %v", s.Cwnd(), cwndBefore)
	}
}

func TestSenderRTORecovers(t *testing.T) {
	eng := sim.NewEngine(1)
	env := &fakeEnv{eng: eng}
	cfg := DefaultConfig()
	f := newFlow(10 * int64(pkt.MTUPayload))
	s := NewSender(env, cfg, f, nil)
	s.Start()
	sentBefore := len(env.sent)

	// No ACKs arrive: the RTO must fire and go-back-N.
	eng.Run(minRTO + sim.Microsecond)
	if s.Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", s.Timeouts)
	}
	if len(env.sent) <= sentBefore {
		t.Fatal("no retransmission after RTO")
	}
	if env.sent[sentBefore].Seq != 0 {
		t.Errorf("first retransmission seq = %d, want 0", env.sent[sentBefore].Seq)
	}
	if s.Cwnd() != float64(cfg.MSS) {
		t.Errorf("cwnd after RTO = %v, want 1 MSS", s.Cwnd())
	}

	// Backoff doubles: second RTO fires 2·minRTO later.
	prevTimeouts := s.Timeouts
	eng.Run(eng.Now() + minRTO + sim.Microsecond)
	if s.Timeouts != prevTimeouts {
		t.Error("second RTO fired too early (no backoff)")
	}
	eng.Run(eng.Now() + minRTO + sim.Microsecond)
	if s.Timeouts != prevTimeouts+1 {
		t.Error("second RTO did not fire after backoff interval")
	}
}

func TestSenderCompletion(t *testing.T) {
	env := &fakeEnv{eng: sim.NewEngine(1)}
	f := newFlow(2500) // 3 segments: 1000+1000+500
	doneAt := sim.Time(-1)
	s := NewSender(env, DefaultConfig(), f, func() { doneAt = env.Now() })
	s.Start()

	if len(env.sent) != 3 {
		t.Fatalf("sent %d segments, want 3", len(env.sent))
	}
	if !env.sent[2].FlowFin || env.sent[2].PayloadLen != 500 {
		t.Error("last segment should be the 500-byte FIN")
	}
	s.HandleAck(ackFor(f, 2500, false))
	if !s.Done() || doneAt < 0 {
		t.Error("sender did not complete on full ACK")
	}
	// RTO must be disarmed: advancing far must not retransmit.
	env.eng.Run(sim.Second)
	if s.Timeouts != 0 {
		t.Error("RTO fired after completion")
	}
}

func TestReceiverInOrderAndEcho(t *testing.T) {
	env := &fakeEnv{eng: sim.NewEngine(1)}
	var completed sim.Time = -1
	r := NewReceiver(env, 1, 1, 0, func(at sim.Time) { completed = at })

	p1 := pkt.NewData(1, 0, 1, pkt.PrioLossy, pkt.ClassLossy, 0, 1000)
	p1.CE = true
	r.HandleData(p1)
	if len(env.sent) != 1 || env.sent[0].Kind != pkt.KindAck {
		t.Fatal("no ACK emitted")
	}
	if env.sent[0].Seq != 1000 || !env.sent[0].ECE {
		t.Errorf("ACK cum/ECE = %d/%v, want 1000/true", env.sent[0].Seq, env.sent[0].ECE)
	}

	p2 := pkt.NewData(1, 0, 1, pkt.PrioLossy, pkt.ClassLossy, 1000, 500)
	p2.FlowFin = true
	r.HandleData(p2)
	if !r.Complete() || completed < 0 {
		t.Error("receiver did not complete")
	}
	if env.sent[1].Seq != 1500 || env.sent[1].ECE {
		t.Errorf("final ACK cum/ECE = %d/%v, want 1500/false", env.sent[1].Seq, env.sent[1].ECE)
	}
}

func TestReceiverOutOfOrderReassembly(t *testing.T) {
	env := &fakeEnv{eng: sim.NewEngine(1)}
	r := NewReceiver(env, 1, 1, 0, nil)

	seg := func(seq int64, fin bool) *pkt.Packet {
		p := pkt.NewData(1, 0, 1, pkt.PrioLossy, pkt.ClassLossy, seq, 1000)
		p.FlowFin = fin
		return p
	}
	// Arrivals: 0, 2000, 3000(fin), then the hole at 1000.
	r.HandleData(seg(0, false))
	r.HandleData(seg(2000, false))
	r.HandleData(seg(3000, true))
	if r.Complete() {
		t.Fatal("completed with a hole outstanding")
	}
	if env.sent[2].Seq != 1000 {
		t.Errorf("dup ACK cum = %d, want 1000", env.sent[2].Seq)
	}
	r.HandleData(seg(1000, false))
	if !r.Complete() {
		t.Fatal("did not complete after hole filled")
	}
	if got := env.sent[3].Seq; got != 4000 {
		t.Errorf("final cum = %d, want 4000", got)
	}
	if r.Received() != 4000 {
		t.Errorf("Received() = %d, want 4000", r.Received())
	}
}

func TestReceiverDuplicateDataIdempotent(t *testing.T) {
	env := &fakeEnv{eng: sim.NewEngine(1)}
	done := 0
	r := NewReceiver(env, 1, 1, 0, func(sim.Time) { done++ })
	p := pkt.NewData(1, 0, 1, pkt.PrioLossy, pkt.ClassLossy, 0, 1000)
	p.FlowFin = true
	r.HandleData(p)
	r.HandleData(p)
	if done != 1 {
		t.Errorf("completion fired %d times, want 1", done)
	}
	if r.Received() != 1000 {
		t.Errorf("Received() = %d after duplicate, want 1000", r.Received())
	}
}

func TestSenderConfigValidation(t *testing.T) {
	env := &fakeEnv{eng: sim.NewEngine(1)}
	t.Run("bad flow", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		NewSender(env, DefaultConfig(), newFlow(0), nil)
	})
	t.Run("bad config", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		cfg := DefaultConfig()
		cfg.MSS = 0
		NewSender(env, cfg, newFlow(1000), nil)
	})
}
