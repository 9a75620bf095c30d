package dcqcn

import (
	"testing"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/transport"
)

// gbnEnv wires a go-back-N Sender and Receiver back-to-back through a
// droppable constant-delay channel: the loss patterns fault injection
// produces, without a fabric in between.
type gbnEnv struct {
	eng   *sim.Engine
	delay sim.Duration
	s     *Sender
	r     *Receiver
	// drop, when non-nil, vets every packet before the channel carries it;
	// returning true discards the packet.
	drop func(p *pkt.Packet) bool
}

var _ transport.Env = (*gbnEnv)(nil)

func (e *gbnEnv) Now() sim.Time      { return e.eng.Now() }
func (e *gbnEnv) NICBacklog(int) int { return 0 }
func (e *gbnEnv) Pool() *pkt.Pool    { return nil }

func (e *gbnEnv) Schedule(d sim.Duration, fn func()) sim.EventRef {
	return e.eng.Schedule(d, fn)
}

func (e *gbnEnv) Send(p *pkt.Packet) {
	if e.drop != nil && e.drop(p) {
		return
	}
	e.eng.Schedule(e.delay, func() {
		switch p.Kind {
		case pkt.KindData:
			e.r.HandleData(p)
		case pkt.KindAck:
			e.s.HandleAck(p.Seq)
		case pkt.KindNack:
			e.s.HandleNACK(p.Seq)
		}
	})
}

// newGBNPair builds a connected sender/receiver for a size-byte flow and
// reports receiver completion through the returned flag.
func newGBNPair(eng *sim.Engine, size int64) (*gbnEnv, *Sender, *Receiver, *bool) {
	cfg := DefaultConfig(25e9)
	cfg.GoBackN = true
	env := &gbnEnv{eng: eng, delay: 2 * sim.Microsecond}
	flow := &transport.Flow{
		ID: 7, Src: 0, Dst: 1, Size: size,
		Priority: pkt.PrioLossless, Class: pkt.ClassLossless,
	}
	s := NewSender(env, cfg, flow, nil)
	done := false
	r := NewReceiver(env, cfg, flow.ID, 1, 0, func(sim.Time) { done = true })
	env.s, env.r = s, r
	return env, s, r, &done
}

func TestGoBackNCleanFlowCompletesOnAck(t *testing.T) {
	eng := sim.NewEngine(1)
	_, s, r, done := newGBNPair(eng, 10*int64(pkt.MTUPayload))
	s.Start()
	eng.RunAll()

	if !*done || !r.Complete() {
		t.Fatal("receiver did not complete")
	}
	if !s.Done() {
		t.Fatal("sender did not complete on cumulative ACK")
	}
	if s.RetransmittedBytes != 0 || s.NACKsReceived != 0 || s.Timeouts != 0 {
		t.Errorf("clean run retransmitted: bytes=%d nacks=%d rtos=%d",
			s.RetransmittedBytes, s.NACKsReceived, s.Timeouts)
	}
	if r.Gaps() != 0 || r.NACKsSent != 0 {
		t.Errorf("clean run saw gaps=%d nacks=%d", r.Gaps(), r.NACKsSent)
	}
	if r.AcksSent == 0 {
		t.Error("no ACKs emitted")
	}
}

func TestGoBackNRecoversFromMidFlowLoss(t *testing.T) {
	eng := sim.NewEngine(1)
	env, s, r, done := newGBNPair(eng, 10*int64(pkt.MTUPayload))
	lossSeq := 3 * int64(pkt.MTUPayload)
	dropped := 0
	env.drop = func(p *pkt.Packet) bool {
		if p.Kind == pkt.KindData && p.Seq == lossSeq && dropped == 0 {
			dropped++
			return true
		}
		return false
	}
	s.Start()
	eng.RunAll()

	if dropped != 1 {
		t.Fatalf("dropped %d packets, want 1", dropped)
	}
	if !*done || !s.Done() {
		t.Fatal("flow did not recover from mid-flow loss")
	}
	if s.NACKsReceived == 0 {
		t.Error("sender took no NACK rewind")
	}
	if s.RetransmittedBytes == 0 {
		t.Error("recovery cost not accounted")
	}
	if r.Gaps() == 0 {
		t.Error("receiver observed no gap")
	}
}

func TestGoBackNRecoversFromLostFIN(t *testing.T) {
	eng := sim.NewEngine(1)
	env, s, _, done := newGBNPair(eng, 5*int64(pkt.MTUPayload))
	dropped := 0
	env.drop = func(p *pkt.Packet) bool {
		if p.Kind == pkt.KindData && p.FlowFin && dropped == 0 {
			dropped++
			return true
		}
		return false
	}
	s.Start()
	eng.RunAll()

	if !*done || !s.Done() {
		t.Fatal("flow did not recover from a lost FIN")
	}
	if s.Timeouts == 0 {
		t.Error("tail loss must be recovered by the retransmission timeout")
	}
}

func TestGoBackNRecoversFromLostFinalAck(t *testing.T) {
	eng := sim.NewEngine(1)
	env, s, r, done := newGBNPair(eng, 5*int64(pkt.MTUPayload))
	size := 5 * int64(pkt.MTUPayload)
	dropped := 0
	env.drop = func(p *pkt.Packet) bool {
		if p.Kind == pkt.KindAck && p.Seq == size && dropped == 0 {
			dropped++
			return true
		}
		return false
	}
	s.Start()
	eng.RunAll()

	if dropped != 1 {
		t.Fatalf("dropped %d final ACKs, want 1", dropped)
	}
	if !*done || !r.Complete() {
		t.Fatal("receiver should have completed before the ACK was lost")
	}
	if !s.Done() {
		t.Fatal("sender wedged on a lost final ACK: duplicate re-ACK resync failed")
	}
	if s.Timeouts == 0 {
		t.Error("recovery should have gone through the retransmission timeout")
	}
}

func TestGoBackNStaleNACKsAreIgnored(t *testing.T) {
	eng := sim.NewEngine(1)
	env, s, _, _ := newGBNPair(eng, 100*int64(pkt.MTUPayload))
	env.drop = func(p *pkt.Packet) bool { return p.Kind == pkt.KindData }
	s.Start()
	eng.Run(100 * sim.Microsecond) // emit a prefix of the flow

	mss := int64(pkt.MTUPayload)
	s.HandleNACK(5 * mss)
	if s.NACKsReceived != 1 {
		t.Fatalf("first NACK not taken: count=%d", s.NACKsReceived)
	}
	// Stale: asks for bytes below the rewind barrier set by the first NACK.
	s.HandleNACK(3 * mss)
	s.HandleNACK(5 * mss)
	if s.NACKsReceived != 1 {
		t.Errorf("stale NACKs taken: count=%d, want 1 (livelock guard broken)", s.NACKsReceived)
	}
}
