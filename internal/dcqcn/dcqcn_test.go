package dcqcn

import (
	"math"
	"testing"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/transport"
)

type fakeEnv struct {
	eng     *sim.Engine
	sent    []*pkt.Packet
	sentAt  []sim.Time
	backlog int
}

var _ transport.Env = (*fakeEnv)(nil)

func (e *fakeEnv) Now() sim.Time      { return e.eng.Now() }
func (e *fakeEnv) NICBacklog(int) int { return e.backlog }
func (e *fakeEnv) Pool() *pkt.Pool    { return nil }

func (e *fakeEnv) Send(p *pkt.Packet) {
	e.sent = append(e.sent, p)
	e.sentAt = append(e.sentAt, e.eng.Now())
}

func (e *fakeEnv) Schedule(d sim.Duration, fn func()) sim.EventRef {
	return e.eng.Schedule(d, fn)
}

func rdmaFlow(size int64) *transport.Flow {
	return &transport.Flow{
		ID:       7,
		Src:      0,
		Dst:      1,
		Size:     size,
		Priority: pkt.PrioLossless,
		Class:    pkt.ClassLossless,
	}
}

func TestSenderPacesAtLineRate(t *testing.T) {
	eng := sim.NewEngine(1)
	env := &fakeEnv{eng: eng}
	cfg := DefaultConfig(25e9)
	s := NewSender(env, cfg, rdmaFlow(10*int64(pkt.MTUPayload)), nil)
	s.Start()
	eng.RunAll()

	if len(env.sent) != 10 {
		t.Fatalf("sent %d packets, want 10", len(env.sent))
	}
	gap := sim.TxTime(pkt.MTUBytes, 25e9)
	for i := 1; i < 10; i++ {
		if got := env.sentAt[i] - env.sentAt[i-1]; got != gap {
			t.Errorf("gap %d = %v, want %v", i, got, gap)
		}
	}
	if !env.sent[9].FlowFin {
		t.Error("last packet missing FIN")
	}
	if !s.Done() {
		t.Error("sender not done")
	}
}

func TestSenderCNPCutsRateByHalfInitially(t *testing.T) {
	eng := sim.NewEngine(1)
	env := &fakeEnv{eng: eng}
	cfg := DefaultConfig(25e9)
	s := NewSender(env, cfg, rdmaFlow(100<<20), nil)
	s.Start()

	// α starts at 1 and g is small, so the first CNP cuts by ≈ 1/2.
	s.HandleCNP()
	alpha := (1-g)*1 + g
	expected := 25e9 * (1 - alpha/2)
	if math.Abs(s.Rate()-expected) > 1 {
		t.Errorf("rate after first CNP = %v, want %v", s.Rate(), expected)
	}
	if s.CNPsReceived != 1 {
		t.Errorf("CNPsReceived = %d, want 1", s.CNPsReceived)
	}
}

func TestSenderRepeatedCNPsApproachMinRate(t *testing.T) {
	eng := sim.NewEngine(1)
	env := &fakeEnv{eng: eng}
	cfg := DefaultConfig(25e9)
	s := NewSender(env, cfg, rdmaFlow(100<<20), nil)
	s.Start()
	for i := 0; i < 200; i++ {
		s.HandleCNP()
	}
	if s.Rate() != minRate {
		t.Errorf("rate = %v after 200 CNPs, want clamp at minRate %v", s.Rate(), minRate)
	}
}

func TestSenderAlphaDecaysWithoutCNPs(t *testing.T) {
	eng := sim.NewEngine(1)
	env := &fakeEnv{eng: eng}
	cfg := DefaultConfig(25e9)
	s := NewSender(env, cfg, rdmaFlow(100<<20), nil)
	s.Start()
	s.HandleCNP()
	a0 := s.Alpha()

	eng.Run(eng.Now() + 10*alphaTimer + sim.Microsecond)
	if s.Alpha() >= a0 {
		t.Errorf("α did not decay: %v -> %v", a0, s.Alpha())
	}
}

func TestSenderFastRecoveryHalvesGapToTarget(t *testing.T) {
	eng := sim.NewEngine(1)
	env := &fakeEnv{eng: eng}
	cfg := DefaultConfig(25e9)
	s := NewSender(env, cfg, rdmaFlow(100<<20), nil)
	s.Start()
	s.HandleCNP()
	rc0, rt0 := s.rc, s.rt

	// One increase-timer event: fast recovery, rc = (rt+rc)/2, rt fixed.
	eng.Run(eng.Now() + increaseTimer + sim.Microsecond)
	if math.Abs(s.rc-(rt0+rc0)/2) > 1 {
		t.Errorf("rc after FR = %v, want %v", s.rc, (rt0+rc0)/2)
	}
	if s.rt != rt0 {
		t.Errorf("rt changed during fast recovery: %v -> %v", rt0, s.rt)
	}
}

func TestSenderAdditiveIncreaseRaisesTarget(t *testing.T) {
	eng := sim.NewEngine(1)
	env := &fakeEnv{eng: eng}
	cfg := DefaultConfig(25e9)
	s := NewSender(env, cfg, rdmaFlow(100<<20), nil)
	s.Start()
	// Two cuts leave the target rate well below line rate, so additive
	// increase has room to raise it.
	s.HandleCNP()
	s.HandleCNP()
	rt0 := s.rt

	// F+2 timer events: past fast recovery, target must have grown.
	eng.Run(eng.Now() + sim.Duration(fastRecoveryRounds+2)*increaseTimer + sim.Microsecond)
	if s.rt <= rt0 {
		t.Errorf("rt = %v after additive stages, want > %v", s.rt, rt0)
	}
}

func TestSenderRecoversTowardLineRate(t *testing.T) {
	eng := sim.NewEngine(1)
	env := &fakeEnv{eng: eng}
	cfg := DefaultConfig(25e9)
	s := NewSender(env, cfg, rdmaFlow(1<<30), nil)
	s.Start()
	for i := 0; i < 10; i++ {
		s.HandleCNP()
	}
	low := s.Rate()
	// Long quiet period: hyper increase should drive the rate back up.
	eng.Run(eng.Now() + 100*sim.Millisecond)
	if s.Rate() <= low*2 {
		t.Errorf("rate = %v after recovery period, want well above %v", s.Rate(), low)
	}
	if s.Rate() > 25e9 {
		t.Errorf("rate = %v exceeds line rate", s.Rate())
	}
}

func TestSenderNICGateDefersPacing(t *testing.T) {
	eng := sim.NewEngine(1)
	env := &fakeEnv{eng: eng, backlog: 1 << 20} // NIC jammed
	cfg := DefaultConfig(25e9)
	s := NewSender(env, cfg, rdmaFlow(10*int64(pkt.MTUPayload)), nil)
	s.Start()
	eng.Run(10 * sim.Microsecond)
	if len(env.sent) != 0 {
		t.Fatalf("sent %d packets despite jammed NIC, want 0", len(env.sent))
	}
	env.backlog = 0
	eng.RunAll()
	if len(env.sent) != 10 {
		t.Errorf("sent %d packets after gate cleared, want 10", len(env.sent))
	}
}

func TestReceiverCNPRateLimit(t *testing.T) {
	eng := sim.NewEngine(1)
	env := &fakeEnv{eng: eng}
	cfg := DefaultConfig(25e9)
	r := NewReceiver(env, cfg, 7, 1, 0, nil)

	ce := func(seq int64) *pkt.Packet {
		p := pkt.NewData(7, 0, 1, pkt.PrioLossless, pkt.ClassLossless, seq, 1000)
		p.CE = true
		return p
	}
	r.HandleData(ce(0))
	r.HandleData(ce(1000)) // within 50 µs: suppressed
	if len(env.sent) != 1 {
		t.Fatalf("CNPs = %d, want 1 (rate limited)", len(env.sent))
	}
	eng.Run(cnpInterval + sim.Microsecond)
	r.HandleData(ce(2000))
	if len(env.sent) != 2 {
		t.Errorf("CNPs = %d after interval, want 2", len(env.sent))
	}
	if env.sent[0].Kind != pkt.KindCNP {
		t.Error("emitted packet is not a CNP")
	}
}

func TestReceiverUnmarkedDataNoCNP(t *testing.T) {
	eng := sim.NewEngine(1)
	env := &fakeEnv{eng: eng}
	r := NewReceiver(env, DefaultConfig(25e9), 7, 1, 0, nil)
	p := pkt.NewData(7, 0, 1, pkt.PrioLossless, pkt.ClassLossless, 0, 1000)
	r.HandleData(p)
	if len(env.sent) != 0 {
		t.Error("CNP emitted for unmarked data")
	}
}

func TestReceiverCompletionAndGapDetection(t *testing.T) {
	eng := sim.NewEngine(1)
	env := &fakeEnv{eng: eng}
	var done sim.Time = -1
	r := NewReceiver(env, DefaultConfig(25e9), 7, 1, 0, func(at sim.Time) { done = at })

	seg := func(seq int64, fin bool) *pkt.Packet {
		p := pkt.NewData(7, 0, 1, pkt.PrioLossless, pkt.ClassLossless, seq, 1000)
		p.FlowFin = fin
		return p
	}
	r.HandleData(seg(0, false))
	r.HandleData(seg(1000, true))
	if !r.Complete() || done < 0 {
		t.Error("in-order flow did not complete")
	}
	if r.Gaps() != 0 {
		t.Errorf("gaps = %d on clean flow, want 0", r.Gaps())
	}

	// A second receiver sees a hole: no completion, gap counted.
	r2 := NewReceiver(env, DefaultConfig(25e9), 8, 1, 0, nil)
	r2.HandleData(seg(0, false))
	r2.HandleData(seg(2000, true)) // 1000..2000 missing
	if r2.Complete() {
		t.Error("flow with a gap must not complete")
	}
	if r2.Gaps() != 1 {
		t.Errorf("gaps = %d, want 1", r2.Gaps())
	}
}

func TestSenderValidation(t *testing.T) {
	env := &fakeEnv{eng: sim.NewEngine(1)}
	t.Run("bad flow", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		NewSender(env, DefaultConfig(25e9), rdmaFlow(0), nil)
	})
	t.Run("bad config", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("want panic")
			}
		}()
		cfg := DefaultConfig(25e9)
		cfg.LineRate = 0
		NewSender(env, cfg, rdmaFlow(1000), nil)
	})
}

func TestSenderShortFlowSinglePacket(t *testing.T) {
	eng := sim.NewEngine(1)
	env := &fakeEnv{eng: eng}
	done := false
	s := NewSender(env, DefaultConfig(25e9), rdmaFlow(300), func() { done = true })
	s.Start()
	eng.RunAll()
	if len(env.sent) != 1 || env.sent[0].PayloadLen != 300 || !env.sent[0].FlowFin {
		t.Errorf("short flow emitted %d packets", len(env.sent))
	}
	if !done {
		t.Error("onDone not fired")
	}
}
