// Package dcqcn implements the DCQCN congestion control (Zhu et al.,
// SIGCOMM 2015) used for the paper's lossless RDMA traffic: a rate-based
// reaction point (sender) that cuts its rate on Congestion Notification
// Packets and recovers through fast-recovery, additive-increase and
// hyper-increase stages, and a notification point (receiver) that emits at
// most one CNP per flow per interval when it sees CE-marked packets.
//
// Reliability: on a healthy fabric the network is lossless under PFC, so by
// default the endpoints track sequence continuity only to assert the
// zero-loss invariant. When Config.GoBackN is set (fault-injection runs), the
// endpoints instead implement RoCE-style go-back-N recovery: the receiver is
// strictly in-order, NACKs out-of-sequence arrivals (rate-limited) and emits
// cumulative ACKs; the sender keeps an unacknowledged mark, rewinds on NACK
// or retransmission timeout with exponential backoff, and completes only
// when every byte has been acknowledged.
package dcqcn

import (
	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/transport"
)

// Reaction- and notification-point parameters. The paper's evaluation runs
// DCQCN with one setting (§IV), so these are constants, not Config fields.
// Values follow the DCQCN paper and common ns-3 implementations; only the
// CNP gap (≤ 1 CNP per 50 µs per flow) is tied to a stated source so far.
const (
	// mss is the payload bytes per packet.
	mss = pkt.MTUPayload
	// minRate floors the current rate (bits/s).
	minRate = 40e6
	// g is the EWMA gain for α.
	g = 1.0 / 256
	// alphaTimer is the α-decay period when no CNP arrives.
	alphaTimer = 55 * sim.Microsecond
	// increaseTimer is the rate-increase timer period.
	increaseTimer = 300 * sim.Microsecond
	// byteCounter triggers a rate-increase event every so many sent bytes.
	byteCounter = 10 << 20
	// fastRecoveryRounds is F, the stage count spent in fast recovery.
	fastRecoveryRounds = 5
	// rateAI and rateHAI are the additive and hyper increase steps (bits/s).
	rateAI  = 40e6
	rateHAI = 200e6
	// cnpInterval is the NP-side minimum gap between CNPs per flow.
	cnpInterval = 50 * sim.Microsecond
	// nicGateBytes pauses the pacer while the NIC's lossless queue holds
	// more than this backlog (models the HW send queue's backpressure
	// under PFC pause).
	nicGateBytes = 64 << 10
)

// Go-back-N recovery parameters, read only when Config.GoBackN is set.
const (
	// ackInterval is how many in-order payload bytes the receiver lets
	// accumulate before emitting a cumulative ACK (a FIN always ACKs).
	ackInterval = 32 << 10
	// nackInterval rate-limits out-of-sequence NACKs per flow, so a burst
	// of in-flight packets behind one loss triggers one rewind, not many.
	nackInterval = 10 * sim.Microsecond
	// retxTimeout is the base retransmission timeout armed per
	// transmission; it recovers tail loss (including lost FIN or ACK).
	retxTimeout = 500 * sim.Microsecond
	// maxRetxBackoff caps the exponential timeout backoff multiplier.
	maxRetxBackoff = 16
)

// Config holds the two DCQCN settings a run varies: the NIC's line rate and
// whether loss recovery is on.
type Config struct {
	// LineRate is the NIC line rate (bits/s), the initial and maximum rate.
	LineRate int64
	// GoBackN enables RoCE-style loss recovery. Off by default: a healthy
	// PFC fabric never drops lossless packets, and the recovery machinery
	// (ACK traffic, timers) would perturb the paper's baseline runs. The
	// fault-injection harness turns it on.
	GoBackN bool
}

// DefaultConfig returns DCQCN parameters for a given NIC line rate.
func DefaultConfig(lineRate int64) Config {
	return Config{LineRate: lineRate}
}

// Sender is the DCQCN reaction point driving one RDMA flow.
type Sender struct {
	env  transport.Env
	cfg  Config
	flow *transport.Flow
	pool *pkt.Pool // cached env.Pool(); nil = heap allocation

	// Pre-bound timer bodies: method values allocate a closure at every
	// reference, and the pacer reschedules once per packet. Binding them
	// once here makes the whole paced send loop allocation-free.
	sendNextFn sim.Callback
	alphaFn    sim.Callback
	incFn      sim.Callback
	retxFn     sim.Callback

	rc    float64 // current rate, bits/s
	rt    float64 // target rate, bits/s
	alpha float64

	sent       int64 // payload bytes emitted
	byteCount  int64 // bytes since the last byte-counter event
	timerStage int   // increase-timer events since last cut
	byteStage  int   // byte-counter events since last cut
	cutSeen    bool  // a CNP has ever arrived

	alphaTimer sim.EventRef
	incTimer   sim.EventRef
	pacer      sim.EventRef

	// Go-back-N state, active only when cfg.GoBackN.
	sndUna        int64 // cumulative bytes acknowledged by the receiver
	rewindBarrier int64 // NACKs asking below this are stale; ignore them
	retxTimer     sim.EventRef
	retxBackoff   int

	done   bool
	onDone func()

	// CNPsReceived counts rate cuts taken.
	CNPsReceived uint64
	// NACKsReceived counts go-back-N rewinds taken on receiver NACKs.
	NACKsReceived uint64
	// Timeouts counts retransmission-timeout rewinds.
	Timeouts uint64
	// RetransmittedBytes totals payload bytes scheduled for re-emission by
	// rewinds (the recovery cost the fault experiments report).
	RetransmittedBytes int64
}

// NewSender builds a reaction point for flow. onDone, if non-nil, fires when
// the last payload byte has been handed to the NIC.
func NewSender(env transport.Env, cfg Config, flow *transport.Flow, onDone func()) *Sender {
	if err := flow.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.LineRate <= 0 {
		panic("dcqcn: invalid config")
	}
	s := &Sender{
		env:         env,
		cfg:         cfg,
		flow:        flow,
		pool:        env.Pool(),
		rc:          float64(cfg.LineRate),
		rt:          float64(cfg.LineRate),
		alpha:       1,
		retxBackoff: 1,
		onDone:      onDone,
	}
	s.sendNextFn = s.sendNext
	s.alphaFn = s.onAlphaTimer
	s.incFn = s.onIncreaseTimer
	s.retxFn = s.onRetxTimeout
	return s
}

// Rate returns the current sending rate in bits/s (for tests).
func (s *Sender) Rate() float64 { return s.rc }

// Alpha returns the current congestion estimate (for tests).
func (s *Sender) Alpha() float64 { return s.alpha }

// Done reports sender-side completion.
func (s *Sender) Done() bool { return s.done }

// Start begins paced transmission at line rate.
func (s *Sender) Start() {
	s.sendNext()
}

// sendNext emits one packet and schedules the next according to the current
// rate, gating on NIC backlog so a PFC-paused port does not accumulate an
// unbounded software queue.
func (s *Sender) sendNext() {
	if s.done {
		return
	}
	if s.env.NICBacklog(s.flow.Priority) > nicGateBytes {
		s.pacer = s.env.Schedule(sim.TxTime(pkt.MTUBytes, s.cfg.LineRate), s.sendNextFn)
		return
	}

	payload := mss
	if rem := s.flow.Size - s.sent; rem < int64(payload) {
		payload = int(rem)
	}
	p := s.pool.Data(s.flow.ID, s.flow.Src, s.flow.Dst, s.flow.Priority, s.flow.Class, s.sent, payload)
	p.FlowFin = s.sent+int64(payload) == s.flow.Size
	p.SentAt = s.env.Now()
	sentSize := p.Size // captured before Send: ownership moves to the NIC
	s.env.Send(p)
	s.sent += int64(payload)
	if s.cfg.GoBackN {
		// Each transmission restarts the tail-loss timer: it only fires
		// retxTimeout after the *last* emission without full acknowledgement.
		s.armRetx()
	}

	s.byteCount += int64(sentSize)
	if s.byteCount >= byteCounter {
		s.byteCount = 0
		s.byteStage++
		s.increase()
	}

	if s.sent >= s.flow.Size {
		if s.cfg.GoBackN {
			// All bytes emitted, not yet all acknowledged: stay alive and
			// let the ACK path (or the retx timer) decide what happens.
			return
		}
		s.finish()
		return
	}
	gap := sim.TxTime(sentSize, int64(s.rc))
	s.pacer = s.env.Schedule(gap, s.sendNextFn)
}

// HandleAck advances the cumulative acknowledgement mark. Fresh progress
// resets the timeout backoff; acknowledging the last byte completes the
// sender.
func (s *Sender) HandleAck(cum int64) {
	if s.done || !s.cfg.GoBackN || cum <= s.sndUna {
		return
	}
	s.sndUna = cum
	s.retxBackoff = 1
	if s.sndUna >= s.flow.Size {
		s.finish()
		return
	}
	s.armRetx()
}

// HandleNACK rewinds transmission to the receiver's expected byte. The
// rewind barrier makes the rewind monotone: stale NACKs for bytes an earlier
// rewind already covers (still in flight when the receiver recovered) are
// ignored, so a NACK storm cannot livelock retransmission.
func (s *Sender) HandleNACK(expected int64) {
	if s.done || !s.cfg.GoBackN {
		return
	}
	if expected < s.rewindBarrier {
		return
	}
	s.rewindBarrier = expected + 1
	if expected > s.sndUna {
		s.sndUna = expected
	}
	s.NACKsReceived++
	s.retxBackoff = 1
	s.rewind(expected)
}

// armRetx (re)arms the retransmission timeout while unacknowledged bytes
// are outstanding.
func (s *Sender) armRetx() {
	s.retxTimer.Cancel()
	if s.done || s.sndUna >= s.sent {
		return
	}
	s.retxTimer = s.env.Schedule(retxTimeout*sim.Duration(s.retxBackoff), s.retxFn)
}

func (s *Sender) onRetxTimeout() {
	if s.done || s.sndUna >= s.sent {
		return
	}
	s.Timeouts++
	if s.retxBackoff < maxRetxBackoff {
		s.retxBackoff *= 2
	}
	s.rewind(s.sndUna)
}

// rewind restarts transmission from byte `to`, charging the re-covered span
// to RetransmittedBytes and re-entering the paced send loop immediately.
func (s *Sender) rewind(to int64) {
	if to < 0 || to >= s.sent {
		s.armRetx()
		return
	}
	s.RetransmittedBytes += s.sent - to
	s.sent = to
	s.byteCount = 0
	s.pacer.Cancel()
	s.sendNext()
}

// HandleCNP is the reaction-point cut: α jumps toward 1, the target rate
// remembers the pre-cut rate, and the current rate drops by α/2.
func (s *Sender) HandleCNP() {
	if s.done {
		return
	}
	s.CNPsReceived++
	s.alpha = (1-g)*s.alpha + g
	s.rt = s.rc
	s.rc *= 1 - s.alpha/2
	s.clampRates()

	// Reset the recovery machinery.
	s.timerStage, s.byteStage = 0, 0
	s.byteCount = 0
	s.cutSeen = true
	s.restartTimers()
}

// restartTimers (re)arms the α-decay and rate-increase timers.
func (s *Sender) restartTimers() {
	s.alphaTimer.Cancel()
	s.incTimer.Cancel()
	s.alphaTimer = s.env.Schedule(alphaTimer, s.alphaFn)
	s.incTimer = s.env.Schedule(increaseTimer, s.incFn)
}

func (s *Sender) onAlphaTimer() {
	if s.done {
		return
	}
	s.alpha *= 1 - g
	s.alphaTimer = s.env.Schedule(alphaTimer, s.alphaFn)
}

func (s *Sender) onIncreaseTimer() {
	if s.done {
		return
	}
	s.timerStage++
	s.increase()
	s.incTimer = s.env.Schedule(increaseTimer, s.incFn)
}

// increase applies one rate-increase event: fast recovery halves the gap to
// the target; once either stage counter passes F the target itself grows
// (additively, or hyper when both counters are past F).
func (s *Sender) increase() {
	if !s.cutSeen {
		// Never cut: already at line rate.
		return
	}
	f := fastRecoveryRounds
	maxStage := s.timerStage
	if s.byteStage > maxStage {
		maxStage = s.byteStage
	}
	minStage := s.timerStage
	if s.byteStage < minStage {
		minStage = s.byteStage
	}
	switch {
	case maxStage <= f: // fast recovery
	case minStage > f: // hyper increase
		s.rt += rateHAI
	default: // additive increase
		s.rt += rateAI
	}
	s.rc = (s.rt + s.rc) / 2
	s.clampRates()
}

func (s *Sender) clampRates() {
	if s.rc < minRate {
		s.rc = minRate
	}
	if s.rc > float64(s.cfg.LineRate) {
		s.rc = float64(s.cfg.LineRate)
	}
	if s.rt > float64(s.cfg.LineRate) {
		s.rt = float64(s.cfg.LineRate)
	}
	if s.rt < s.rc {
		s.rt = s.rc
	}
}

func (s *Sender) finish() {
	s.done = true
	s.alphaTimer.Cancel()
	s.incTimer.Cancel()
	s.pacer.Cancel()
	s.retxTimer.Cancel()
	if s.onDone != nil {
		s.onDone()
	}
}

// Receiver is the DCQCN notification point for one flow: it reflects CE
// marks as rate-limited CNPs and detects flow completion.
type Receiver struct {
	env    transport.Env
	pool   *pkt.Pool // cached env.Pool(); nil = heap allocation
	flowID pkt.FlowID
	host   int
	peer   int
	cfg    Config

	recvNxt  int64
	gaps     uint64
	lastCNP  sim.Time
	sentCNP  bool
	complete bool
	onDone   func(at sim.Time)

	// Go-back-N state, active only when cfg.GoBackN.
	lastNACK   sim.Time
	sentNACK   bool
	lastAcked  int64
	lastDupAck sim.Time
	sentDupAck bool

	// NACKsSent counts out-of-sequence NACKs emitted (rate-limited).
	NACKsSent uint64
	// AcksSent counts cumulative ACKs emitted.
	AcksSent uint64
}

// NewReceiver builds a notification point; onDone fires when the flow's
// last byte arrives.
func NewReceiver(env transport.Env, cfg Config, flowID pkt.FlowID, host, peer int, onDone func(at sim.Time)) *Receiver {
	return &Receiver{
		env:    env,
		pool:   env.Pool(),
		cfg:    cfg,
		flowID: flowID,
		host:   host,
		peer:   peer,
		onDone: onDone,
	}
}

// Complete reports whether the last byte arrived.
func (r *Receiver) Complete() bool { return r.complete }

// Gaps counts sequence discontinuities observed — nonzero only if the
// lossless guarantee was violated upstream.
func (r *Receiver) Gaps() uint64 { return r.gaps }

// HandleData processes one arriving RDMA packet.
func (r *Receiver) HandleData(p *pkt.Packet) {
	if p.CE {
		now := r.env.Now()
		if !r.sentCNP || now-r.lastCNP >= cnpInterval {
			r.sentCNP = true
			r.lastCNP = now
			r.env.Send(r.pool.CNP(r.flowID, r.host, r.peer))
		}
	}

	if r.cfg.GoBackN {
		r.handleDataGBN(p)
		return
	}

	if p.Seq != r.recvNxt {
		r.gaps++
	}
	if p.End() > r.recvNxt {
		r.recvNxt = p.End()
	}

	if p.FlowFin && !r.complete && r.gaps == 0 {
		r.complete = true
		if r.onDone != nil {
			r.onDone(r.env.Now())
		}
	}
}

// Received returns the highest in-order byte offset delivered so far. Under
// go-back-N delivery is strictly contiguous; in clean (loss-free) runs the
// lossless class never reorders, so the value is contiguous there too.
func (r *Receiver) Received() int64 { return r.recvNxt }

// handleDataGBN is the strictly in-order receive path: out-of-sequence
// packets are discarded and NACKed (rate-limited), in-order progress is
// acknowledged cumulatively every ackInterval bytes and on FIN, and the flow
// completes when the FIN arrives in order — gaps count recovered loss
// events, not permanent damage.
func (r *Receiver) handleDataGBN(p *pkt.Packet) {
	if p.Seq > r.recvNxt {
		// A loss upstream left a hole: ask the sender to rewind.
		r.gaps++
		now := r.env.Now()
		if !r.sentNACK || now-r.lastNACK >= nackInterval {
			r.sentNACK = true
			r.lastNACK = now
			r.NACKsSent++
			r.env.Send(r.pool.Nack(r.flowID, r.host, r.peer, r.recvNxt))
		}
		return
	}
	if p.End() <= r.recvNxt {
		// Duplicate from a rewind that overshot or a lost ACK: re-ACK
		// (rate-limited) so the sender can resynchronize — without this a
		// lost final ACK would leave the sender retransmitting forever.
		now := r.env.Now()
		if !r.sentDupAck || now-r.lastDupAck >= nackInterval {
			r.sentDupAck = true
			r.lastDupAck = now
			r.AcksSent++
			r.env.Send(r.pool.Ack(r.flowID, r.host, r.peer, r.recvNxt, false))
		}
		return
	}
	r.recvNxt = p.End()

	if p.FlowFin || r.recvNxt-r.lastAcked >= ackInterval {
		r.lastAcked = r.recvNxt
		r.AcksSent++
		r.env.Send(r.pool.Ack(r.flowID, r.host, r.peer, r.recvNxt, false))
	}

	if p.FlowFin && !r.complete {
		r.complete = true
		if r.onDone != nil {
			r.onDone(r.env.Now())
		}
	}
}
