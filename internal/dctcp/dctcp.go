// Package dctcp implements the DCTCP transport (Alizadeh et al., SIGCOMM
// 2010) used for the paper's lossy TCP traffic: window-based congestion
// control whose window reduction is proportional to the fraction of
// ECN-marked bytes, with fast retransmit and retransmission timeouts for
// loss recovery.
//
// Simplifications versus a production stack, all documented in DESIGN.md:
// per-packet ACKs with an accurate per-packet ECN echo (DCTCP's delayed-ACK
// echo state machine collapses to this at delayed-ACK factor 1), and
// byte-counted windows.
package dctcp

import (
	"math"
	"sort"

	"l2bm/internal/pkt"
	"l2bm/internal/sim"
	"l2bm/internal/transport"
)

// Config parameterizes DCTCP endpoints.
type Config struct {
	// MSS is the payload bytes per segment.
	MSS int
	// InitCwndSegments is the initial window in segments.
	InitCwndSegments int
	// G is DCTCP's EWMA gain g for the marked-fraction estimate.
	G float64
	// MinRTO is the floor of the retransmission timeout.
	MinRTO sim.Duration
	// MaxRTOBackoff caps exponential RTO backoff (as a multiplier).
	MaxRTOBackoff int
}

// DefaultConfig returns the DCTCP parameters used in the evaluation
// (g = 1/16 per the DCTCP paper; 1 ms RTO floor, a common datacenter
// setting).
func DefaultConfig() Config {
	return Config{
		MSS:              pkt.MTUPayload,
		InitCwndSegments: 10,
		G:                1.0 / 16,
		MinRTO:           sim.Millisecond,
		MaxRTOBackoff:    32,
	}
}

// Sender drives one DCTCP flow.
type Sender struct {
	env  transport.Env
	cfg  Config
	flow *transport.Flow
	pool *pkt.Pool // cached env.Pool(); nil = heap allocation

	// rtoFn is s.onRTO bound once: a method value allocates a closure at
	// every reference, and armRTO runs once per ACK on the hot path.
	rtoFn sim.Callback

	cwnd     float64 // bytes
	ssthresh float64
	sndUna   int64
	sndNxt   int64
	dupAcks  int

	alpha       float64
	ackedBytes  int64
	markedBytes int64
	winEnd      int64 // alpha-update / once-per-RTT-cut boundary

	inRecovery bool
	recoverEnd int64

	rto        sim.EventRef
	rtoBackoff int
	maxSent    int64 // highest byte ever emitted, for retransmit accounting
	done       bool
	onDone     func()

	// Retransmissions counts retransmitted segments (fast + timeout).
	Retransmissions uint64
	// Timeouts counts RTO firings.
	Timeouts uint64
	// RetransmittedBytes totals payload bytes re-emitted below the
	// high-water mark (fast retransmits and RTO rewinds).
	RetransmittedBytes int64
}

// NewSender builds a sender for flow. onDone, if non-nil, fires when every
// byte has been cumulatively acknowledged (sender-side completion; flow
// completion for metrics purposes is reported by the receiver).
func NewSender(env transport.Env, cfg Config, flow *transport.Flow, onDone func()) *Sender {
	if err := flow.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.MSS <= 0 || cfg.G <= 0 || cfg.G > 1 {
		panic("dctcp: invalid config")
	}
	s := &Sender{
		env:        env,
		cfg:        cfg,
		flow:       flow,
		pool:       env.Pool(),
		cwnd:       float64(cfg.InitCwndSegments * cfg.MSS),
		ssthresh:   float64(flow.Size), // effectively unbounded slow start
		alpha:      0,
		rtoBackoff: 1,
		onDone:     onDone,
	}
	s.rtoFn = s.onRTO
	return s
}

// Cwnd returns the current congestion window in bytes (for tests).
func (s *Sender) Cwnd() float64 { return s.cwnd }

// Alpha returns the current marked-fraction estimate (for tests).
func (s *Sender) Alpha() float64 { return s.alpha }

// Done reports sender-side completion.
func (s *Sender) Done() bool { return s.done }

// Warm hands the sender an established congestion state before Start: the
// window is set to cwnd bytes (floored at one MSS) and ssthresh is pulled
// down to match, so growth continues in congestion avoidance rather than
// slow start. The marked-fraction estimate is seeded with the DCTCP
// sawtooth equilibrium α ≈ sqrt(2·MSS/cwnd) — a warmed sender with α = 0
// would shrug off its first rounds of ECN marks and bully established
// flows sharing the queue. The hybrid-fidelity driver uses this when
// re-injecting a flow that was mid-transfer in the fluid layer — such a
// flow's window opened long ago, and restarting it cold would understate
// the queue pressure it exerts.
func (s *Sender) Warm(cwnd float64) {
	if cwnd < float64(s.cfg.MSS) {
		cwnd = float64(s.cfg.MSS)
	}
	s.cwnd = cwnd
	s.ssthresh = cwnd
	s.alpha = math.Sqrt(2 * float64(s.cfg.MSS) / cwnd)
	if s.alpha > 1 {
		s.alpha = 1
	}
}

// Start begins transmission.
func (s *Sender) Start() {
	s.winEnd = 0
	s.trySend()
}

// trySend emits as many segments as the window allows.
func (s *Sender) trySend() {
	if s.done {
		return
	}
	for s.sndNxt < s.flow.Size && s.sndNxt < s.sndUna+int64(s.cwnd) {
		s.sendSegment(s.sndNxt)
		payload := s.segmentLen(s.sndNxt)
		s.sndNxt += int64(payload)
	}
	if !s.rto.Pending() && s.sndUna < s.flow.Size {
		s.armRTO()
	}
}

func (s *Sender) segmentLen(seq int64) int {
	payload := s.cfg.MSS
	if rem := s.flow.Size - seq; rem < int64(payload) {
		payload = int(rem)
	}
	return payload
}

func (s *Sender) sendSegment(seq int64) {
	payload := s.segmentLen(seq)
	if end := seq + int64(payload); end > s.maxSent {
		s.maxSent = end
	} else {
		s.RetransmittedBytes += int64(payload)
	}
	p := s.pool.Data(s.flow.ID, s.flow.Src, s.flow.Dst, s.flow.Priority, s.flow.Class, seq, payload)
	p.FlowFin = seq+int64(payload) == s.flow.Size
	p.SentAt = s.env.Now()
	s.env.Send(p)
}

// HandleAck processes a cumulative acknowledgement.
func (s *Sender) HandleAck(ack *pkt.Packet) {
	if s.done {
		return
	}
	cum := ack.Seq
	if cum > s.sndNxt {
		// Acknowledgement for data never sent: a corrupt or misrouted
		// ACK. Clamp rather than corrupt window state.
		cum = s.sndNxt
	}
	if cum > s.sndUna {
		newly := cum - s.sndUna
		s.sndUna = cum
		s.dupAcks = 0
		s.rtoBackoff = 1

		s.ackedBytes += newly
		if ack.ECE {
			s.markedBytes += newly
		}

		if s.inRecovery && cum >= s.recoverEnd {
			s.inRecovery = false
		}
		if !s.inRecovery {
			if s.cwnd < s.ssthresh {
				s.cwnd += float64(newly) // slow start
			} else {
				s.cwnd += float64(s.cfg.MSS) * float64(newly) / s.cwnd
			}
		}

		if cum >= s.winEnd {
			s.updateAlphaWindow()
		}

		s.rearmRTO()
		if s.sndUna >= s.flow.Size {
			s.finish()
			return
		}
	} else {
		if ack.ECE {
			// Dup ACKs still carry marking state; count conservatively
			// as one MSS of marked feedback.
			s.markedBytes += int64(s.cfg.MSS)
			s.ackedBytes += int64(s.cfg.MSS)
		} else {
			s.ackedBytes += int64(s.cfg.MSS)
		}
		s.dupAcks++
		if s.dupAcks == 3 && !s.inRecovery {
			s.fastRetransmit()
		}
	}
	s.trySend()
}

// updateAlphaWindow closes one observation window: refresh α from the
// marked fraction and apply DCTCP's once-per-window cut if anything was
// marked.
func (s *Sender) updateAlphaWindow() {
	if s.ackedBytes > 0 {
		f := float64(s.markedBytes) / float64(s.ackedBytes)
		s.alpha = (1-s.cfg.G)*s.alpha + s.cfg.G*f
		if s.markedBytes > 0 && !s.inRecovery {
			s.cwnd *= 1 - s.alpha/2
			s.clampCwnd()
			s.ssthresh = s.cwnd
		}
	}
	s.ackedBytes, s.markedBytes = 0, 0
	s.winEnd = s.sndNxt
}

func (s *Sender) fastRetransmit() {
	s.Retransmissions++
	s.sendSegment(s.sndUna)
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2*float64(s.cfg.MSS) {
		s.ssthresh = 2 * float64(s.cfg.MSS)
	}
	s.cwnd = s.ssthresh
	s.inRecovery = true
	s.recoverEnd = s.sndNxt
	s.rearmRTO()
}

func (s *Sender) clampCwnd() {
	if s.cwnd < float64(s.cfg.MSS) {
		s.cwnd = float64(s.cfg.MSS)
	}
}

func (s *Sender) armRTO() {
	backoff := sim.Duration(s.rtoBackoff)
	s.rto = s.env.Schedule(s.cfg.MinRTO*backoff, s.rtoFn)
}

func (s *Sender) rearmRTO() {
	s.rto.Cancel()
	if s.sndUna < s.flow.Size {
		s.armRTO()
	}
}

func (s *Sender) onRTO() {
	if s.done {
		return
	}
	s.Timeouts++
	s.Retransmissions++
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2*float64(s.cfg.MSS) {
		s.ssthresh = 2 * float64(s.cfg.MSS)
	}
	s.cwnd = float64(s.cfg.MSS)
	s.dupAcks = 0
	s.inRecovery = false
	// Go-back-N from the hole.
	s.sndNxt = s.sndUna
	if s.rtoBackoff < s.cfg.MaxRTOBackoff {
		s.rtoBackoff *= 2
	}
	s.trySend()
}

func (s *Sender) finish() {
	s.done = true
	s.rto.Cancel()
	if s.onDone != nil {
		s.onDone()
	}
}

// Receiver reassembles one DCTCP flow and acknowledges every data packet
// with an accurate per-packet ECN echo.
type Receiver struct {
	env    transport.Env
	pool   *pkt.Pool // cached env.Pool(); nil = heap allocation
	flowID pkt.FlowID
	host   int // this host (ACK source)
	peer   int // sender host (ACK destination)

	recvNxt int64
	// ooo holds the bytes received beyond recvNxt as sorted, disjoint,
	// non-touching ranges: its length is the number of holes in the stream,
	// not the number of buffered segments. recvNxt is the closure of the
	// union of everything received, so every ACK and the completion instant
	// depend only on that union, never on how it is stored.
	ooo      []byteRange
	expected int64 // total flow size, learned from the FIN segment
	complete bool
	onDone   func(at sim.Time)
}

// NewReceiver builds a receiver for flowID; onDone fires once when the byte
// stream is complete.
func NewReceiver(env transport.Env, flowID pkt.FlowID, host, peer int, onDone func(at sim.Time)) *Receiver {
	return &Receiver{
		env:    env,
		pool:   env.Pool(),
		flowID: flowID,
		host:   host,
		peer:   peer,
		onDone: onDone,
	}
}

// Complete reports whether every byte arrived.
func (r *Receiver) Complete() bool { return r.complete }

// Received returns the contiguous byte count received so far.
func (r *Receiver) Received() int64 { return r.recvNxt }

// HandleData processes one data packet and emits the ACK.
func (r *Receiver) HandleData(p *pkt.Packet) {
	if p.FlowFin && p.End() > r.expected {
		r.expected = p.End()
	}
	if p.Seq <= r.recvNxt {
		if p.End() > r.recvNxt {
			r.recvNxt = p.End()
		}
		r.mergeOOO()
	} else {
		r.insertOOO(p.Seq, p.End())
	}

	ack := r.pool.Ack(r.flowID, r.host, r.peer, r.recvNxt, p.CE)
	r.env.Send(ack)

	if !r.complete && r.expected > 0 && r.recvNxt >= r.expected {
		r.complete = true
		if r.onDone != nil {
			r.onDone(r.env.Now())
		}
	}
}

// byteRange is the half-open span [seq, end) of buffered stream bytes.
type byteRange struct{ seq, end int64 }

// insertOOO buffers [seq, end), which starts beyond recvNxt, coalescing it
// with every range it overlaps or touches.
func (r *Receiver) insertOOO(seq, end int64) {
	n := len(r.ooo)
	// The common case after a loss: segments keep arriving in order behind
	// the hole, each one extending (or following) the last range.
	if n == 0 || seq > r.ooo[n-1].end {
		r.ooo = append(r.ooo, byteRange{seq, end})
		return
	}
	if last := &r.ooo[n-1]; seq >= last.seq {
		if end > last.end {
			last.end = end
		}
		return
	}
	// ooo[lo:hi] are the ranges [seq, end) overlaps or touches.
	lo := sort.Search(n, func(i int) bool { return r.ooo[i].end >= seq })
	hi := lo
	for hi < n && r.ooo[hi].seq <= end {
		hi++
	}
	if lo == hi {
		r.ooo = append(r.ooo, byteRange{})
		copy(r.ooo[lo+1:], r.ooo[lo:])
		r.ooo[lo] = byteRange{seq, end}
		return
	}
	if first := r.ooo[lo].seq; first < seq {
		seq = first
	}
	if last := r.ooo[hi-1].end; last > end {
		end = last
	}
	r.ooo[lo] = byteRange{seq, end}
	r.ooo = append(r.ooo[:lo+1], r.ooo[hi:]...)
}

// mergeOOO folds buffered ranges into the contiguous prefix.
func (r *Receiver) mergeOOO() {
	i := 0
	for i < len(r.ooo) && r.ooo[i].seq <= r.recvNxt {
		if r.ooo[i].end > r.recvNxt {
			r.recvNxt = r.ooo[i].end
		}
		i++
	}
	if i > 0 {
		r.ooo = append(r.ooo[:0], r.ooo[i:]...)
	}
}
