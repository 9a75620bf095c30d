package pkt

import "fmt"

// Pool is a per-engine free list of Packet objects. The simulator's hottest
// allocation is one Packet per data/ACK/CNP/PFC frame; routing every frame
// through a pool turns that into a pointer pop, so GC pressure no longer
// bounds events/s at scale.
//
// Ownership contract (the "one-owner invariant" from Packet's doc comment):
// a packet is owned by exactly one queue, link, or in-flight event at a
// time. The *sinks* recycle — host delivery, switch admission drops, PFC
// consumption and fault drops call Put when the frame is dead; everything in
// between only hands the pointer onward. Handlers invoked at a sink (e.g. a
// transport's HandleAck) must not retain the packet past their return.
//
// A Pool is deliberately NOT safe for concurrent use: each simulation engine
// owns one pool, and the parallel experiment scheduler gives every worker
// its own engine, so the fast path needs no locks.
//
// All methods are nil-receiver safe: a nil *Pool degrades to plain heap
// allocation on Get (and the pooled constructors) and to a no-op on Put.
// That makes pooling an opt-in wiring decision — and gives the determinism
// tests their pool-disabled control run — without branching at call sites.
type Pool struct {
	free  []*Packet
	stats PoolStats

	// live tracks outstanding Get results in debug mode (nil otherwise).
	live map[*Packet]struct{}
}

// PoolStats counts pool traffic for leak audits and benchmarks.
type PoolStats struct {
	// Gets and Puts count checkouts and returns.
	Gets, Puts uint64
	// News counts Gets served by a fresh heap allocation (free list empty).
	News uint64
	// Foreign counts Puts of packets the pool never handed out (packets
	// built by the plain New* constructors entering a pooled fabric). They
	// are adopted into the free list, not rejected.
	Foreign uint64
	// Exported and Imported count ownership transfers across pools: a
	// packet crossing a shard boundary is Exported from the source port's
	// pool when it enters the cross-shard lane and Imported into the
	// destination port's pool when the epoch conductor drains it. The
	// packet eventually Puts into the *importing* pool, so per-pool Live
	// stays exact and a fleet-wide leak audit is the sum over shards.
	Exported, Imported uint64
}

// NewPool returns an empty production pool.
func NewPool() *Pool { return &Pool{} }

// NewDebugPool returns a pool with the use-after-free audit armed: every
// outstanding packet is tracked in a map, Leaked reports the packets never
// returned, and freed packets are poisoned (Kind = KindFreed) so any path
// that touches one after Put misbehaves loudly rather than silently. Debug
// mode costs a map operation per Get/Put; production pools skip it.
func NewDebugPool() *Pool { return &Pool{live: make(map[*Packet]struct{})} }

// Debug reports whether the audit map is armed.
func (pl *Pool) Debug() bool { return pl != nil && pl.live != nil }

// Stats returns a snapshot of the pool counters (zero for a nil pool).
func (pl *Pool) Stats() PoolStats {
	if pl == nil {
		return PoolStats{}
	}
	return pl.stats
}

// Live returns the number of packets currently checked out: checkouts
// (Gets plus cross-pool Imports) minus returns of pool-owned packets and
// cross-pool Exports. Zero after a fully drained run — the leak audit the
// determinism suite asserts, per shard.
func (pl *Pool) Live() int64 {
	if pl == nil {
		return 0
	}
	return int64(pl.stats.Gets+pl.stats.Imported) -
		int64(pl.stats.Puts-pl.stats.Foreign) - int64(pl.stats.Exported)
}

// Export relinquishes ownership of an outstanding packet: the packet is no
// longer counted against this pool and MUST subsequently be Imported into
// exactly one other pool (the shard-boundary handoff — the source port's
// pool exports into the lane, the destination's imports at the epoch
// barrier). Exporting from a nil pool is a no-op: the packet was heap-
// allocated and the importing side adopts it as foreign when it dies.
func (pl *Pool) Export(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	if p.pooled {
		panic(fmt.Sprintf("pkt: exporting a freed packet %s", p))
	}
	pl.stats.Exported++
	if pl.live != nil {
		if _, ok := pl.live[p]; ok {
			delete(pl.live, p)
		} else {
			panic(fmt.Sprintf("pkt: exporting packet %s this pool does not own", p))
		}
	}
}

// Import assumes ownership of a packet Exported from another pool. From
// here on the packet counts against this pool's Live and must Put here
// when it dies. Importing into a nil pool is a no-op (heap mode: nobody
// tracks it, Put is a no-op too).
func (pl *Pool) Import(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	if p.pooled {
		panic(fmt.Sprintf("pkt: importing a freed packet %s", p))
	}
	pl.stats.Imported++
	if pl.live != nil {
		if _, ok := pl.live[p]; ok {
			panic(fmt.Sprintf("pkt: importing packet %s this pool already owns", p))
		}
		pl.live[p] = struct{}{}
	}
}

// Lend moves up to n packets off the free list onto dst and returns it,
// for the cross-shard lane to hand to the pool whose frames this one has
// been importing. Only free packets move, so no counter changes: a packet
// is lent as it lies, zeroed and (in debug mode) poisoned. A nil pool
// lends nothing.
func (pl *Pool) Lend(dst []*Packet, n int) []*Packet {
	if pl == nil || n <= 0 {
		return dst
	}
	k := len(pl.free) - min(n, len(pl.free))
	dst = append(dst, pl.free[k:]...)
	clear(pl.free[k:])
	pl.free = pl.free[:k]
	return dst
}

// Adopt appends packets another pool Lent to the free list and empties
// the slice it was given, keeping its capacity. A nil pool drops them.
func (pl *Pool) Adopt(src []*Packet) []*Packet {
	if pl != nil {
		pl.free = append(pl.free, src...)
	}
	clear(src)
	return src[:0]
}

// Leaked returns the outstanding packets in debug mode (order unspecified),
// or nil for a production or nil pool. Useful in test failure messages: the
// packets' fields identify the leaking flow.
func (pl *Pool) Leaked() []*Packet {
	if pl == nil || pl.live == nil {
		return nil
	}
	out := make([]*Packet, 0, len(pl.live))
	for p := range pl.live {
		out = append(out, p)
	}
	return out
}

// Get checks a zeroed packet out of the pool (or heap-allocates when the
// free list is empty or the pool is nil). The caller owns it until it
// reaches a sink that calls Put.
func (pl *Pool) Get() *Packet {
	if pl == nil {
		return &Packet{}
	}
	pl.stats.Gets++
	var p *Packet
	if n := len(pl.free); n > 0 {
		p = pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		p.pooled = false
		p.Kind = 0 // clear the debug poison
	} else {
		pl.stats.News++
		p = &Packet{}
	}
	if pl.live != nil {
		pl.live[p] = struct{}{}
	}
	return p
}

// Put returns a dead packet to the free list, resetting every field so the
// next Get starts from a zero packet (reset-on-reuse). Putting nil, or
// putting into a nil pool, is a no-op. Putting the same packet twice without
// an intervening Get panics — a double free would alias two owners onto one
// object and corrupt the simulation silently otherwise.
func (pl *Pool) Put(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	if p.pooled {
		panic(fmt.Sprintf("pkt: double free of pooled packet %s", p))
	}
	if pl.live != nil {
		if _, ok := pl.live[p]; ok {
			delete(pl.live, p)
		} else {
			pl.stats.Foreign++
		}
	} else if int64(pl.stats.Puts-pl.stats.Foreign) >=
		int64(pl.stats.Gets+pl.stats.Imported)-int64(pl.stats.Exported) {
		// Production pools cannot afford the map, but a Put that cannot
		// correspond to any outstanding checkout (Get or cross-pool
		// Import, net of Exports) is still countable as foreign
		// (plain-constructor packets entering a pooled fabric).
		pl.stats.Foreign++
	}
	pl.stats.Puts++
	*p = Packet{}
	p.pooled = true
	if pl.live != nil {
		p.Kind = KindFreed // poison: touching a freed packet is loud
	}
	pl.free = append(pl.free, p)
}

// --- pooled constructors ----------------------------------------------------
//
// These mirror the package-level New* constructors byte for byte; the plain
// constructors are implemented on a nil pool so the two paths cannot drift.

// Data builds a pooled data packet; see NewData.
func (pl *Pool) Data(f FlowID, src, dst int, prio int, class Class, seq int64, payload int) *Packet {
	p := pl.Get()
	p.Kind = KindData
	p.Flow = f
	p.Src = src
	p.Dst = dst
	p.Priority = prio
	p.Class = class
	p.Size = payload + HeaderBytes
	p.Seq = seq
	p.PayloadLen = payload
	return p
}

// Ack builds a pooled cumulative ACK; see NewAck.
func (pl *Pool) Ack(f FlowID, src, dst int, cumSeq int64, ece bool) *Packet {
	p := pl.control(KindAck, f, src, dst, cumSeq)
	p.ECE = ece
	return p
}

// CNP builds a pooled congestion-notification packet; see NewCNP.
func (pl *Pool) CNP(f FlowID, src, dst int) *Packet { return pl.control(KindCNP, f, src, dst, 0) }

// Nack builds a pooled go-back-N NACK; see NewNack.
func (pl *Pool) Nack(f FlowID, src, dst int, expected int64) *Packet {
	return pl.control(KindNack, f, src, dst, expected)
}

// control builds a pooled per-flow control frame of kind carrying seq.
func (pl *Pool) control(kind Kind, f FlowID, src, dst int, seq int64) *Packet {
	p := pl.Get()
	p.Kind = kind
	p.Flow = f
	p.Src = src
	p.Dst = dst
	p.Priority = PrioControl
	p.Class = ClassControl
	p.Size = CtrlBytes
	p.Seq = seq
	return p
}

// PFC builds a pooled pause/resume frame; see NewPFC.
func (pl *Pool) PFC(prio int, pause bool) *Packet {
	p := pl.Get()
	p.Kind = KindPFC
	p.Priority = PrioControl
	p.Class = ClassControl
	p.Size = CtrlBytes
	p.PFCPriority = prio
	p.PFCPause = pause
	return p
}
