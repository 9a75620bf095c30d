// Cross-shard lanes: when a link's two ports live on different engines
// (shards), frames cannot be scheduled on the peer's event queue directly —
// the peer's shard may be executing concurrently. Instead the transmitting
// port appends each frame, with its precomputed arrival time and ordering
// key, to the Lane its shard shares with the receiving shard, and the
// receiving shard schedules the lane's frames on its own engine at the start
// of its next epoch. This is sound because the conductor's epoch length never
// exceeds the minimum cross-shard propagation delay: a frame sent during an
// epoch always arrives strictly after the epoch's bound, so delivering it
// after the barrier is never late.
package netdev

import (
	"l2bm/internal/sim"

	"l2bm/internal/pkt"
)

// Xmsg is one cross-shard frame in flight: the absolute arrival time at
// the peer, the wiring-derived ordering key, the frame itself (owned by the
// lane between Export and Import) and the port it arrives on.
type Xmsg struct {
	At  sim.Time
	Key uint64
	Pkt *pkt.Packet
	dst *Port
}

// Lane carries every frame one shard sends another: one list per ordered
// shard pair, so a barrier costs what crossed it, not one visit per cable.
// The wiring layer creates one per crossed ordered pair and hands it to
// ConnectClass for every cable between the two shards. It is double-buffered
// by epoch parity, because the receiving shard delivers the last epoch's
// frames at the start of its epoch while the sending shard is already
// appending this epoch's:
//
//   - during an epoch the sending shard alone appends to side[cur];
//   - at the barrier, with every shard parked, the conductor Seals the lane
//     (cur flips) and learns the earliest arrival waiting in it;
//   - at the start of its next epoch the receiving shard alone Delivers
//     side[cur^1] — on its own thread, so its event queue is only ever
//     written from the core that runs it.
//
// Packets flow back the other way. A frame dies in the pool of the shard it
// was delivered to, so a one-way stream would strand every packet it sent
// in the receiver's free list while the sender allocated fresh ones. Deliver
// therefore lends up to one free packet from the receiving pool per frame it
// delivers into the side it drained, and the sender adopts them into its own
// pool the next time it writes that side. Each pool then holds about what
// its own shard has in flight, not what crossed out of it.
//
// The barrier's happens-before edges publish each hand-over; no locking is
// needed. The sides are padded apart so the two shards' concurrent writes
// never share a cache line.
type Lane struct {
	cur  int // side being written this epoch; flipped only at a barrier
	_    [56]byte
	side [2]laneSide
}

type laneSide struct {
	msgs  []Xmsg
	first sim.Time      // earliest At in msgs (valid when msgs is non-empty)
	back  []*pkt.Packet // free packets the receiving pool lent the sender
	_     [8]byte
}

// add enqueues one frame bound for dst; called by the transmitting port's
// finishTransmit on the sending shard's goroutine, with that shard's pool,
// which first adopts whatever the receiver lent back on this side.
func (l *Lane) add(at sim.Time, key uint64, q *pkt.Packet, dst *Port, pool *pkt.Pool) {
	s := &l.side[l.cur]
	if len(s.back) > 0 {
		s.back = pool.Adopt(s.back)
	}
	if len(s.msgs) == 0 || at < s.first {
		s.first = at
	}
	s.msgs = append(s.msgs, Xmsg{At: at, Key: key, Pkt: q, dst: dst})
}

// Seal closes the epoch's writing side and reports the earliest arrival
// time among the frames it holds, ok=false when nothing was sent. Call only
// at a barrier, after the previous sealed side was Delivered.
func (l *Lane) Seal() (first sim.Time, ok bool) {
	s := &l.side[l.cur]
	l.cur ^= 1
	return s.first, len(s.msgs) > 0
}

// Deliver imports every sealed frame into its receiving port's pool and
// schedules its arrival on the receiving engine under its wiring-derived
// key, then empties the side and lends the sender up to one free packet of
// that pool per frame. It returns the number of frames delivered.
// The receiving engine must not be running on another thread, and every
// arrival time is still in its future (guaranteed by the lookahead bound).
// Order across frames and lanes is immaterial: the (timestamp, key) total
// order of the receiving queue, not insertion order, decides dispatch.
func (l *Lane) Deliver() int {
	s := &l.side[l.cur^1]
	n := len(s.msgs)
	if n == 0 {
		return 0
	}
	pool := s.msgs[0].dst.pool // every port a lane reaches is on one shard
	for i := range s.msgs {
		m := &s.msgs[i]
		m.dst.pool.Import(m.Pkt)
		m.dst.eng.ScheduleArrivalAt(m.At, m.dst.onArrive, m.Pkt, m.Key)
		*m = Xmsg{} // drop the references; the event record owns the frame now
	}
	s.msgs = s.msgs[:0]
	s.back = pool.Lend(s.back, n)
	return n
}
