package netdev

import "l2bm/internal/pkt"

// ring is a growable FIFO of packets backed by a circular buffer. It avoids
// the per-element allocation of container/list on the simulator's hottest
// path. The buffer's length is zero or a power of two (grow starts at 16
// and doubles), so positions wrap with a mask rather than a division; head
// and n are uint32 (a queue of 2^32 frames is far beyond any buffer the
// model admits), which keeps the struct at 32 bytes.
type ring struct {
	buf  []*pkt.Packet
	head uint32
	n    uint32
}

func (r *ring) len() int { return int(r.n) }

func (r *ring) mask() uint32 { return uint32(len(r.buf) - 1) }

func (r *ring) push(p *pkt.Packet) {
	if int(r.n) == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&r.mask()] = p
	r.n++
}

func (r *ring) pop() *pkt.Packet {
	if r.n == 0 {
		return nil
	}
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & r.mask()
	r.n--
	return p
}

// popTail removes and returns the most recently pushed packet, or nil when
// empty. The MMU's preemptive eviction path (Occamy) uses it: the tail is
// the packet admitted last, under the stalest threshold.
func (r *ring) popTail() *pkt.Packet {
	if r.n == 0 {
		return nil
	}
	idx := (r.head + r.n - 1) & r.mask()
	p := r.buf[idx]
	r.buf[idx] = nil
	r.n--
	return p
}

func (r *ring) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 16
	}
	buf := make([]*pkt.Packet, size)
	for i := uint32(0); i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&r.mask()]
	}
	r.buf = buf
	r.head = 0
}
