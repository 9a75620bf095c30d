package pkt

// Ledger is one shard's share of the fabric's flow-byte conservation
// ledger, in wire bytes of data frames: what the shard's hosts injected
// (first transmissions and retransmissions alike), what their receivers
// took delivery of (duplicates and out-of-order arrivals included — the
// ledger closes at the wire level, not the application level), and what
// died on the wire at the shard's ports (carrier and fault drops). Bytes a
// switch MMU kills are counted in the switch's own statistics; the
// invariant auditor adds the two. Like a Pool, a ledger is single-threaded
// state owned by one shard, written where the bytes are born and die, and a
// nil *Ledger is valid: writes to it are dropped, which is what a bare
// netdev.Connect link with no fabric around it wants.
type Ledger struct {
	Tx, Rx, Dropped int64
}

// Injected records a data frame of size wire bytes entering the fabric.
func (l *Ledger) Injected(size int) {
	if l != nil {
		l.Tx += int64(size)
	}
}

// Delivered records a data frame of size wire bytes reaching a receiver.
func (l *Ledger) Delivered(size int) {
	if l != nil {
		l.Rx += int64(size)
	}
}

// Lost records a data frame of size wire bytes dying on the wire.
func (l *Ledger) Lost(size int) {
	if l != nil {
		l.Dropped += int64(size)
	}
}
