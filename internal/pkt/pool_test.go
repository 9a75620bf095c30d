package pkt

import (
	"strings"
	"testing"
)

// TestPoolGetPutReuses pins the free-list contract: a returned packet is the
// one handed out next, fully reset to the zero state (reset-on-reuse).
func TestPoolGetPutReuses(t *testing.T) {
	pl := NewPool()
	p := pl.Data(FlowID(7), 1, 2, PrioLossless, ClassLossless, 42, 1000)
	if p.Size != 1000+HeaderBytes || p.Seq != 42 {
		t.Fatalf("pooled constructor mismatch: %+v", p)
	}
	pl.Put(p)
	q := pl.Get()
	if q != p {
		t.Fatal("free list did not hand back the recycled packet")
	}
	if q.Kind != 0 || q.Seq != 0 || q.Size != 0 || q.ECE || q.PayloadLen != 0 {
		t.Fatalf("recycled packet not reset: %+v", q)
	}
	st := pl.Stats()
	if st.Gets != 2 || st.Puts != 1 || st.News != 1 {
		t.Fatalf("stats = %+v, want Gets=2 Puts=1 News=1", st)
	}
	if pl.Live() != 1 {
		t.Fatalf("Live = %d, want 1", pl.Live())
	}
}

// TestPoolDoubleFreePanics: a double Put would alias two owners onto one
// object; it must fail loudly in both production and debug pools.
func TestPoolDoubleFreePanics(t *testing.T) {
	for _, mk := range []func() *Pool{NewPool, NewDebugPool} {
		pl := mk()
		p := pl.Get()
		pl.Put(p)
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Error("double Put did not panic")
				} else if !strings.Contains(r.(string), "double free") {
					t.Errorf("unexpected panic: %v", r)
				}
			}()
			pl.Put(p)
		}()
	}
}

// TestDebugPoolPoisonAndLeaked: debug pools poison freed packets with
// KindFreed and report outstanding checkouts via Leaked.
func TestDebugPoolPoisonAndLeaked(t *testing.T) {
	pl := NewDebugPool()
	if !pl.Debug() {
		t.Fatal("debug pool not armed")
	}
	a := pl.Get()
	b := pl.Get()
	pl.Put(a)
	if a.Kind != KindFreed {
		t.Fatalf("freed packet not poisoned: kind=%v", a.Kind)
	}
	leaked := pl.Leaked()
	if len(leaked) != 1 || leaked[0] != b {
		t.Fatalf("Leaked = %v, want [%p]", leaked, b)
	}
	if pl.Live() != 1 {
		t.Fatalf("Live = %d, want 1", pl.Live())
	}
	pl.Put(b)
	if len(pl.Leaked()) != 0 || pl.Live() != 0 {
		t.Fatalf("drained pool still reports leaks: %v live=%d", pl.Leaked(), pl.Live())
	}
	// Re-Get clears the poison.
	c := pl.Get()
	if c.Kind == KindFreed {
		t.Fatal("Get handed out a still-poisoned packet")
	}
}

// TestPoolForeignAdoption: packets built by the plain constructors may enter
// a pooled fabric; Put adopts them (counted Foreign) instead of rejecting,
// and Live stays balanced.
func TestPoolForeignAdoption(t *testing.T) {
	for _, mk := range []func() *Pool{NewPool, NewDebugPool} {
		pl := mk()
		own := pl.Get()
		foreign := NewData(FlowID(1), 0, 1, PrioLossy, ClassLossy, 0, 500)
		pl.Put(foreign)
		pl.Put(own)
		st := pl.Stats()
		if st.Foreign != 1 {
			t.Fatalf("Foreign = %d, want 1", st.Foreign)
		}
		if pl.Live() != 0 {
			t.Fatalf("Live = %d after balanced Puts, want 0", pl.Live())
		}
	}
}

// TestNilPoolDegradesToHeap: every method must be nil-receiver safe so
// pooling stays an opt-in wiring decision with no call-site branches.
func TestNilPoolDegradesToHeap(t *testing.T) {
	var pl *Pool
	p := pl.Data(FlowID(3), 0, 1, PrioLossless, ClassLossless, 9, 100)
	if p == nil || p.Seq != 9 {
		t.Fatalf("nil-pool constructor broken: %+v", p)
	}
	pl.Put(p) // no-op, must not panic
	pl.Put(nil)
	if pl.Get() == nil {
		t.Fatal("nil-pool Get returned nil")
	}
	if pl.Live() != 0 || pl.Debug() || pl.Leaked() != nil {
		t.Fatal("nil-pool observers not zero-valued")
	}
	if (pl.Stats() != PoolStats{}) {
		t.Fatalf("nil-pool Stats = %+v", pl.Stats())
	}
}

// TestPooledConstructorsMatchPlain: the pooled constructors are the plain
// New* constructors on a nil receiver, so the two paths cannot drift; verify
// field-for-field equality anyway to pin the contract.
func TestPooledConstructorsMatchPlain(t *testing.T) {
	pl := NewPool()
	f := FlowID(11)
	cases := []struct {
		name         string
		plain, poold *Packet
	}{
		{"data", NewData(f, 1, 2, PrioLossless, ClassLossless, 5, 800), pl.Data(f, 1, 2, PrioLossless, ClassLossless, 5, 800)},
		{"ack", NewAck(f, 2, 1, 6, true), pl.Ack(f, 2, 1, 6, true)},
		{"cnp", NewCNP(f, 2, 1), pl.CNP(f, 2, 1)},
		{"nack", NewNack(f, 2, 1, 3), pl.Nack(f, 2, 1, 3)},
		{"pfc", NewPFC(PrioLossless, true), pl.PFC(PrioLossless, true)},
	}
	for _, c := range cases {
		a, b := *c.plain, *c.poold
		a.pooled, b.pooled = false, false
		if a != b {
			t.Errorf("%s: plain %+v != pooled %+v", c.name, a, b)
		}
	}
}

// TestPoolLendAdopt: Lend and Adopt move free packets between pools and
// nothing else — no counter moves, a lent packet keeps its debug poison
// until the adopting pool hands it out, and a nil pool lends nothing and
// drops what it is given.
func TestPoolLendAdopt(t *testing.T) {
	from, to := NewDebugPool(), NewDebugPool()
	a, b, c := from.Get(), from.Get(), from.Get()
	from.Put(a)
	from.Put(b)
	from.Put(c)
	fromStats, toStats := from.Stats(), to.Stats()

	loan := from.Lend(nil, 2)
	if len(loan) != 2 || loan[0] != b || loan[1] != c || loan[0].Kind != KindFreed {
		t.Fatalf("Lend(2) = %v, want the two most recently freed, still poisoned", loan)
	}
	if more := from.Lend(loan, 5); len(more) != 3 || more[2] != a {
		t.Fatalf("Lend past the free list = %d packets, want the 3 there were", len(more))
	} else {
		loan = more
	}
	if rest := to.Adopt(loan); len(rest) != 0 || cap(rest) != cap(loan) || loan[0] != nil {
		t.Fatalf("Adopt left %d packets in the loan (cap %d), first %v", len(rest), cap(rest), loan[0])
	}
	if from.Stats() != fromStats || to.Stats() != toStats || from.Live() != 0 || to.Live() != 0 {
		t.Fatalf("lending moved a counter: %+v / %+v", from.Stats(), to.Stats())
	}
	for range 3 {
		if p := to.Get(); p != a && p != b && p != c || p.Kind != 0 {
			t.Fatalf("adopting pool handed out %v, want a clean lent packet", p)
		}
	}
	if st := to.Stats(); st.News != 0 || len(from.free) != 0 {
		t.Fatalf("adopting pool allocated %d, lender kept %d free", st.News, len(from.free))
	}

	var nilPool *Pool
	if got := nilPool.Lend(nil, 4); got != nil {
		t.Fatalf("nil pool lent %v", got)
	}
	if got := nilPool.Adopt([]*Packet{{}}); len(got) != 0 {
		t.Fatalf("nil pool kept %d of what it adopted", len(got))
	}
}
