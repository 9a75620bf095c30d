package netdev

import (
	"math/rand"
	"testing"
	"testing/quick"

	"l2bm/internal/pkt"
)

func TestRingFIFO(t *testing.T) {
	var r ring
	if r.pop() != nil || r.len() != 0 {
		t.Fatal("empty ring misbehaves")
	}
	ps := make([]*pkt.Packet, 100)
	for i := range ps {
		ps[i] = pkt.NewData(pkt.FlowID(i), 0, 1, 0, pkt.ClassLossy, int64(i), 10)
		r.push(ps[i])
	}
	if r.len() != 100 {
		t.Fatalf("len = %d, want 100", r.len())
	}
	for i := range ps {
		if got := r.pop(); got != ps[i] {
			t.Fatalf("pop %d returned wrong packet", i)
		}
	}
	if r.len() != 0 {
		t.Fatal("ring should be empty")
	}
}

// Property: any interleaving of pushes and pops preserves FIFO order across
// growth boundaries.
func TestRingInterleavedProperty(t *testing.T) {
	f := func(ops []bool) bool {
		var r ring
		var model []*pkt.Packet
		seq := int64(0)
		for _, push := range ops {
			if push || len(model) == 0 {
				p := pkt.NewData(1, 0, 1, 0, pkt.ClassLossy, seq, 1)
				seq++
				r.push(p)
				model = append(model, p)
			} else {
				got := r.pop()
				want := model[0]
				model = model[1:]
				if got != want {
					return false
				}
			}
		}
		for len(model) > 0 {
			if r.pop() != model[0] {
				return false
			}
			model = model[1:]
		}
		return r.len() == 0 && r.pop() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The ring indexes with a mask, which is only a modulus while the buffer
// length is a power of two. Drive pushes, pops and tail pops against a
// slice model through fill and drain phases (so the ring grows several
// times, from wrapped-around states included), checking the length
// invariant after every operation.
func TestRingMaskedIndexingAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var r ring
		var model []*pkt.Packet
		grown := 0
		for op := 0; op < 4000; op++ {
			pushBias := 3 // of 4: fill phase
			if op/500%2 == 1 {
				pushBias = 1 // drain phase
			}
			switch roll := rng.Intn(4); {
			case roll < pushBias || len(model) == 0:
				p := pkt.NewData(1, 0, 1, 0, pkt.ClassLossy, int64(op), 1)
				before := len(r.buf)
				r.push(p)
				model = append(model, p)
				if len(r.buf) != before {
					grown++
				}
			case rng.Intn(2) == 0:
				if r.pop() != model[0] {
					t.Fatalf("seed %d op %d: pop out of FIFO order", seed, op)
				}
				model = model[1:]
			default:
				if r.popTail() != model[len(model)-1] {
					t.Fatalf("seed %d op %d: popTail did not return the newest packet", seed, op)
				}
				model = model[:len(model)-1]
			}
			if n := len(r.buf); n&(n-1) != 0 {
				t.Fatalf("seed %d op %d: buffer length %d is not a power of two", seed, op, n)
			}
			if r.len() != len(model) || (len(model) > 0 && r.buf[r.head] != model[0]) {
				t.Fatalf("seed %d op %d: ring and model disagree on length or head", seed, op)
			}
		}
		if grown < 4 {
			t.Fatalf("seed %d: the script grew the ring only %d times", seed, grown)
		}
	}
}

// Growth must unwrap a ring whose contents straddle the end of the buffer,
// and popTail must find the tail on either side of that seam.
func TestRingGrowAndPopTailAcrossTheSeam(t *testing.T) {
	mk := func(i int) *pkt.Packet { return pkt.NewData(1, 0, 1, 0, pkt.ClassLossy, int64(i), 1) }
	for _, head := range []int{1, 7, 15} {
		var r ring
		var want []*pkt.Packet
		for i := 0; i < head; i++ { // advance head without growing
			r.push(mk(-1))
			r.pop()
		}
		if int(r.head) != head || len(r.buf) != 16 {
			t.Fatalf("set-up: head=%d len=%d, want %d/16", r.head, len(r.buf), head)
		}
		for i := 0; i < 16; i++ { // fill: the tail wraps past the end
			want = append(want, mk(i))
			r.push(want[i])
		}
		if got := r.popTail(); got != want[15] { // tail sits at head-1, across the seam
			t.Fatalf("head=%d: popTail on a full wrapped ring returned seq %d, want 15", head, got.Seq)
		}
		r.push(want[15])
		want = append(want, mk(16))
		r.push(want[16]) // grows from the wrapped state
		if len(r.buf) != 32 || r.head != 0 {
			t.Fatalf("head=%d: after growth len=%d head=%d, want 32/0", head, len(r.buf), r.head)
		}
		for i, w := range want {
			if got := r.pop(); got != w {
				t.Fatalf("head=%d: pop %d after growth returned seq %d, want %d", head, i, got.Seq, w.Seq)
			}
		}
	}

	// popTail walking back over the seam: three packets at slots 15, 0, 1.
	var r ring
	for i := 0; i < 15; i++ {
		r.push(mk(-1))
		r.pop()
	}
	a, b, c := mk(0), mk(1), mk(2)
	r.push(a)
	r.push(b)
	r.push(c)
	if r.popTail() != c || r.popTail() != b || r.popTail() != a || r.popTail() != nil || r.len() != 0 {
		t.Fatal("popTail did not walk back across the buffer seam in LIFO order")
	}
}
