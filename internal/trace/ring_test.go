package trace

import (
	"reflect"
	"testing"
)

// FuzzTraceRing holds the chunked ring to a plain-slice model: after pushing
// 0, 1, …, n−1 into a ring of capacity c, it retains the last min(n, c)
// values oldest-first — through slice() and through the in-place walk alike —
// and reports max(n−c, 0) evicted. The input decodes to a capacity up to four
// chunks, a push count up to three capacities, and whether the ring starts
// as adoptRing's view of its first c values (Merge's storage) instead of
// empty; the seeds sit on the chunk edges, wrap around them and leave the
// oldest row mid-chunk.
func FuzzTraceRing(f *testing.F) {
	for _, c := range []int{1, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 7} {
		for _, n := range []int{0, c - 1, c, c + 1, c + c/2 + 1, 2*c + 1, 3 * c} {
			f.Add(uint16(c-1), uint16(n), n%2 == 1)
		}
	}
	f.Fuzz(func(t *testing.T, cIn, nIn uint16, adopt bool) {
		c := 1 + int(cIn)%(4*chunkLen)
		n := int(nIn) % (3*c + 1)
		r := newRing[int](c)
		first := 0
		if adopt && n >= c {
			buf := make([]int, c)
			for i := range buf {
				buf[i] = i
			}
			r, first = adoptRing(buf), c
		}
		check := func(pushed int) {
			t.Helper()
			var want []int
			for v := max(pushed-c, 0); v < pushed; v++ {
				want = append(want, v)
			}
			if got := r.slice(); !reflect.DeepEqual(got, want) {
				t.Fatalf("cap %d after %d pushes: slice() = %v, want %v", c, pushed, got, want)
			}
			var walked []int
			r.walk(func(rows []int) {
				if len(rows) == 0 {
					t.Fatalf("cap %d after %d pushes: walk yielded an empty run", c, pushed)
				}
				walked = append(walked, rows...)
			})
			if !reflect.DeepEqual(walked, want) {
				t.Fatalf("cap %d after %d pushes: walk = %v, want %v", c, pushed, walked, want)
			}
		}
		for i := first; i < n; i++ {
			if i == c {
				check(i) // full, nothing evicted yet
			}
			r.push(i)
			if r.len() != min(i+1, c) || r.evicted != uint64(max(i+1-c, 0)) {
				t.Fatalf("cap %d after %d pushes: len %d evicted %d", c, i+1, r.len(), r.evicted)
			}
		}
		check(n)
	})
}
