package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func TestStreamsAreReproducible(t *testing.T) {
	a := NewSource(42).Stream("arrivals")
	b := NewSource(42).Stream("arrivals")
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-named streams diverged at draw %d", i)
		}
	}
}

func TestStreamsWithDifferentNamesDiffer(t *testing.T) {
	src := NewSource(42)
	a, b := src.Stream("arrivals"), src.Stream("sizes")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("differently named streams collided on %d/100 draws", same)
	}
}

func TestStreamsWithDifferentSeedsDiffer(t *testing.T) {
	a := NewSource(1).Stream("arrivals")
	b := NewSource(2).Stream("arrivals")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided on %d/100 draws", same)
	}
}

func TestExpDurationMean(t *testing.T) {
	r := NewSource(7).Stream("exp")
	mean := 100 * Microsecond
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(r.ExpDuration(mean))
	}
	got := sum / n
	if math.Abs(got-float64(mean))/float64(mean) > 0.02 {
		t.Errorf("empirical mean %v, want within 2%% of %v", Duration(got), mean)
	}
}

func TestExpDurationNeverZero(t *testing.T) {
	r := NewSource(7).Stream("exp")
	for i := 0; i < 10000; i++ {
		if d := r.ExpDuration(Nanosecond); d < 1 {
			t.Fatalf("ExpDuration returned %v < 1ps", d)
		}
	}
	if d := r.ExpDuration(0); d != 1 {
		t.Errorf("ExpDuration(0) = %v, want 1ps floor", d)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewSource(9).Stream("u")
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewSource(3).Stream("perm")
	p := r.Perm(64)
	seen := make([]bool, 64)
	for _, v := range p {
		if v < 0 || v >= 64 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestEngineRandIsDeterministic(t *testing.T) {
	e1, e2 := NewEngine(5), NewEngine(5)
	r1, r2 := e1.Rand("x"), e2.Rand("x")
	for i := 0; i < 100; i++ {
		if r1.Intn(1000) != r2.Intn(1000) {
			t.Fatal("engine-derived streams with equal seeds diverged")
		}
	}
}

// streamSeed restates Source.Stream's derivation on purpose — it is part of
// the determinism contract (change it and every experiment's traffic
// changes).
func streamSeed(master int64, name string) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return int64(h.Sum64()) ^ (master * 0x4F1BBCDCBFA53E0B)
}

// streamHelpers pairs every Rand helper with the math/rand call it must
// reproduce; each reports whether one draw of both agreed.
var streamHelpers = []struct {
	name string
	same func(r *Rand, ref *rand.Rand) bool
}{
	{"Float64", func(r *Rand, ref *rand.Rand) bool { return r.Float64() == ref.Float64() }},
	{"Intn", func(r *Rand, ref *rand.Rand) bool { return r.Intn(1009) == ref.Intn(1009) }},
	// 2⁶²+1 rejects every other raw draw, so this helper's draw count varies.
	{"Int63n", func(r *Rand, ref *rand.Rand) bool { return r.Int63n(1<<62+1) == ref.Int63n(1<<62+1) }},
	{"Uint64", func(r *Rand, ref *rand.Rand) bool { return r.Uint64() == ref.Uint64() }},
	{"Perm", func(r *Rand, ref *rand.Rand) bool {
		got, want := r.Perm(9), ref.Perm(9)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}},
	{"ExpDuration", func(r *Rand, ref *rand.Rand) bool {
		want := Duration(math.Round(ref.ExpFloat64() * float64(Microsecond)))
		if want < 1 {
			want = 1
		}
		return r.ExpDuration(Microsecond) == want
	}},
}

// A stream is math/rand seeded with a value derived from (master seed,
// name), and neither building the generator on first draw nor computing
// its first 273 outputs without state may be observable: for every helper,
// the first 1,000 draws of a fresh stream — which cross the hand-over to
// the real source — equal those of a math/rand generator seeded eagerly
// with the derived seed.
func TestStreamDrawsMatchEagerlySeededMathRand(t *testing.T) {
	master, name := int64(20230718), "host/17/sizes"
	for _, h := range streamHelpers {
		// Each helper gets a fresh stream, so each one is the first to draw.
		r := NewSource(master).Stream(name)
		ref := rand.New(rand.NewSource(streamSeed(master, name)))
		for i := 0; i < 1000; i++ {
			if !h.same(r, ref) {
				t.Errorf("%s: draw %d differs from rand.New(rand.NewSource(derived))", h.name, i)
				break
			}
		}
	}
}

// The same identity with the helpers interleaved, over the seeds math/rand
// folds specially (zero, the modulus and its multiples, both signs, the
// int64 extremes) and with the stream pre-drawn to every offset around the
// hand-over, so that the 273rd/274th raw draws fall inside multi-draw
// helpers. The test reads the source's own state to prove they did: a
// hand-over placed one draw early or late would otherwise only shift which
// helper call straddles it.
func TestStreamDrawsMatchAcrossHandOver(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{
		0, 1, -1, m, -m, m + 1, m - 1, 2 * m, -2 * m, 12345 * m, -12345*m + 1,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
		streamSeed(1, "tcp/arrivals/0"), streamSeed(20230718, "rdma/sizes/10239"),
	}
	straddled := map[string]bool{}
	for _, seed := range seeds {
		for _, pre := range []int{0, 1, 260, 262, 264, 266, 268, 270, 271, 272, 273, 274} {
			ps := &prefixSource{x0: foldSeed(seed)}
			r := &Rand{seed: seed, rng: rand.New(ps)}
			ref := rand.New(rand.NewSource(seed))
			for i := 0; i < pre; i++ {
				if r.Uint64() != ref.Uint64() {
					t.Fatalf("seed %d: raw draw %d differs", seed, i+1)
				}
			}
			for i := 0; i < 1000; i++ {
				h := streamHelpers[i%len(streamHelpers)]
				before := ps.drawn
				stateless := ps.full == nil
				if !h.same(r, ref) {
					t.Fatalf("seed %d, %d pre-draws: interleaved draw %d (%s) differs", seed, pre, i, h.name)
				}
				if stateless && ps.full != nil && before < rngTap {
					straddled[h.name] = true
				}
			}
			if ps.full == nil || ps.drawn != rngTap {
				t.Fatalf("seed %d: after >1000 draws the source is still stateless (drawn=%d)", seed, ps.drawn)
			}
		}
	}
	for _, name := range []string{"Int63n", "Perm"} {
		if !straddled[name] {
			t.Errorf("no %s call straddled the hand-over; the boundary is not exercised mid-helper", name)
		}
	}
}

// The additive table is derived at init from rand.NewSource(1)'s outputs.
// It must be the table for every seed: a plain lagged-Fibonacci generator
// over the vector seededWord describes reproduces rand.NewSource(s) for
// two full laps of the vector.
func TestPrefixTablesReproduceSeeding(t *testing.T) {
	for _, seed := range []int64{1, 2, 0, -7, 1<<31 - 1, 89482311, 20230718, math.MinInt64, streamSeed(3, "switch/tor3/ecn")} {
		var vec [rngLen]uint64
		for i := range vec {
			vec[i] = seededWord(foldSeed(seed), i)
		}
		ref := rand.NewSource(seed).(rand.Source64)
		for k := 1; k <= 2*rngLen; k++ {
			lap := (k-1)%rngLen + 1
			vec[feedSlot(lap)] += vec[tapSlot(lap)]
			if got, want := vec[feedSlot(lap)], ref.Uint64(); got != want {
				t.Fatalf("seed %d: draw %d = %#x, math/rand gives %#x", seed, k, got, want)
			}
		}
	}
}

// A stream nobody draws from must stay cheap: a hyperscale fabric names
// tens of thousands of them (per host, per class, per switch, per link) and
// draws from a handful. math/rand's source alone is 4.9 kB.
func TestUndrawnStreamIsCheap(t *testing.T) {
	src := NewSource(1)
	const n = 1000
	keep := make([]*Rand, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = src.Stream("tcp/sizes/10239")
	}
	runtime.ReadMemStats(&after)
	if perStream := (after.TotalAlloc - before.TotalAlloc) / n; perStream >= 128 {
		t.Errorf("Stream() allocates %d B before its first draw, want < 128", perStream)
	}
	if keep[0].rng != nil {
		t.Error("Stream() built the generator before any draw")
	}

	// Nor does the first draw buy the 4.9 kB vector: every host draws its
	// first Poisson gap, and most streams never draw a second number.
	runtime.ReadMemStats(&before)
	for _, r := range keep {
		r.Uint64()
	}
	runtime.ReadMemStats(&after)
	if perStream := (after.TotalAlloc - before.TotalAlloc) / n; perStream >= 128 {
		t.Errorf("a stream's first draw allocates %d B, want < 128", perStream)
	}
}

// BenchmarkStreamFirstDraw is what a fabric pays per host at install time:
// name a stream and draw one exponential gap from it.
func BenchmarkStreamFirstDraw(b *testing.B) {
	src := NewSource(1)
	b.ReportAllocs()
	var sink Duration
	for i := 0; i < b.N; i++ {
		sink += src.Stream("tcp/arrivals/10239").ExpDuration(Microsecond)
	}
	runtime.KeepAlive(sink)
}
