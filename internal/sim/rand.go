package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Source derives independent, reproducible random streams from one master
// seed. Model components ask for streams by name so that adding a new
// consumer never perturbs the draws seen by existing ones.
type Source struct {
	seed int64
}

// NewSource returns a stream factory rooted at seed.
func NewSource(seed int64) *Source { return &Source{seed: seed} }

// Stream returns the deterministic random stream for name. Calling Stream
// twice with the same name returns two streams that produce identical
// sequences. A stream costs a few words until its first draw, and well
// under a hundred bytes until its 274th: large fabrics name streams for
// every host, switch and link up front, most are never drawn from, and
// most of the rest draw once or twice.
func (s *Source) Stream(name string) *Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return &Rand{seed: int64(h.Sum64()) ^ (s.seed * 0x4F1BBCDCBFA53E0B)}
}

// Rand is a deterministic random stream with helpers for the distributions
// the simulator needs: exactly the sequence rand.New(rand.NewSource(seed))
// yields, draw for draw. It is not safe for concurrent use, matching the
// single-threaded engine.
type Rand struct {
	seed int64
	rng  *rand.Rand // built over a prefixSource by the first draw
}

// src returns the generator, building it on first use. Every helper runs
// through math/rand's own algorithms on top of prefixSource, so only the
// raw 64-bit sequence is reproduced here, never a distribution.
func (r *Rand) src() *rand.Rand {
	if r.rng == nil {
		r.rng = rand.New(&prefixSource{x0: foldSeed(r.seed)})
	}
	return r.rng
}

// Float64 returns a uniform draw in [0, 1).
func (r *Rand) Float64() float64 { return r.src().Float64() }

// Intn returns a uniform draw in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int { return r.src().Intn(n) }

// Int63n returns a uniform draw in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 { return r.src().Int63n(n) }

// Uint64 returns a uniform 64-bit draw.
func (r *Rand) Uint64() uint64 { return r.src().Uint64() }

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.src().Perm(n) }

// ExpDuration returns an exponentially distributed duration with the given
// mean, suitable for Poisson inter-arrival gaps. The result is at least 1 ps
// so that successive arrivals never collapse onto the same instant ordering
// accident.
func (r *Rand) ExpDuration(mean Duration) Duration {
	if mean <= 0 {
		return 1
	}
	d := Duration(math.Round(r.src().ExpFloat64() * float64(mean)))
	if d < 1 {
		d = 1
	}
	return d
}

// math/rand's seeded source is an additive lagged-Fibonacci generator over
// a 607-word vector with tap 273. Seeding fills the vector from a Lehmer
// LCG (x -> 48271·x mod 2³¹−1, the first 20 outputs discarded, three
// outputs per word) XORed with a fixed additive table; draw k then returns
// vec[334−k] + vec[607−k] and stores the sum back into vec[334−k]. The tap
// index 607−k first lands on a stored-back slot at k = 274, so each of the
// first 273 draws is a function of (seed, k) alone.
const (
	rngLen   = 607
	rngTap   = 273
	lcgMod   = 1<<31 - 1
	lcgMul   = 48271
	lcgFirst = 21 // LCG step feeding the top bits of word 0
)

var (
	// lcgPow[n] = 48271ⁿ mod (2³¹−1): LCG step n of seed x0 is x0·lcgPow[n].
	lcgPow [lcgFirst + 3*rngLen]uint32
	// rngAdd is math/rand's additive seeding table (unexported there as
	// rngCooked), recovered from the generator itself by derivePrefixTables.
	rngAdd [rngLen]uint64
)

func init() { derivePrefixTables() }

// derivePrefixTables fills lcgPow, then recovers rngAdd from the outputs of
// rand.NewSource(1): 607 draws store each output into exactly one slot, so
// the post-draw vector is known; undoing the draws last to first
// (vec[feed] = out − vec[tap], the tap slot being untouched by its own
// draw) yields the freshly seeded vector, and XORing out seed 1's LCG words
// leaves the table. TestPrefixTablesReproduceSeeding pins the result
// against math/rand for other seeds.
func derivePrefixTables() {
	lcgPow[0] = 1
	for n := 1; n < len(lcgPow); n++ {
		lcgPow[n] = uint32(uint64(lcgPow[n-1]) * lcgMul % lcgMod)
	}

	src := rand.NewSource(1).(rand.Source64)
	var out, vec [rngLen]uint64
	for k := 1; k <= rngLen; k++ {
		out[k-1] = src.Uint64()
		vec[feedSlot(k)] = out[k-1]
	}
	for k := rngLen; k >= 1; k-- {
		vec[feedSlot(k)] = out[k-1] - vec[tapSlot(k)]
	}
	for i := range rngAdd {
		rngAdd[i] = vec[i] ^ lcgWord(1, i)
	}
}

// feedSlot and tapSlot are the two vector slots draw k (1 ≤ k ≤ rngLen)
// reads; the sum is stored back into feedSlot.
func feedSlot(k int) int { return (2*rngLen - rngTap - k) % rngLen }
func tapSlot(k int) int  { return (rngLen - k) % rngLen }

// foldSeed maps a seed onto the LCG's state space exactly as math/rand's
// Seed does. The map is idempotent: rand.NewSource(int64(foldSeed(s))) is
// the same generator as rand.NewSource(s).
func foldSeed(seed int64) uint32 {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint32(seed)
}

// lcgWord is the LCG part of freshly seeded vector word i for folded seed x0.
func lcgWord(x0 uint32, i int) uint64 {
	step := func(n int) uint64 { return uint64(x0) * uint64(lcgPow[n]) % lcgMod }
	n := lcgFirst + 3*i
	return step(n)<<40 ^ step(n+1)<<20 ^ step(n+2)
}

// seededWord is word i of the vector rand.NewSource leaves behind.
func seededWord(x0 uint32, i int) uint64 { return lcgWord(x0, i) ^ rngAdd[i] }

// prefixSource is rand.NewSource(seed) without the 4.9 kB vector and the
// 1,800-step seeding loop, for as long as that is possible: the first
// rngTap draws are computed from the seed (six modular multiplications
// each); the next one builds the real source, skips what was already
// drawn, and every draw from then on is math/rand's own (a fifth of the
// cost per draw, which is why the hand-over is not put off further).
type prefixSource struct {
	x0    uint32
	drawn uint32
	full  rand.Source64 // set by the draw after the stateless prefix
}

func (s *prefixSource) Uint64() uint64 {
	if s.full != nil {
		return s.full.Uint64()
	}
	if s.drawn == rngTap {
		s.full = rand.NewSource(int64(s.x0)).(rand.Source64)
		for i := 0; i < rngTap; i++ {
			s.full.Uint64()
		}
		return s.full.Uint64()
	}
	s.drawn++
	k := int(s.drawn)
	return seededWord(s.x0, feedSlot(k)) + seededWord(s.x0, tapSlot(k))
}

func (s *prefixSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Seed is required by rand.Source; streams are seeded by name and never
// re-seeded.
func (s *prefixSource) Seed(int64) { panic("sim: stream sources cannot be re-seeded") }
