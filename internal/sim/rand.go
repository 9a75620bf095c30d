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
// sequences. A stream costs a few words until its first draw: large fabrics
// name streams for every host, switch and link up front, and most of them
// are never drawn from.
func (s *Source) Stream(name string) *Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return &Rand{seed: int64(h.Sum64()) ^ (s.seed * 0x4F1BBCDCBFA53E0B)}
}

// Rand is a deterministic random stream with helpers for the distributions
// the simulator needs. It is not safe for concurrent use, matching the
// single-threaded engine.
type Rand struct {
	seed int64
	rng  *rand.Rand // built from seed by the first draw
}

// src returns the generator, seeding it on first use: a math/rand source is
// 4.9 kB and takes microseconds to seed, and the draw sequence does not
// depend on when that happens.
func (r *Rand) src() *rand.Rand {
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(r.seed))
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
