// Package rng implements a small, deterministic pseudo-random number
// generator and the distributions the Oasis simulator draws from.
//
// The simulator must produce identical results for identical seeds across
// Go releases, so we do not use math/rand (whose stream is only stable
// within a major version for the top-level functions). The core generator
// is xoshiro256**, seeded via splitmix64, which is fast, has a 2^256-1
// period, and passes BigCrush.
package rng

import (
	"math"
	"math/bits"
)

// Rand is a deterministic random number generator. It is not safe for
// concurrent use; create one per goroutine or fork substreams with Fork.
type Rand struct {
	s [4]uint64
	// spare holds a cached second normal variate from Box-Muller.
	spare    float64
	hasSpare bool
}

// New returns a generator seeded from seed via splitmix64 so that nearby
// seeds still produce well-separated streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets r to the stream New(seed) starts, so a generator can live
// on the caller's stack (var r Rand; r.Seed(seed)) instead of the heap.
func (r *Rand) Seed(seed uint64) {
	*r = Rand{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// Avoid the all-zero state (cannot occur with splitmix64, but be safe).
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

// Fork derives an independent substream. It is used to give each simulated
// entity (VM, host, user) its own stream so that changing one entity's
// consumption does not perturb the others.
func (r *Rand) Fork() *Rand { return New(r.Uint64()) }

// Uint64 returns the next 64 random bits (xoshiro256**). The state is
// read into locals and stored back whole, which keeps the body within
// the compiler's inlining budget: a draw in a hot loop is then no call.
func (r *Rand) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	result := bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ t, bits.RotateLeft64(s3, 45)}
	return result
}

// Float64 returns a uniform variate in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n)) // bias negligible for simulator n
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n called with n <= 0")
	}
	return int64(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Threshold returns the integer form of a probability: Below(Threshold(p))
// consumes the same draw as Bool(p) and returns the same answer, with an
// integer compare in place of a conversion and a float compare. Float64
// is x/2⁵³ for the top 53 bits x of a draw, and both x/2⁵³ and p·2⁵³ are
// exact, so x/2⁵³ < p exactly when the integer x is below ⌈p·2⁵³⌉. A p
// at or above 1 gives 2⁵³ (always true), a p at or below 0 or NaN gives 0
// (never).
func Threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Below reports whether the top 53 bits of the next draw are below t:
// true with probability t/2⁵³. With t = Threshold(p) it is Bool(p).
func (r *Rand) Below(t uint64) bool { return r.Uint64()>>11 < t }

// Exp returns an exponential variate with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Norm returns a normal variate with the given mean and standard
// deviation, using the Box-Muller transform with a cached spare.
func (r *Rand) Norm(mean, stddev float64) float64 {
	if r.hasSpare {
		r.hasSpare = false
		return mean + stddev*r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return mean + stddev*u*m
}

// TruncNorm returns a normal variate clamped to [lo, hi] by resampling
// (falling back to clamping after a bounded number of attempts so that
// pathological parameters cannot loop forever).
func (r *Rand) TruncNorm(mean, stddev, lo, hi float64) float64 {
	for i := 0; i < 64; i++ {
		x := r.Norm(mean, stddev)
		if x >= lo && x <= hi {
			return x
		}
	}
	x := r.Norm(mean, stddev)
	return math.Min(math.Max(x, lo), hi)
}

// Mix64 deterministically combines two 64-bit values into a well-mixed
// seed via two splitmix64 finalization rounds. It is the substream
// derivation the fleet simulator and streaming trace generator use: a
// per-entity seed Mix64(base, index) is reproducible in isolation — no
// shared generator state — so entity k's stream can be regenerated
// without touching entities 0..k-1, in any order, from any goroutine.
func Mix64(a, b uint64) uint64 {
	z := a + 0x9e3779b97f4a7c15 + b*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
