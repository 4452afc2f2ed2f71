// Package xrand provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// The simulator must be bit-for-bit reproducible across runs and platforms,
// and different components (each core's trace generator, the scheduler's
// tie-breaker, ...) must draw from independent streams. xrand implements
// SplitMix64 for seeding and xoshiro256** for generation; both are public
// domain algorithms with well-studied statistical behavior and no global
// state.
package xrand

import (
	"math"
	"math/bits"
)

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used to derive well-distributed seeds from arbitrary user seeds.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** generator. The zero value is not usable; construct
// with New or NewStream.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed. Any seed value, including zero,
// produces a valid, full-period generator state.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// A theoretical all-zero expansion would break xoshiro; splitmix64 cannot
	// produce four zero outputs in a row, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// NewStream returns a generator for logical stream `stream` of the given
// base seed. Distinct (seed, stream) pairs yield statistically independent
// sequences, which lets each core, channel, and component own a private
// stream derived from one run seed.
func NewStream(seed, stream uint64) *Rand {
	sm := seed
	a := splitMix64(&sm)
	sm = stream ^ 0xd1b54a32d192ed03
	b := splitMix64(&sm)
	return New(a ^ (b * 0x2545f4914f6cdd1d))
}

// Uint64 returns the next 64 uniformly distributed bits. The step works on
// locals so that it is cheap enough to inline into its callers.
func (r *Rand) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	s2 ^= s0
	s3 ^= s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	// Lemire multiply-shift with rejection: accept unless the low half of the
	// 128-bit product falls below (-n mod n), which would bias small residues.
	// That bound is below n, so the division is needed only when lo is.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Uint53 returns the next 53 uniformly distributed bits: the integer x for
// which Float64 would have returned x·2^-53 from the same draw.
func (r *Rand) Uint53() uint64 { return r.Uint64() >> 11 }

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint53()) / (1 << 53)
}

// Prob is a probability p prepared for integer draws: the threshold
// ⌈p·2^53⌉, clamped to [0, 2^53]. Uint53() < uint64(NewProb(p)) holds exactly
// when Float64() < p would have held for the same draw, because Float64 is
// x·2^-53 for an integer x, p·2^53 is exact, and an integer is below a real
// number exactly when it is below that number's ceiling.
type Prob uint64

// probOne is the Prob of every p >= 1.
const probOne = 1 << 53

// NewProb prepares p. Every p <= 0, and NaN, becomes 0.
func NewProb(p float64) Prob {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return probOne
	}
	return Prob(math.Ceil(p * (1 << 53)))
}

// Hit returns true with probability p: it returns Float64() < p from one
// draw. A p of 0 returns false and a p of 1 true, without drawing.
//
// Its inline cost must stay at most 80, Go's budget (check with
// go build -gcflags=-m=2): the generator and the core call it several
// times per instruction, and a call that does not inline costs more than
// the draw. Testing 0 < p < 1 first, and spelling out Uint53, keeps it there.
func (r *Rand) Hit(p Prob) bool {
	if p-1 < probOne-1 {
		return r.Uint64()>>11 < uint64(p)
	}
	return p != 0
}

// Bernoulli returns true with probability p (clamped to [0, 1]). It is
// Hit(NewProb(p)); callers that draw with one p repeatedly prepare it once.
func (r *Rand) Bernoulli(p float64) bool { return r.Hit(NewProb(p)) }

// Geometric returns a sample from the geometric distribution with the given
// mean (mean >= 1): the number of trials up to and including the first
// success when each trial succeeds with probability 1/mean. It is used to
// draw run lengths (e.g. sequential-access burst lengths).
func (r *Rand) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1.0 / mean
	u := r.Float64()
	// Inverse CDF; u in [0,1). Add tiny epsilon guard against log(0).
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	n := int(math.Log(1-u)/math.Log(1-p)) + 1
	if n < 1 {
		n = 1
	}
	return n
}

// Perm fills dst with a uniform random permutation of [0, len(dst)).
func (r *Rand) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}
