// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulators.
//
// All simulation components draw randomness from an *rng.Source seeded from
// the experiment configuration, so every run is exactly reproducible. The
// generator is xoshiro256**, which has a 256-bit state, passes BigCrush, and
// supports cheap "splitting": deriving independent child streams for
// sub-components (per-flow jitter, per-router drop thresholds, ...) without
// sharing state or locks.
package rng

import "math"

// Source is a deterministic xoshiro256** pseudo-random number generator.
// It is not safe for concurrent use; derive per-goroutine children with
// Split instead of sharing one Source.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via SplitMix64 state expansion,
// which guarantees a well-mixed non-zero initial state for any seed,
// including zero.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets the generator state as if freshly created with New(seed).
func (s *Source) Reseed(seed uint64) {
	x := seed
	for i := range s.s {
		x = splitMix64(&x)
		s.s[i] = x
	}
}

// splitMix64 advances *x and returns the next SplitMix64 output.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 uniformly random bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9

	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)

	return result
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Split returns a new Source whose stream is statistically independent of
// the receiver's. The receiver advances by one output.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return s.Uint64() & (n - 1)
	}
	// Lemire rejection sampling on the high 64 bits of the 128-bit product.
	thresh := -n % n
	for {
		v := s.Uint64()
		hi, lo := mul64(v, n)
		if lo >= thresh {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32

	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1
// (mean 1), via inverse-CDF sampling.
func (s *Source) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// NormFloat64 returns a standard normal float64 via the Box-Muller polar
// (Marsaglia) method.
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap, which
// exchanges the elements at indexes i and j (Fisher-Yates).
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Zipf samples integers in [0, n) with probability proportional to
// 1/(rank+1)^alpha. It precomputes the CDF once; use NewZipf for repeated
// sampling.
type Zipf struct {
	cdf []float64
	src *Source
}

// NewZipf builds a Zipf sampler over [0, n) with exponent alpha > 0.
func NewZipf(src *Source, n int, alpha float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, src: src}
}

// Next returns the next Zipf-distributed sample in [0, n).
func (z *Zipf) Next() int {
	u := z.src.Float64()
	// Binary search for the first CDF entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// N returns the number of ranks the sampler draws from.
func (z *Zipf) N() int { return len(z.cdf) }
