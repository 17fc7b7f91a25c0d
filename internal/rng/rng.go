// Package rng provides the deterministic pseudo-random number generators used
// by every stochastic component of the simulator.
//
// Reproducibility is a hard requirement: the paper's probabilistic injection
// model produces the temperature fluctuations visible in Figure 2, and the
// evaluation harness must regenerate identical traces for identical seeds
// regardless of Go version or platform. We therefore implement our own small
// generator (splitmix64 seeding a xoshiro256**) instead of relying on
// math/rand, whose stream is not guaranteed stable across releases.
//
// Components derive independent substreams from a parent via Split, so adding
// a consumer of randomness in one subsystem never perturbs another.
package rng

import "math"

// Source is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New or Split.
type Source struct {
	s     [4]uint64
	draws *uint64
}

// splitmix64 advances the given state and returns the next output. It is used
// only to expand seeds into full generator state, as recommended by the
// xoshiro authors.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given value. Any seed, including zero,
// yields a valid generator.
func New(seed uint64) *Source {
	var r Source
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	return &r
}

// Split derives an independent child generator from r. The child's stream is
// a deterministic function of r's current state, and deriving it advances r
// exactly once, so sibling splits are themselves independent. A draw counter
// installed with Instrument is inherited by the child, so one counter
// observes an entire generator tree.
func (r *Source) Split() *Source {
	c := New(r.Uint64())
	c.draws = r.draws
	return c
}

// Instrument attaches a draw counter to r and every generator later Split
// from it: each Uint64 (and so every derived variate) increments *count. The
// scenario engine uses a zero post-build count as proof that a machine's
// dynamics never consumed randomness, which licenses replicating its result
// across seeds. Pass nil to detach. Not safe for concurrent draws on
// generators sharing one counter; instrumented machines are stepped by a
// single goroutine.
func (r *Source) Instrument(count *uint64) { r.draws = count }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	if r.draws != nil {
		*r.draws++
	}
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli reports true with probability p. Values of p outside [0, 1] are
// clamped: p <= 0 is always false, p >= 1 always true.
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Multiply-shift rejection-free mapping is fine at our scales; modulo
	// bias for n << 2^64 is far below any effect we measure.
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1) using the
// Marsaglia polar method.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponentially distributed variate with rate 1
// (mean 1). Scale by the desired mean.
func (r *Source) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// State returns the generator's four state words — the complete internal
// state, captured for checkpointing. Restoring it with SetState resumes the
// stream at exactly the next draw.
func (r *Source) State() [4]uint64 { return r.s }

// SetState overwrites the generator's internal state with words previously
// captured by State.
func (r *Source) SetState(s [4]uint64) { r.s = s }
