// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used throughout the PPLB simulator.
//
// Reproducibility is a hard requirement of the experiment harness: every
// stochastic decision (the arbiter of §5.2, workload generation, link-fault
// sampling) must be replayable from a single run seed, and the parallel
// simulation engine must produce bit-identical streams to the sequential one.
// The standard library's math/rand shares one stream per Source, which makes
// per-entity determinism awkward; instead each entity (node, link, workload
// generator) owns an independent stream derived with Split.
//
// The generator is xoshiro256** seeded via splitmix64, the construction
// recommended by its authors for arbitrary 64-bit seeds.
package rng

import "math"

// RNG is a deterministic pseudo-random number generator (xoshiro256**).
// It is not safe for concurrent use; derive per-goroutine streams with Split.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances the seed and returns the next splitmix64 output.
// It is used to expand a single 64-bit seed into the 256-bit xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Distinct seeds give streams that
// are independent for all practical purposes.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator state as if it had been created by New(seed).
func (r *RNG) Reseed(seed uint64) {
	x := seed
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	r.s2 = splitmix64(&x)
	r.s3 = splitmix64(&x)
	// xoshiro must not be seeded with an all-zero state; splitmix64 of any
	// seed cannot produce four zero words, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 1
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split derives an independent child stream. The child is keyed by both the
// parent state and the label, so Split(a) and Split(b) with a != b give
// unrelated streams, and repeated Split(a) calls on an untouched parent are
// deterministic. The parent stream is not advanced.
func (r *RNG) Split(label uint64) *RNG {
	c := &RNG{}
	r.SplitInto(label, c)
	return c
}

// SplitInto derives the same child stream as Split(label) but writes it into
// dst instead of allocating, so hot loops (one stream per node per tick) can
// reuse a scratch generator. The parent stream is not advanced.
func (r *RNG) SplitInto(label uint64, dst *RNG) {
	// Mix the full parent state with the label through splitmix64.
	x := r.s0 ^ rotl(r.s1, 13) ^ rotl(r.s2, 29) ^ rotl(r.s3, 43) ^ (label * 0x9e3779b97f4a7c15)
	dst.s0 = splitmix64(&x)
	dst.s1 = splitmix64(&x)
	dst.s2 = splitmix64(&x)
	dst.s3 = splitmix64(&x)
	if dst.s0|dst.s1|dst.s2|dst.s3 == 0 {
		dst.s0 = 1
	}
}

// State returns the raw 256-bit xoshiro state. Together with SetState it
// lets the engine snapshot/restore layer serialize stream positions exactly;
// the words are an opaque encoding, not a seed.
func (r *RNG) State() [4]uint64 {
	return [4]uint64{r.s0, r.s1, r.s2, r.s3}
}

// SetState overwrites the generator state with words previously obtained from
// State. An all-zero state is invalid for xoshiro and is nudged the same way
// Reseed guards against it.
func (r *RNG) SetState(s [4]uint64) {
	r.s0, r.s1, r.s2, r.s3 = s[0], s[1], s[2], s[3]
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 1
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be faster, but
	// simple rejection keeps the implementation obviously correct.
	max := uint64(n)
	limit := (^uint64(0) / max) * max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// IntBetween returns a uniform int in [lo, hi] inclusive. It panics when
// hi < lo. Scenario generators use it for bounded structural draws (sizes,
// tick counts, periods) where an inclusive range reads more naturally than
// lo+Intn(hi-lo+1) at every call site.
func (r *RNG) IntBetween(lo, hi int) int {
	if hi < lo {
		panic("rng: IntBetween with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Pick returns an index in [0, len(weights)) with probability proportional
// to its weight. Non-positive weights are treated as zero; if every weight
// is zero the choice is uniform. Scenario generators use it to skew draws
// towards the interesting cases without a ladder of Bernoulli calls.
func (r *RNG) Pick(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: Pick with no weights")
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	last := 0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
		last = i
	}
	return last // float residue: land on the last positive weight
}

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bernoulli reports true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (polar Box-Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Poisson returns a Poisson variate with the given mean. For small means it
// uses Knuth's product method; for large means a normal approximation, which
// is accurate enough for workload generation.
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := mean + math.Sqrt(mean)*r.NormFloat64()
	if v < 0 {
		return 0
	}
	return int(v + 0.5)
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
