// Package stats provides the small statistics kit used by the metrics layer
// and the experiment harness: batch moments, extremes and percentiles, and
// online (Welford) accumulation.
//
// All functions define their behaviour on empty input (returning zero values
// rather than NaN) because the simulator frequently summarises series that may
// legitimately be empty, e.g. "migrations per tick" before the first transfer.
package stats

import (
	"math"
	"sort"
)

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// values. Population (not sample) variance is the convention throughout the
// load-imbalance metrics, matching the coefficient-of-variation definition
// used in the load-balancing literature.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CV returns the coefficient of variation (stddev/mean) of xs. A perfectly
// balanced load vector has CV 0. If the mean is zero the CV is defined as 0:
// an all-zero load vector is balanced.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Min returns the minimum of xs, or 0 for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Online accumulates a running mean and variance using Welford's algorithm,
// avoiding a second pass and catastrophic cancellation. The zero value is
// ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	delta := x - o.mean
	o.mean += delta / float64(o.n)
	o.m2 += delta * (x - o.mean)
}

// N returns the number of accumulated values.
func (o *Online) N() int { return o.n }

// Mean returns the running mean, or 0 if no values were added.
func (o *Online) Mean() float64 { return o.mean }

// Variance returns the running population variance.
func (o *Online) Variance() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n)
}

// StdDev returns the running population standard deviation.
func (o *Online) StdDev() float64 { return math.Sqrt(o.Variance()) }

// Min returns the smallest value added, or 0 if none.
func (o *Online) Min() float64 { return o.min }

// Max returns the largest value added, or 0 if none.
func (o *Online) Max() float64 { return o.max }

// OnlineState is the exact internal state of an Online accumulator, exposed
// for snapshot/restore. The float fields are raw accumulator values; restoring
// them bit-for-bit reproduces the accumulator mid-stream.
type OnlineState struct {
	N    int
	Mean float64
	M2   float64
	Min  float64
	Max  float64
}

// State returns the accumulator's internal state for serialization.
func (o *Online) State() OnlineState {
	return OnlineState{N: o.n, Mean: o.mean, M2: o.m2, Min: o.min, Max: o.max}
}

// SetState overwrites the accumulator with a state obtained from State.
func (o *Online) SetState(s OnlineState) {
	o.n, o.mean, o.m2, o.min, o.max = s.N, s.Mean, s.M2, s.Min, s.Max
}
