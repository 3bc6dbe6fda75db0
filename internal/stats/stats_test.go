package stats

import (
	"math"
	"testing"
	"testing/quick"

	"pplb/internal/rng"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSumMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Sum(xs) != 10 {
		t.Fatalf("Sum = %v", Sum(xs))
	}
	if Mean(xs) != 2.5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
}

func TestEmptyInputs(t *testing.T) {
	var empty []float64
	if Sum(empty) != 0 || Mean(empty) != 0 || Variance(empty) != 0 ||
		StdDev(empty) != 0 || CV(empty) != 0 || Min(empty) != 0 ||
		Max(empty) != 0 || Percentile(empty, 50) != 0 {
		t.Fatal("statistics of empty input must all be 0")
	}
}

func TestVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !approx(Variance(xs), 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", Variance(xs))
	}
	if !approx(StdDev(xs), 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", StdDev(xs))
	}
}

func TestCVBalanced(t *testing.T) {
	if CV([]float64{5, 5, 5, 5}) != 0 {
		t.Fatal("CV of constant vector must be 0")
	}
	if CV([]float64{0, 0, 0}) != 0 {
		t.Fatal("CV of zero vector defined as 0")
	}
	if CV([]float64{0, 10}) <= 0 {
		t.Fatal("CV of imbalanced vector must be positive")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !approx(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{10, 20}, 50); !approx(got, 15, 1e-12) {
		t.Errorf("interpolated median = %v, want 15", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	r := rng.New(77)
	xs := make([]float64, 500)
	var o Online
	for i := range xs {
		xs[i] = r.Range(-10, 10)
		o.Add(xs[i])
	}
	if o.N() != len(xs) {
		t.Fatalf("Online.N = %d", o.N())
	}
	if !approx(o.Mean(), Mean(xs), 1e-9) {
		t.Fatalf("online mean %v vs batch %v", o.Mean(), Mean(xs))
	}
	if !approx(o.Variance(), Variance(xs), 1e-9) {
		t.Fatalf("online variance %v vs batch %v", o.Variance(), Variance(xs))
	}
	if o.Min() != Min(xs) || o.Max() != Max(xs) {
		t.Fatal("online min/max disagree with batch")
	}
}

func TestOnlineZeroValue(t *testing.T) {
	var o Online
	if o.N() != 0 || o.Mean() != 0 || o.Variance() != 0 || o.Min() != 0 || o.Max() != 0 {
		t.Fatal("zero-value Online must report zeros")
	}
}

// Property: variance is non-negative and CV is scale-invariant.
func TestVariancePropertyQuick(t *testing.T) {
	r := rng.New(123)
	f := func(n uint8, scaleSeed uint16) bool {
		size := int(n%32) + 2
		xs := make([]float64, size)
		for i := range xs {
			xs[i] = r.Range(0.1, 100)
		}
		if Variance(xs) < 0 {
			return false
		}
		scale := 0.5 + float64(scaleSeed%100)/10
		scaled := make([]float64, size)
		for i := range xs {
			scaled[i] = xs[i] * scale
		}
		return approx(CV(xs), CV(scaled), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneQuick(t *testing.T) {
	r := rng.New(321)
	f := func(n uint8) bool {
		size := int(n%50) + 1
		xs := make([]float64, size)
		for i := range xs {
			xs[i] = r.Range(-100, 100)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := Percentile(xs, p)
			if v < prev-1e-12 || v < Min(xs)-1e-12 || v > Max(xs)+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Online State/SetState must round-trip the exact accumulator internals, so
// the engine's snapshot layer can restore mid-stream Welford moments
// bit-for-bit.
func TestOnlineStateRoundTrip(t *testing.T) {
	var o Online
	for _, x := range []float64{3.5, -1.25, 7, 0.125, 2.75, 9.5, -4} {
		o.Add(x)
	}
	var r Online
	r.SetState(o.State())
	if r.N() != o.N() || r.Mean() != o.Mean() || r.Variance() != o.Variance() ||
		r.Min() != o.Min() || r.Max() != o.Max() {
		t.Fatalf("restored accumulator differs: %+v vs %+v", r.State(), o.State())
	}
	// Continuing to accumulate must stay bit-identical.
	o.Add(11.5)
	r.Add(11.5)
	if o.State() != r.State() {
		t.Fatalf("post-restore Add diverges: %+v vs %+v", o.State(), r.State())
	}
}
