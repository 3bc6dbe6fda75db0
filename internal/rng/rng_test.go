package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical seeds diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds collided %d/1000 times", same)
	}
}

func TestReseedRestoresStream(t *testing.T) {
	r := New(7)
	first := make([]uint64, 10)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("Reseed did not restore stream at %d: got %d want %d", i, got, first[i])
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	c1again := parent.Split(1)

	if c1.Uint64() != c1again.Uint64() {
		t.Fatal("Split with same label on untouched parent must be deterministic")
	}
	// Streams with different labels must differ.
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("sibling streams collided %d/100 times", same)
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a := New(5)
	b := New(5)
	_ = a.Split(123)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split advanced the parent stream")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(6)
	seen := make(map[int]int)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		seen[v]++
	}
	for v := 0; v < 7; v++ {
		if seen[v] == 0 {
			t.Fatalf("Intn(7) never produced %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(8)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := New(9)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	freq := float64(hits) / n
	if math.Abs(freq-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", freq)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(10)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("exponential variate negative: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(12)
	for _, mean := range []float64{0.5, 3, 12, 80} {
		const n = 50000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Fatalf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
}

func TestPoissonNonPositiveMean(t *testing.T) {
	r := New(13)
	if r.Poisson(0) != 0 || r.Poisson(-5) != 0 {
		t.Fatal("Poisson with non-positive mean must return 0")
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(15)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("Shuffle changed element multiset: sum %d -> %d", sum, got)
	}
}

func TestRangeBounds(t *testing.T) {
	r := New(16)
	for i := 0; i < 1000; i++ {
		v := r.Range(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Range(-3,7) out of bounds: %v", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Float64()
	}
}

func TestSplitIntoMatchesSplit(t *testing.T) {
	parent := New(42)
	for label := uint64(0); label < 100; label++ {
		want := parent.Split(label)
		var got RNG
		parent.SplitInto(label, &got)
		for i := 0; i < 16; i++ {
			if a, b := want.Uint64(), got.Uint64(); a != b {
				t.Fatalf("label %d output %d: Split=%d SplitInto=%d", label, i, a, b)
			}
		}
	}
}

func BenchmarkSplitInto(b *testing.B) {
	parent := New(1)
	var child RNG
	for i := 0; i < b.N; i++ {
		parent.SplitInto(uint64(i), &child)
	}
}

// The engine's fault streams are derived by a two-level split — the fault
// base split by tick, then by task id. The child streams must be (a)
// deterministic and order-independent, and (b) distinct across both levels,
// or two transfers resolving in the same tick (or the same task across
// ticks) would share fault draws.
func TestTwoLevelSplitStreams(t *testing.T) {
	base := New(99)
	draw := func(tick, task uint64) uint64 {
		var level1, level2 RNG
		base.SplitInto(tick, &level1)
		level1.SplitInto(task, &level2)
		return level2.Uint64()
	}
	// Order independence: deriving (3, 7) before or after other streams
	// gives the same value (SplitInto never advances the parent).
	want := draw(3, 7)
	for tick := uint64(0); tick < 8; tick++ {
		for task := uint64(0); task < 8; task++ {
			draw(tick, task)
		}
	}
	if got := draw(3, 7); got != want {
		t.Fatalf("two-level split not stable: %d then %d", want, got)
	}
	// Distinctness across a grid of (tick, task) keys.
	seen := make(map[uint64][2]uint64)
	for tick := uint64(0); tick < 64; tick++ {
		for task := uint64(0); task < 64; task++ {
			v := draw(tick, task)
			if prev, ok := seen[v]; ok {
				t.Fatalf("streams (%d,%d) and (%d,%d) collide on first output", tick, task, prev[0], prev[1])
			}
			seen[v] = [2]uint64{tick, task}
		}
	}
}

func TestIntBetween(t *testing.T) {
	r := New(11)
	seen := make(map[int]bool)
	for i := 0; i < 2000; i++ {
		v := r.IntBetween(3, 9)
		if v < 3 || v > 9 {
			t.Fatalf("IntBetween(3,9) = %d out of range", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 9; v++ {
		if !seen[v] {
			t.Fatalf("IntBetween(3,9) never produced %d in 2000 draws", v)
		}
	}
	if got := r.IntBetween(5, 5); got != 5 {
		t.Fatalf("degenerate IntBetween(5,5) = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("IntBetween(2,1) must panic")
		}
	}()
	r.IntBetween(2, 1)
}

func TestPick(t *testing.T) {
	r := New(12)
	counts := make([]int, 4)
	const draws = 40000
	for i := 0; i < draws; i++ {
		counts[r.Pick([]float64{1, 0, 3, 0})]++
	}
	if counts[1] != 0 || counts[3] != 0 {
		t.Fatalf("zero-weight entries drawn: %v", counts)
	}
	// 1:3 split, generous tolerance.
	frac := float64(counts[0]) / draws
	if frac < 0.20 || frac > 0.30 {
		t.Fatalf("weight-1 entry drawn with frequency %.3f, want ~0.25", frac)
	}
	// All-zero weights fall back to uniform over every index.
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		seen[r.Pick([]float64{0, 0, 0})] = true
	}
	if len(seen) != 3 {
		t.Fatalf("uniform fallback covered %d of 3 indices", len(seen))
	}
}

// State/SetState must capture the exact stream position: a restored generator
// produces the identical remaining sequence, and restoring mid-stream does
// not perturb the original.
func TestStateRoundTrip(t *testing.T) {
	r := New(0xDECAF)
	for i := 0; i < 17; i++ {
		r.Uint64() // advance to a mid-stream position
	}
	saved := r.State()
	want := make([]uint64, 32)
	for i := range want {
		want[i] = r.Uint64()
	}
	var restored RNG
	restored.SetState(saved)
	for i, w := range want {
		if got := restored.Uint64(); got != w {
			t.Fatalf("draw %d after restore: got %#x, want %#x", i, got, w)
		}
	}
	// Splits from a restored generator must match too (Split reads the full
	// state without advancing it).
	restored.SetState(saved)
	orig := New(0xDECAF)
	for i := 0; i < 17; i++ {
		orig.Uint64()
	}
	if a, b := orig.Split(9).Uint64(), restored.Split(9).Uint64(); a != b {
		t.Fatalf("Split after restore diverges: %#x vs %#x", a, b)
	}
	// The all-zero guard mirrors Reseed.
	var z RNG
	z.SetState([4]uint64{})
	if z.State() == ([4]uint64{}) {
		t.Fatal("SetState accepted the invalid all-zero xoshiro state")
	}
}
