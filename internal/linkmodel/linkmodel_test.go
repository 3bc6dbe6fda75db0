package linkmodel

import (
	"math"
	"testing"
	"testing/quick"

	"pplb/internal/topology"
)

func TestDefaultsUnitCost(t *testing.T) {
	g := topology.NewRing(5)
	p := New(g)
	for _, e := range g.Edges() {
		if c := p.Cost(e.U, e.V); c != 1 {
			t.Fatalf("default cost = %v, want 1", c)
		}
		if p.Latency(e.U, e.V) != 1 {
			t.Fatal("default latency must be 1")
		}
		if p.Fault(e.U, e.V) != 0 {
			t.Fatal("default fault must be 0")
		}
		if p.DeliveryFailureProb(e.U, e.V) != 0 {
			t.Fatal("default failure prob must be 0")
		}
	}
}

func TestUniformOptions(t *testing.T) {
	g := topology.NewRing(4)
	p := New(g,
		WithUniformBandwidth(2),
		WithUniformLength(4),
		WithUniformFault(0.1),
	)
	if p.Bandwidth(0, 1) != 2 || p.Length(0, 1) != 4 || p.Fault(0, 1) != 0.1 {
		t.Fatal("uniform options not applied")
	}
	// base = 4/2 = 2; cost = 2 / 0.9^2
	want := 2 / math.Pow(0.9, 2)
	if c := p.Cost(0, 1); math.Abs(c-want) > 1e-12 {
		t.Fatalf("cost = %v, want %v", c, want)
	}
	if p.Latency(0, 1) != 2 {
		t.Fatalf("latency = %d, want 2", p.Latency(0, 1))
	}
}

func TestCostMonotonicity(t *testing.T) {
	g := topology.NewRing(4)
	base := New(g, WithUniformBandwidth(1), WithUniformLength(1))
	slower := New(g, WithUniformBandwidth(0.5), WithUniformLength(1))
	longer := New(g, WithUniformBandwidth(1), WithUniformLength(2))
	flakier := New(g, WithUniformFault(0.3))
	if !(slower.Cost(0, 1) > base.Cost(0, 1)) {
		t.Fatal("lower bandwidth must increase cost")
	}
	if !(longer.Cost(0, 1) > base.Cost(0, 1)) {
		t.Fatal("longer link must increase cost")
	}
	if !(flakier.Cost(0, 1) > base.Cost(0, 1)) {
		t.Fatal("faultier link must increase cost")
	}
}

func TestCostObliviousIgnoresFaults(t *testing.T) {
	g := topology.NewRing(4)
	p := New(g, WithUniformFault(0.4), WithUniformLength(3))
	if p.CostOblivious(0, 1) != 3 {
		t.Fatalf("oblivious cost = %v, want 3", p.CostOblivious(0, 1))
	}
	if !(p.Cost(0, 1) > p.CostOblivious(0, 1)) {
		t.Fatal("fault-aware cost must exceed oblivious cost when f > 0")
	}
}

func TestFaultClamping(t *testing.T) {
	g := topology.NewRing(4)
	p := New(g, WithUniformFault(2.0)) // silly input clamps below 1
	f := p.Fault(0, 1)
	if f >= 1 || f < 0.999 {
		t.Fatalf("fault clamp wrong: %v", f)
	}
	if math.IsInf(p.Cost(0, 1), 1) || math.IsNaN(p.Cost(0, 1)) {
		t.Fatal("cost must stay finite for clamped faults")
	}
	p2 := New(g, WithUniformFault(-1))
	if p2.Fault(0, 1) != 0 {
		t.Fatal("negative fault must clamp to 0")
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	g := topology.NewRing(4)
	for _, f := range []func(){
		func() { New(g, WithUniformBandwidth(0)) },
		func() { New(g, WithUniformLength(-1)) },
		func() { New(g).Cost(0, 2) }, // not an edge in ring4
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestPanicsOnNonFiniteInput: NaN and +Inf parameters must be rejected like
// non-positive ones, not turned into a NaN or infinite Cost.
func TestPanicsOnNonFiniteInput(t *testing.T) {
	g := topology.NewRing(4)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"NaN bandwidth", WithBandwidthFn(func(u, v int) float64 { return nan })},
		{"+Inf bandwidth", WithBandwidthFn(func(u, v int) float64 { return inf })},
		{"NaN length", WithLengthFn(func(u, v int) float64 { return nan })},
		{"+Inf length", WithLengthFn(func(u, v int) float64 { return inf })},
		{"NaN fault", WithFaultFn(func(u, v int) float64 { return nan })},
		{"NaN uniform fault", WithUniformFault(nan)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			New(g, tc.opt)
		})
	}
	// Infinite faults are out of range but not NaN: clamped, as before.
	for _, f := range []float64{inf, -inf} {
		if c := New(g, WithUniformFault(f)).Cost(0, 1); math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("fault %v: cost %v, want finite", f, c)
		}
	}
}

func TestEdgeSymmetry(t *testing.T) {
	g := topology.NewTorus(3, 3)
	p := New(g, WithEuclideanLengths(g), WithUniformBandwidth(2))
	for _, e := range g.Edges() {
		if p.Cost(e.U, e.V) != p.Cost(e.V, e.U) {
			t.Fatal("cost must be symmetric")
		}
		if p.Latency(e.U, e.V) != p.Latency(e.V, e.U) {
			t.Fatal("latency must be symmetric")
		}
	}
}

func TestRandomFaultsDeterministic(t *testing.T) {
	g := topology.NewTorus(4, 4)
	p1 := New(g, WithRandomFaults(0.3, 99))
	p2 := New(g, WithRandomFaults(0.3, 99))
	differ := false
	for _, e := range g.Edges() {
		if p1.Fault(e.U, e.V) != p2.Fault(e.U, e.V) {
			t.Fatal("random faults must be deterministic per seed")
		}
		if p1.Fault(e.U, e.V) < 0 || p1.Fault(e.U, e.V) >= 0.3 {
			t.Fatalf("fault out of range: %v", p1.Fault(e.U, e.V))
		}
		if p1.Fault(e.U, e.V) != p1.Fault(g.Edges()[0].U, g.Edges()[0].V) {
			differ = true
		}
	}
	if !differ {
		t.Fatal("random faults should vary across links")
	}
}

func TestDeliveryFailureProb(t *testing.T) {
	g := topology.NewRing(4)
	p := New(g, WithUniformFault(0.2), WithUniformLength(3))
	// latency 3 → 1 - 0.8^3 = 0.488
	want := 1 - math.Pow(0.8, 3)
	if got := p.DeliveryFailureProb(0, 1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("failure prob = %v, want %v", got, want)
	}
}

func TestMaxCost(t *testing.T) {
	g := topology.NewRing(4)
	p := New(g, WithLengthFn(func(u, v int) float64 { return float64(u + v + 1) }))
	want := 0.0
	for _, e := range g.Edges() {
		if c := p.Cost(e.U, e.V); c > want {
			want = c
		}
	}
	if p.MaxCost() != want {
		t.Fatalf("MaxCost = %v, want %v", p.MaxCost(), want)
	}
}

func TestCostScaleAndExponent(t *testing.T) {
	g := topology.NewRing(4)
	p := New(g, WithCostScale(5))
	if p.Cost(0, 1) != 5 {
		t.Fatalf("scaled cost = %v", p.Cost(0, 1))
	}
	pe := New(g, WithUniformFault(0.5), WithFaultExponent(2))
	pe1 := New(g, WithUniformFault(0.5), WithFaultExponent(1))
	if !(pe.Cost(0, 1) > pe1.Cost(0, 1)) {
		t.Fatal("larger fault exponent must increase cost")
	}
}

// Property: cost is always >= the oblivious cost, both positive and finite.
func TestCostBoundsQuick(t *testing.T) {
	g := topology.NewTorus(4, 4)
	f := func(bwSeed, dSeed, fSeed uint8) bool {
		bw := 0.1 + float64(bwSeed)/32
		d := 0.1 + float64(dSeed)/32
		fault := float64(fSeed%100) / 101
		p := New(g,
			WithUniformBandwidth(bw),
			WithUniformLength(d),
			WithUniformFault(fault),
		)
		c := p.Cost(0, 1)
		co := p.CostOblivious(0, 1)
		return c >= co && c > 0 && !math.IsInf(c, 1) && !math.IsNaN(c) && p.Latency(0, 1) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCost(b *testing.B) {
	g := topology.NewTorus(16, 16)
	p := New(g, WithUniformFault(0.05))
	edges := g.Edges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		_ = p.Cost(e.U, e.V)
	}
}

func TestByEdgeAccessorsMatch(t *testing.T) {
	g := topology.NewTorus(4, 4)
	p := New(g,
		WithRandomFaults(0.2, 7),
		WithBandwidthFn(func(u, v int) float64 { return 1 + float64((u+v)%3) }),
		WithLengthFn(func(u, v int) float64 { return 1 + float64(u%2) }),
		WithCostScale(1.5),
		WithFaultExponent(2),
	)
	for v := 0; v < g.N(); v++ {
		ns := g.Neighbors(v)
		ids := g.IncidentEdgeIDs(v)
		for k, u := range ns {
			id := ids[k]
			if got, want := p.CostByEdge(id), p.Cost(v, u); got != want {
				t.Fatalf("CostByEdge(%d)=%v, Cost(%d,%d)=%v", id, got, v, u, want)
			}
			if got, want := p.CostObliviousByEdge(id), p.CostOblivious(v, u); got != want {
				t.Fatalf("CostObliviousByEdge mismatch on edge %d", id)
			}
			if got, want := p.LatencyByEdge(id), p.Latency(v, u); got != want {
				t.Fatalf("LatencyByEdge mismatch on edge %d", id)
			}
			if got, want := p.DeliveryFailureProbByEdge(id), p.DeliveryFailureProb(v, u); got != want {
				t.Fatalf("DeliveryFailureProbByEdge mismatch on edge %d", id)
			}
		}
	}
}

// Latency is max(1, round(d/bw)), rounding halves away from zero, and the
// failure probability compounds over exactly that many ticks.
func TestLatencyRoundingBoundaries(t *testing.T) {
	g := topology.NewRing(4)
	ratios := []float64{0.4, 1.49, 1.5, 2.5}
	want := []int{1, 1, 2, 3}
	p := New(g,
		WithLengthFn(func(u, v int) float64 {
			id, _ := g.EdgeID(u, v)
			return ratios[id]
		}),
		WithUniformFault(0.1),
	)
	for id, e := range g.Edges() {
		if got := p.LatencyByEdge(id); got != want[id] {
			t.Errorf("d/bw = %v: LatencyByEdge = %d, want %d", ratios[id], got, want[id])
		}
		if got := p.Latency(e.U, e.V); got != want[id] {
			t.Errorf("d/bw = %v: Latency = %d, want %d", ratios[id], got, want[id])
		}
		if got, fp := p.DeliveryFailureProbByEdge(id), 1-math.Pow(0.9, float64(want[id])); got != fp {
			t.Errorf("d/bw = %v: failure probability %v, want %v", ratios[id], got, fp)
		}
	}
}
