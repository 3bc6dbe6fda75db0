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
	for id := range g.Edges() {
		if c := p.CostByEdge(id); c != 1 {
			t.Fatalf("default cost = %v, want 1", c)
		}
		if p.CostObliviousByEdge(id) != 1 {
			t.Fatal("default oblivious cost must be 1")
		}
		if p.LatencyByEdge(id) != 1 {
			t.Fatal("default latency must be 1")
		}
		if p.DeliveryFailureProbByEdge(id) != 0 {
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
	id := edge(t, g, 0, 1)
	// base = 4/2 = 2; cost = 2 / 0.9^2
	if c := p.CostObliviousByEdge(id); c != 2 {
		t.Fatalf("oblivious cost = %v, want 2", c)
	}
	want := 2 / math.Pow(0.9, 2)
	if c := p.CostByEdge(id); math.Abs(c-want) > 1e-12 {
		t.Fatalf("cost = %v, want %v", c, want)
	}
	if p.LatencyByEdge(id) != 2 {
		t.Fatalf("latency = %d, want 2", p.LatencyByEdge(id))
	}
	if got, want := p.DeliveryFailureProbByEdge(id), 1-math.Pow(0.9, 2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("failure prob = %v, want %v", got, want)
	}
}

func TestCostMonotonicity(t *testing.T) {
	g := topology.NewRing(4)
	base := New(g, WithUniformBandwidth(1), WithUniformLength(1))
	slower := New(g, WithUniformBandwidth(0.5), WithUniformLength(1))
	longer := New(g, WithUniformBandwidth(1), WithUniformLength(2))
	flakier := New(g, WithUniformFault(0.3))
	id := edge(t, g, 0, 1)
	if !(slower.CostByEdge(id) > base.CostByEdge(id)) {
		t.Fatal("lower bandwidth must increase cost")
	}
	if !(longer.CostByEdge(id) > base.CostByEdge(id)) {
		t.Fatal("longer link must increase cost")
	}
	if !(flakier.CostByEdge(id) > base.CostByEdge(id)) {
		t.Fatal("faultier link must increase cost")
	}
}

func TestCostObliviousIgnoresFaults(t *testing.T) {
	g := topology.NewRing(4)
	p := New(g, WithUniformFault(0.4), WithUniformLength(3))
	id := edge(t, g, 0, 1)
	if p.CostObliviousByEdge(id) != 3 {
		t.Fatalf("oblivious cost = %v, want 3", p.CostObliviousByEdge(id))
	}
	if !(p.CostByEdge(id) > p.CostObliviousByEdge(id)) {
		t.Fatal("fault-aware cost must exceed oblivious cost when f > 0")
	}
}

func TestFaultClamping(t *testing.T) {
	g := topology.NewRing(4)
	id := edge(t, g, 0, 1)
	p := New(g, WithUniformFault(2.0)) // silly input clamps below 1
	if f := p.DeliveryFailureProbByEdge(id); f >= 1 || f < 0.999 {
		t.Fatalf("fault clamp wrong: failure prob %v", f)
	}
	if math.IsInf(p.CostByEdge(id), 1) || math.IsNaN(p.CostByEdge(id)) {
		t.Fatal("cost must stay finite for clamped faults")
	}
	p2 := New(g, WithUniformFault(-1))
	if p2.DeliveryFailureProbByEdge(id) != 0 || p2.CostByEdge(id) != p2.CostObliviousByEdge(id) {
		t.Fatal("negative fault must clamp to 0")
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	g := topology.NewRing(4)
	for _, f := range []func(){
		func() { New(g, WithUniformBandwidth(0)) },
		func() { New(g, WithUniformLength(-1)) },
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
// non-positive ones, not turned into a NaN or infinite cost.
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
		if c := New(g, WithUniformFault(f)).CostByEdge(0); math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("fault %v: cost %v, want finite", f, c)
		}
	}
}

// Both endpoints of a link reach the same parameters through their incident
// edge ids, so the cost and latency of u→v and v→u agree.
func TestEdgeSymmetry(t *testing.T) {
	g := topology.NewTorus(3, 3)
	p := New(g, WithLengthFn(func(u, v int) float64 { return 1 + float64(u*v%4) }), WithUniformBandwidth(2))
	for v := range g.N() {
		for k, u := range g.Neighbors(v) {
			id := g.IncidentEdgeIDs(v)[k]
			back := edge(t, g, u, v)
			if id != back {
				t.Fatalf("edge %d-%d: id %d from %d, %d from %d", v, u, id, v, back, u)
			}
			if p.CostByEdge(id) != p.CostByEdge(back) || p.LatencyByEdge(id) != p.LatencyByEdge(back) {
				t.Fatal("cost and latency must be symmetric")
			}
		}
	}
}

func TestRandomFaultsDeterministic(t *testing.T) {
	g := topology.NewTorus(4, 4)
	p1 := New(g, WithRandomFaults(0.3, 99))
	p2 := New(g, WithRandomFaults(0.3, 99))
	differ := false
	// Unit latency: the failure probability is the link's fault
	// probability.
	for id := range g.Edges() {
		f := p1.DeliveryFailureProbByEdge(id)
		if f != p2.DeliveryFailureProbByEdge(id) || p1.CostByEdge(id) != p2.CostByEdge(id) {
			t.Fatal("random faults must be deterministic per seed")
		}
		if f < 0 || f >= 0.3 {
			t.Fatalf("fault out of range: %v", f)
		}
		if f != p1.DeliveryFailureProbByEdge(0) {
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
	if got := p.DeliveryFailureProbByEdge(edge(t, g, 0, 1)); math.Abs(got-want) > 1e-12 {
		t.Fatalf("failure prob = %v, want %v", got, want)
	}
}

func TestCostScaleAndExponent(t *testing.T) {
	g := topology.NewRing(4)
	id := edge(t, g, 0, 1)
	p := New(g, WithCostScale(5))
	if p.CostByEdge(id) != 5 || p.CostObliviousByEdge(id) != 5 {
		t.Fatalf("scaled cost = %v, oblivious %v", p.CostByEdge(id), p.CostObliviousByEdge(id))
	}
	pe := New(g, WithUniformFault(0.5), WithFaultExponent(2))
	pe1 := New(g, WithUniformFault(0.5), WithFaultExponent(1))
	if !(pe.CostByEdge(id) > pe1.CostByEdge(id)) {
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
		c := p.CostByEdge(0)
		co := p.CostObliviousByEdge(0)
		return c >= co && c > 0 && !math.IsInf(c, 1) && !math.IsNaN(c) && p.LatencyByEdge(0) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Every per-edge value is the §4.2 formula applied to the parameters the
// options give that edge's endpoints.
func TestByEdgeAccessorsMatch(t *testing.T) {
	g := topology.NewTorus(4, 4)
	bw := func(u, v int) float64 { return 1 + float64((u+v)%3) }
	d := func(u, v int) float64 { return 1 + float64(u%2) }
	f := func(u, v int) float64 { return float64(u+v) / 100 }
	p := New(g, WithBandwidthFn(bw), WithLengthFn(d), WithFaultFn(f),
		WithCostScale(1.5), WithFaultExponent(2))
	for id, e := range g.Edges() {
		base := d(e.U, e.V) / bw(e.U, e.V)
		rel := 1 - f(e.U, e.V)
		lat := max(1, int(math.Round(base)))
		if got, want := p.CostByEdge(id), 1.5*base/math.Pow(rel, 2*base); got != want {
			t.Fatalf("CostByEdge(%d) = %v, want %v", id, got, want)
		}
		if got, want := p.CostObliviousByEdge(id), 1.5*base; got != want {
			t.Fatalf("CostObliviousByEdge(%d) = %v, want %v", id, got, want)
		}
		if got := p.LatencyByEdge(id); got != lat {
			t.Fatalf("LatencyByEdge(%d) = %d, want %d", id, got, lat)
		}
		if got, want := p.DeliveryFailureProbByEdge(id), 1-math.Pow(rel, float64(lat)); got != want {
			t.Fatalf("DeliveryFailureProbByEdge(%d) = %v, want %v", id, got, want)
		}
	}
}

// edge returns the canonical id of the u-v link.
func edge(t *testing.T, g *topology.Graph, u, v int) int {
	t.Helper()
	id, ok := g.EdgeID(u, v)
	if !ok {
		t.Fatalf("%d-%d is not an edge of %s", u, v, g.Name())
	}
	return id
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
	for id := range g.Edges() {
		if got := p.LatencyByEdge(id); got != want[id] {
			t.Errorf("d/bw = %v: LatencyByEdge = %d, want %d", ratios[id], got, want[id])
		}
		if got, fp := p.DeliveryFailureProbByEdge(id), 1-math.Pow(0.9, float64(want[id])); got != fp {
			t.Errorf("d/bw = %v: failure probability %v, want %v", ratios[id], got, fp)
		}
	}
}
