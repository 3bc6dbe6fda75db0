package core

import (
	"math"
	"testing"

	"pplb/internal/arbiter"
	"pplb/internal/linkmodel"
	"pplb/internal/sim"
	"pplb/internal/stats"
	"pplb/internal/taskmodel"
	"pplb/internal/topology"
)

// greedyCfg returns a deterministic configuration (greedy arbiter, no
// dependencies) for unit tests that need exact behaviour.
func greedyCfg() Config {
	cfg := DefaultConfig()
	cfg.Arbiter = arbiter.Greedy{}
	return cfg
}

func engine(t *testing.T, cfg sim.Config) *sim.Engine {
	t.Helper()
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func unitTasks(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func TestStationaryCriterion(t *testing.T) {
	g := topology.NewRing(4)
	e := engine(t, sim.Config{
		Graph: g, Policy: New(greedyCfg()), Seed: 1,
		Initial: [][]float64{{4, 4}, {}, {1}, {}},
	})
	view := e.State()
	b := New(greedyCfg())
	task := e.State().TaskStore().AppendHandles(nil, 0)[0] // load 4 on node 0 (h=8)
	// Towards node 1 (h=0): (8-0-8)/1 = 0, not > 0 → infeasible for the
	// 4-load; but feasibility is per task size.
	if tb, ok := b.FeasibleStationary(view, task, 0, 1); ok || tb != 0 {
		t.Fatalf("4-load move should be border-infeasible: tb=%v ok=%v", tb, ok)
	}
	small := e.State().TaskStore().Create(99, 1, 0, 0) // not enqueued: h stays 8
	if tb, ok := b.FeasibleStationary(view, small, 0, 1); !ok || tb != 6 {
		t.Fatalf("1-load move should be feasible with tb=6: tb=%v ok=%v", tb, ok)
	}
}

func TestMuSFromDependenciesAndResources(t *testing.T) {
	g := topology.NewRing(4)
	tg := taskmodel.NewGraph()
	res := taskmodel.NewResources()
	e := engine(t, sim.Config{
		Graph: g, Policy: New(greedyCfg()), Seed: 1,
		Initial:   [][]float64{{1, 1}, {}, {}, {}},
		TaskGraph: tg, Resources: res,
	})
	view := e.State()
	b := New(greedyCfg())
	st := e.State().TaskStore()
	t0 := st.ID(e.State().TaskStore().AppendHandles(nil, 0)[0])
	t1 := st.ID(e.State().TaskStore().AppendHandles(nil, 0)[1])

	if b.MuS(view, t0, 0) != 0 {
		t.Fatal("no deps → µs = 0")
	}
	tg.SetDep(t0, t1, 2.5) // co-located dependency
	if got := b.MuS(view, t0, 0); got != 2.5 {
		t.Fatalf("µs with co-located dep = %v, want 2.5", got)
	}
	res.SetAffinity(t0, 0, 1.5)
	if got := b.MuS(view, t0, 0); got != 4 {
		t.Fatalf("µs with dep+resource = %v, want 4", got)
	}
	// Dependency to a task on ANOTHER node does not pin the task here.
	h2 := st.Create(1000, 1, 2, 0)
	e.State().TaskStore().Enqueue(2, h2)
	tg.SetDep(t0, st.ID(h2), 10)
	if got := b.MuS(view, t0, 0); got != 4 {
		t.Fatalf("remote dependency must not add to µs: %v", got)
	}
	// µk couples to µs.
	wantMuK := 0.05 + 0.1*4
	if got := b.MuK(view, t0, 0); math.Abs(got-wantMuK) > 1e-12 {
		t.Fatalf("µk = %v, want %v", got, wantMuK)
	}
}

func TestHotspotConvergesOnRing(t *testing.T) {
	// Fine-grained tasks: the achievable balance of the threshold rule is
	// granularity-bounded (per-link gaps up to 2·taskload are stable), so
	// convergence quality is asserted relative to the task size.
	g := topology.NewRing(8)
	init := make([][]float64, 8)
	for i := 0; i < 128; i++ {
		init[0] = append(init[0], 0.25)
	}
	e := engine(t, sim.Config{Graph: g, Policy: New(greedyCfg()), Seed: 1, Initial: init})
	e.Run(600)
	s := e.State()
	if math.Abs(s.TotalLoad()-32) > 1e-9 {
		t.Fatalf("load not conserved: %v", s.TotalLoad())
	}
	cv := stats.CV(s.Loads())
	if cv > 0.25 {
		t.Fatalf("ring hotspot did not converge: CV=%v loads=%v", cv, s.Loads())
	}
	if s.Counters().Migrations == 0 {
		t.Fatal("PPLB must migrate")
	}
}

// The −2l safety bound makes any configuration with all per-link gradients
// at or below 2·taskload a fixed point — the discrete equivalent of static
// friction holding a particle on a gentle slope. A staircase within the
// threshold must therefore be perfectly stable.
func TestStaircaseWithinThresholdIsStable(t *testing.T) {
	g := topology.NewRing(6)
	// Unit tasks, per-link gap exactly 2 = 2·load: stable.
	init := [][]float64{unitTasks(1), unitTasks(3), unitTasks(5), unitTasks(5), unitTasks(3), unitTasks(1)}
	e := engine(t, sim.Config{Graph: g, Policy: New(greedyCfg()), Seed: 1, Initial: init})
	before := e.State().Loads()
	e.Run(100)
	after := e.State().Loads()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("staircase moved: %v -> %v", before, after)
		}
	}
	if e.State().Counters().Migrations != 0 {
		t.Fatal("staircase within threshold must not migrate at all")
	}
}

func TestHotspotConvergesOnTorusAndHypercube(t *testing.T) {
	for _, g := range []*topology.Graph{topology.NewTorus(4, 4), topology.NewHypercube(4)} {
		init := make([][]float64, g.N())
		init[0] = unitTasks(64)
		e := engine(t, sim.Config{Graph: g, Policy: New(greedyCfg()), Seed: 1, Initial: init})
		e.Run(600)
		s := e.State()
		if math.Abs(s.TotalLoad()-64) > 1e-9 {
			t.Fatalf("%s: load not conserved: %v", g.Name(), s.TotalLoad())
		}
		cv := stats.CV(s.Loads())
		if cv > 0.35 {
			t.Fatalf("%s: did not converge: CV=%v", g.Name(), cv)
		}
	}
}

func TestStochasticArbiterAlsoConverges(t *testing.T) {
	g := topology.NewTorus(4, 4)
	init := make([][]float64, g.N())
	init[0] = unitTasks(64)
	cfg := DefaultConfig() // stochastic arbiter by default
	e := engine(t, sim.Config{Graph: g, Policy: New(cfg), Seed: 7, Initial: init})
	e.Run(800)
	cv := stats.CV(e.State().Loads())
	if cv > 0.35 {
		t.Fatalf("stochastic PPLB did not converge: CV=%v", cv)
	}
}

// Theorem 2's monotone-improvement argument: no move may make the global
// imbalance (max load) worse than the pre-move source. We verify the engine
// trace never shows a task landing on a node that had more load than its
// source at decision time — guaranteed by the −2l rule.
func TestNoUphillSends(t *testing.T) {
	g := topology.NewTorus(4, 4)
	init := make([][]float64, g.N())
	init[0] = unitTasks(40)
	init[5] = unitTasks(10)
	var maxSeen float64
	e := engine(t, sim.Config{
		Graph: g, Policy: New(greedyCfg()), Seed: 3, Initial: init,
		OnTick: func(s *sim.State) {
			if m := stats.Max(s.Loads()); m > maxSeen {
				maxSeen = m
			}
		},
	})
	e.Run(300)
	if maxSeen > 40 {
		t.Fatalf("peak load grew beyond the initial hotspot: %v", maxSeen)
	}
	// And the final max is far below the hotspot.
	if m := stats.Max(e.State().Loads()); m > 12 {
		t.Fatalf("final max load %v too high", m)
	}
}

func TestDependencyPinsTask(t *testing.T) {
	g := topology.NewRing(4)
	tg := taskmodel.NewGraph()
	policy := New(greedyCfg())
	e := engine(t, sim.Config{
		Graph: g, Policy: policy, Seed: 1,
		Initial:   [][]float64{{5, 5}, {}, {}, {}},
		TaskGraph: tg,
	})
	// Huge mutual dependency: both tasks pinned to wherever they are
	// co-located (µs = 100 each ≫ any achievable gradient).
	st := e.State().TaskStore()
	ts := e.State().TaskStore().AppendHandles(nil, 0)
	tg.SetDep(st.ID(ts[0]), st.ID(ts[1]), 100)
	e.Run(100)
	s := e.State()
	if s.Counters().Migrations != 0 {
		t.Fatalf("pinned tasks must not move, got %d migrations", s.Counters().Migrations)
	}
	if s.Queue(0).Len() != 2 {
		t.Fatal("tasks must remain on node 0")
	}
}

func TestResourceAffinityPinsTask(t *testing.T) {
	g := topology.NewRing(4)
	res := taskmodel.NewResources()
	e := engine(t, sim.Config{
		Graph: g, Policy: New(greedyCfg()), Seed: 1,
		Initial:   [][]float64{{3}, {}, {}, {}},
		Resources: res,
	})
	task := e.State().TaskStore().ID(e.State().TaskStore().AppendHandles(nil, 0)[0])
	res.SetAffinity(task, 0, 50)
	e.Run(50)
	if e.State().Counters().Migrations != 0 {
		t.Fatal("resource-pinned task must not move")
	}
}

func TestInertiaTravelsMultiHop(t *testing.T) {
	// A long path: hotspot at one end, big valley far away. With inertia the
	// task chain reaches distant nodes; hop counts > 1 must appear.
	g := topology.NewRing(12)
	init := make([][]float64, 12)
	init[0] = unitTasks(24)
	e := engine(t, sim.Config{Graph: g, Policy: New(greedyCfg()), Seed: 1, Initial: init})
	e.Run(300)
	st := e.State().TaskStore()
	multiHop := 0
	for v := 0; v < g.N(); v++ {
		for _, task := range e.State().TaskStore().AppendHandles(nil, v) {
			if st.Hops(task) > 1 {
				multiHop++
			}
		}
	}
	if multiHop == 0 {
		t.Fatal("inertia must carry some tasks multiple hops")
	}
}

func TestDisableInertiaStopsMultiHopMomentum(t *testing.T) {
	g := topology.NewRing(12)
	run := func(disable bool) (avgHops float64) {
		cfg := greedyCfg()
		cfg.DisableInertia = disable
		init := make([][]float64, 12)
		init[0] = unitTasks(24)
		e := engine(t, sim.Config{Graph: g, Policy: New(cfg), Seed: 1, Initial: init})
		e.Run(300)
		c := e.State().Counters()
		if c.Migrations == 0 {
			return 0
		}
		st := e.State().TaskStore()
		totalHops := 0
		tasks := 0
		for v := 0; v < g.N(); v++ {
			for _, task := range e.State().TaskStore().AppendHandles(nil, v) {
				totalHops += st.Hops(task)
				tasks++
			}
		}
		return float64(totalHops) / float64(tasks)
	}
	with := run(false)
	without := run(true)
	if with <= 0 || without <= 0 {
		t.Fatal("both runs must migrate")
	}
	// Both configurations move tasks the same average distance or more with
	// inertia; inertia should never reduce reach.
	if with < without-0.25 {
		t.Fatalf("inertia should not reduce travel: with=%v without=%v", with, without)
	}
}

func TestLinkCostDiscouragesExpensiveLinks(t *testing.T) {
	// Star with one cheap and several expensive links: the hub's load should
	// drain preferentially over the cheap link.
	g := topology.NewStar(5)
	links := linkmodel.New(g, linkmodel.WithLengthFn(func(u, v int) float64 {
		if u == 0 && v == 1 || u == 1 && v == 0 {
			return 1 // cheap
		}
		return 1 // equal latency...
	}), linkmodel.WithBandwidthFn(func(u, v int) float64 {
		if u+v == 1 {
			return 4 // node0-node1: fat link
		}
		return 1
	}))
	init := make([][]float64, 5)
	init[0] = unitTasks(12)
	e := engine(t, sim.Config{Graph: g, Links: links, Policy: New(greedyCfg()), Seed: 1, Initial: init})
	e.Run(60)
	s := e.State()
	if s.Queue(1).Total() < s.Queue(2).Total() {
		t.Fatalf("fat-link neighbour should receive at least as much: n1=%v n2=%v",
			s.Queue(1).Total(), s.Queue(2).Total())
	}
}

func TestFlagDecreasesAlongChain(t *testing.T) {
	g := topology.NewRing(8)
	init := make([][]float64, 8)
	init[0] = unitTasks(16)
	e := engine(t, sim.Config{Graph: g, Policy: New(greedyCfg()), Seed: 1, Initial: init})
	e.Run(200)
	// Any task that has hopped k>0 times must carry flag <= initial height
	// minus k * (µk * min link cost) ... we check the weaker invariant that
	// flags of travelled tasks are below the hotspot height.
	st := e.State().TaskStore()
	for v := 0; v < g.N(); v++ {
		for _, task := range e.State().TaskStore().AppendHandles(nil, v) {
			if st.Hops(task) > 0 && st.Flag(task) >= 16 {
				t.Fatalf("flag %v did not pay friction over %d hops", st.Flag(task), st.Hops(task))
			}
		}
	}
}

func TestMaxMovesPerNodeRespected(t *testing.T) {
	g := topology.NewComplete(5)
	cfg := greedyCfg()
	cfg.MaxMovesPerNode = 1
	init := make([][]float64, 5)
	init[0] = unitTasks(20)
	e := engine(t, sim.Config{Graph: g, Policy: New(cfg), Seed: 1, Initial: init})
	e.Step()
	// Exactly one task may have left node 0.
	departed := 20 - e.State().Queue(0).Len()
	if departed > 1 {
		t.Fatalf("MaxMovesPerNode=1 violated: %d departures", departed)
	}
}

func TestEmptyAndIsolatedNodes(t *testing.T) {
	// A star leaf with no tasks and a hub: planning must not panic and the
	// balancer must return nil for empty nodes.
	g := topology.NewStar(4)
	e := engine(t, sim.Config{Graph: g, Policy: New(greedyCfg()), Seed: 1})
	e.Run(10)
	if e.State().TotalLoad() != 0 {
		t.Fatal("empty system must stay empty")
	}
}

func TestFaultObliviousIgnoresFaultCost(t *testing.T) {
	g := topology.NewRing(4)
	links := linkmodel.New(g, linkmodel.WithUniformFault(0.4))
	e := engine(t, sim.Config{Graph: g, Links: links, Policy: New(greedyCfg()), Seed: 1,
		Initial: [][]float64{{3, 1}, {}, {}, {}}})
	view := e.State()

	aware := New(greedyCfg())
	obliviousCfg := greedyCfg()
	obliviousCfg.FaultOblivious = true
	oblivious := New(obliviousCfg)

	// The light task: (4 − 0 − 2)/e = 2/e, nonzero so the costs differ.
	task := e.State().TaskStore().AppendHandles(nil, 0)[1]
	tbAware, _ := aware.FeasibleStationary(view, task, 0, 1)
	tbObl, _ := oblivious.FeasibleStationary(view, task, 0, 1)
	if !(tbObl > tbAware) {
		t.Fatalf("fault-aware gradient must be flatter: aware=%v oblivious=%v", tbAware, tbObl)
	}
}

func TestParallelPlanningIdentical(t *testing.T) {
	run := func(workers int) []float64 {
		g := topology.NewTorus(4, 4)
		init := make([][]float64, 16)
		init[0] = unitTasks(48)
		e := engine(t, sim.Config{Graph: g, Policy: New(DefaultConfig()), Seed: 11,
			Initial: init, Workers: workers})
		e.Run(200)
		return e.State().Loads()
	}
	a := run(1)
	b := run(6)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("parallel PPLB diverged at node %d", i)
		}
	}
}

func TestEnergyDampingReducesTravel(t *testing.T) {
	run := func(damping float64) (traffic float64, cv float64) {
		g := topology.NewTorus(4, 4)
		cfg := greedyCfg()
		cfg.EnergyDamping = damping
		init := make([][]float64, 16)
		init[0] = unitTasks(64)
		e := engine(t, sim.Config{Graph: g, Policy: New(cfg), Seed: 1, Initial: init})
		e.Run(400)
		return e.State().Counters().Traffic, stats.CV(e.State().Loads())
	}
	tLossless, cvLossless := run(0) // 0 == paper's lossless model
	tDamped, cvDamped := run(0.5)
	if tDamped > tLossless {
		t.Fatalf("damping must not increase traffic: %v vs %v", tDamped, tLossless)
	}
	if cvDamped > 0.6 || cvLossless > 0.6 {
		t.Fatalf("both variants must still balance: %v / %v", cvDamped, cvLossless)
	}
}

func TestDampFlagBounds(t *testing.T) {
	b := New(Config{EnergyDamping: 0.5})
	// Kinetic part halves.
	if got := b.dampFlag(10, 4); got != 7 {
		t.Fatalf("dampFlag(10,4) = %v, want 7", got)
	}
	// No kinetic energy: unchanged.
	if got := b.dampFlag(3, 4); got != 3 {
		t.Fatalf("dampFlag(3,4) = %v, want 3", got)
	}
	// Damping 1 and 0 are lossless.
	for _, d := range []float64{0, 1, 1.5} {
		b := New(Config{EnergyDamping: d})
		if got := b.dampFlag(10, 4); got != 10 {
			t.Fatalf("damping %v must be lossless, got %v", d, got)
		}
	}
}

func TestHeterogeneousEquilibrium(t *testing.T) {
	// Two nodes, speeds 3 and 1. Balance on the height surface means the
	// fast node should hold about 3x the load.
	g := topology.NewRing(2)
	init := make([][]float64, 2)
	for i := 0; i < 80; i++ {
		init[1] = append(init[1], 0.25) // hotspot on the SLOW node
	}
	e, err := sim.New(sim.Config{
		Graph: g, Policy: New(greedyCfg()), Seed: 1,
		Initial: init, Speeds: []float64{3, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(400)
	s := e.State()
	l0, l1 := s.Queue(0).Total(), s.Queue(1).Total()
	if l1 <= 0 {
		t.Fatal("slow node must retain some load")
	}
	ratio := l0 / l1
	if ratio < 2 || ratio > 4.5 {
		t.Fatalf("fast/slow load ratio = %v, want ~3", ratio)
	}
	// Heights roughly equal.
	if hGap := math.Abs(s.Height(0) - s.Height(1)); hGap > 1.5 {
		t.Fatalf("height gap = %v", hGap)
	}
}

func TestHeaviestFirstKeysOrdering(t *testing.T) {
	st := taskmodel.NewStore()
	st.GrowNodes(1)
	for _, h := range []taskmodel.Handle{
		st.Create(3, 1, 0, 0),
		st.Create(1, 5, 0, 0),
		st.Create(2, 5, 0, 0),
	} {
		st.Enqueue(0, h)
	}
	out := byLoadDescKeys(nil, st.Queue(0).Front(), st)
	if out[0].id != 1 || out[1].id != 2 || out[2].id != 3 {
		t.Fatalf("order wrong: %v %v %v", out[0].id, out[1].id, out[2].id)
	}
	// The queue itself is untouched.
	if st.ID(st.Queue(0).Front()) != 3 {
		t.Fatal("byLoadDescKeys must not reorder the queue")
	}
}

func BenchmarkPlanNodeTorus(b *testing.B) {
	g := topology.NewTorus(8, 8)
	init := make([][]float64, 64)
	init[0] = unitTasks(128)
	e, _ := sim.New(sim.Config{Graph: g, Policy: New(DefaultConfig()), Seed: 1, Initial: init})
	e.Run(5) // spread some load around first
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	bad := []Config{
		{CsT: math.Inf(1)},
		{Ck0: -0.1},
		{EnergyDamping: 1.5},
		{MaxMovesPerNode: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d validated", i)
		}
	}
}
