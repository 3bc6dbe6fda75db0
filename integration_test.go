package pplb

import (
	"math"
	"testing"
	"testing/quick"

	"pplb/internal/rng"
	"pplb/internal/sim"
	"pplb/internal/stats"
)

// Integration tests: whole-system scenarios crossing every module boundary
// (topology + links + tasks + policy + engine + metrics), plus an
// adversarial fuzz policy that hammers the engine's move validation.

// fuzzPolicy proposes structurally random (frequently invalid) moves; the
// engine must reject garbage and never corrupt state.
type fuzzPolicy struct{}

func (fuzzPolicy) Name() string { return "fuzz" }

func (fuzzPolicy) PlanNodeInto(v int, view *State, r *rng.RNG, moves []Move) []Move {
	st := view.TaskStore()
	tasks := view.TaskStore().AppendHandles(nil, v)
	n := view.N()
	for k := 0; k < 3; k++ {
		m := Move{From: v, NewFlag: math.NaN()}
		switch r.Intn(5) {
		case 0: // valid-ish move of an own task to a random node
			if len(tasks) > 0 {
				m.TaskID = st.ID(tasks[r.Intn(len(tasks))])
				m.To = r.Intn(n)
			}
		case 1: // unknown task
			m.TaskID = TaskID(1 << 40)
			m.To = r.Intn(n)
		case 2: // someone else's source
			m.From = r.Intn(n)
			m.To = r.Intn(n)
			if len(tasks) > 0 {
				m.TaskID = st.ID(tasks[0])
			}
		case 3: // self loop
			if len(tasks) > 0 {
				m.TaskID = st.ID(tasks[0])
				m.To = v
			}
		case 4: // out-of-range destination
			if len(tasks) > 0 {
				m.TaskID = st.ID(tasks[0])
				m.To = n + 5
			}
		}
		moves = append(moves, m)
	}
	return moves
}

func TestEngineSurvivesFuzzPolicy(t *testing.T) {
	g := Torus(4, 4)
	sys, err := NewSystem(g, fuzzPolicy{},
		WithInitial(UniformRandomLoad(g.N(), 64, 0.5, 3)),
		WithSeed(1234),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		sys.Step()
		if got := sys.State().TotalLoad(); math.Abs(got-32) > 1e-9 {
			t.Fatalf("tick %d: fuzz policy corrupted load: %v", i, got)
		}
	}
	if sys.Counters().Rejected == 0 {
		t.Fatal("fuzz policy should have produced rejected moves")
	}
}

// fuzzOutOfRangeDest ensures the EdgeID lookup guards out-of-range node ids
// (would panic on slice access if unchecked).
func TestFuzzDeterminism(t *testing.T) {
	runOnce := func() Counters {
		g := Torus(4, 4)
		sys, _ := NewSystem(g, fuzzPolicy{},
			WithInitial(UniformRandomLoad(g.N(), 64, 0.5, 3)),
			WithSeed(99))
		sys.Run(200)
		return sys.Counters()
	}
	if runOnce() != runOnce() {
		t.Fatal("fuzz runs with identical seeds must be identical")
	}
}

// The kitchen-sink scenario: heterogeneous speeds, faulty weighted links,
// dependencies, resources, arrivals, service, parallel planning — all at
// once, checking global invariants every tick.
func TestKitchenSinkInvariants(t *testing.T) {
	g := Torus(4, 4)
	n := g.N()
	speeds := make([]float64, n)
	for v := range speeds {
		speeds[v] = 1 + float64(v%3)/2 // 1, 1.5, 2
	}
	init := UniformRandomLoad(n, 48, 0.5, 7)
	tg := ClusteredDeps(init, 3, 1.5)
	res := PinnedResources(init, 0.3, 2, 8)
	links := Links(g,
		WithUniformFault(0.1),
		WithLengthFn(func(u, v int) float64 { return 1 + float64((u+v)%2) }),
	)
	sys, err := NewSystem(g, NewBalancer(DefaultBalancerConfig()),
		WithInitial(init),
		WithSpeeds(speeds),
		WithLinks(links),
		WithTaskGraph(tg),
		WithResources(res),
		WithArrivals(PoissonArrivals(0.05, 0.5, n)),
		WithServiceRate(0.2),
		WithWorkers(4),
		WithSeed(2025),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		sys.Step()
		s := sys.State()
		c := s.Counters()
		// Conservation: injected == resident + in-flight + consumed.
		if diff := math.Abs(s.TotalLoad() + c.Consumed - c.Injected); diff > 1e-6 {
			t.Fatalf("tick %d: conservation broken by %v", i, diff)
		}
		// No negative queues.
		for v := 0; v < n; v++ {
			if s.Queue(v).Total() < -1e-9 {
				t.Fatalf("tick %d: negative load at node %d", i, v)
			}
		}
	}
	if sys.Counters().Migrations == 0 {
		t.Fatal("kitchen sink should still migrate")
	}
}

// Long-haul stability: after convergence, the system must stay converged
// (no late-time oscillation or drift) for thousands of ticks.
func TestLongRunStability(t *testing.T) {
	g := Hypercube(4)
	sys, err := NewSystem(g, NewBalancer(DefaultBalancerConfig()),
		WithInitial(HotspotLoad(g.N(), 0, 128, 0.25)),
		WithSeed(5),
		WithMetricsEvery(10),
	)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(3000)
	m := sys.Metrics()
	// Every sample in the last half must be balanced.
	half := m.Len() / 2
	for i := half; i < m.Len(); i++ {
		if m.CV[i] > 0.35 {
			t.Fatalf("late-time imbalance at sample %d: CV=%v", i, m.CV[i])
		}
	}
	// Migration activity must die down: fewer migrations in the last
	// quarter than in the first quarter.
	q := m.Len() / 4
	early := m.Migrations[q] - m.Migrations[0]
	late := m.Migrations[m.Len()-1] - m.Migrations[m.Len()-1-q]
	if late > early {
		t.Fatalf("migration churn did not settle: early %v late %v", early, late)
	}
}

// Every policy on every topology conserves load and terminates planning.
func TestAllPoliciesAllTopologies(t *testing.T) {
	graphs := []*Graph{
		Mesh(3, 3), Torus(3, 3), Hypercube(3), Ring(6), Star(6),
		Complete(5), Tree(2, 2), RandomRegular(8, 3, 1), CCC(3),
	}
	for _, g := range graphs {
		policies := []Policy{
			NewBalancer(DefaultBalancerConfig()),
			DiffusionPolicy(0),
			DimensionExchangePolicy(g),
			GradientModelPolicy(),
			CWNPolicy(0),
			RandomSenderPolicy(),
		}
		for _, p := range policies {
			sys, err := NewSystem(g, p,
				WithInitial(HotspotLoad(g.N(), 0, 24, 0.5)),
				WithSeed(3))
			if err != nil {
				t.Fatalf("%s/%s: %v", g.Name(), p.Name(), err)
			}
			sys.Run(150)
			if math.Abs(sys.State().TotalLoad()-12) > 1e-9 {
				t.Fatalf("%s/%s: load not conserved", g.Name(), p.Name())
			}
		}
	}
}

// Property: for random seeds and workloads, PPLB never increases the
// maximum surface height beyond its starting value (the Theorem 2 descent
// property), and always strictly reduces imbalance on a hotspot.
func TestDescentPropertyQuick(t *testing.T) {
	f := func(seed uint16, tasksSeed uint8) bool {
		g := Torus(4, 4)
		tasks := 32 + int(tasksSeed%64)
		sys, err := NewSystem(g, NewBalancer(DefaultBalancerConfig()),
			WithInitial(HotspotLoad(g.N(), 0, tasks, 0.5)),
			WithSeed(uint64(seed)),
			WithMetricsEvery(5),
		)
		if err != nil {
			return false
		}
		start := stats.Max(sys.Loads())
		cv0 := sys.CV()
		sys.Run(250)
		m := sys.Metrics()
		for _, v := range m.MaxLoad {
			if v > start+1e-9 {
				return false
			}
		}
		return sys.CV() < cv0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The public facade and the raw engine produce identical results for the
// same configuration (no hidden state in the System wrapper).
func TestFacadeMatchesRawEngine(t *testing.T) {
	g := Torus(4, 4)
	init := HotspotLoad(g.N(), 0, 64, 0.5)

	sys, err := NewSystem(g, NewBalancer(DefaultBalancerConfig()),
		WithInitial(init), WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(200)

	e, err := sim.New(sim.Config{
		Graph: g, Policy: NewBalancer(DefaultBalancerConfig()),
		Seed: 31, Initial: init,
		OnTick: func(*sim.State) {}, // facade installs an observer too
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(200)

	a, b := sys.Loads(), e.State().Loads()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("facade diverged from raw engine at node %d: %v vs %v", i, a[i], b[i])
		}
	}
}
