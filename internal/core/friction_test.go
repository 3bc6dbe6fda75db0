package core

import (
	"math"
	"slices"
	"testing"

	"pplb/internal/arbiter"
	"pplb/internal/linkmodel"
	"pplb/internal/rng"
	"pplb/internal/sim"
	"pplb/internal/taskmodel"
	"pplb/internal/topology"
)

// countingChooser wraps a chooser and counts its calls, so a test can tell
// that a planning call never reached the arbiter.
type countingChooser struct {
	inner arbiter.Chooser
	calls int
}

func (c *countingChooser) Name() string { return c.inner.Name() }

func (c *countingChooser) Choose(scores []float64, t int64, r *rng.RNG) int {
	c.calls++
	return c.inner.Choose(scores, t, r)
}

// FuzzFrictionBound checks the friction-bound exit against the planning
// passes it skips. Every engine twin (worker counts, full sweep, resume)
// runs the same gated policy, so an unsound bound would show up identically
// in all of them; this test is the bound's only guard. Whenever plansNothing
// holds, the ungated planNode must propose nothing, leave the node's stream
// undrawn and never call the chooser; with a T or R matrix coupled the bound
// must stay off; and PlanNodeInto must always equal planNode.
func FuzzFrictionBound(f *testing.F) {
	for seed := uint64(0); seed < 48; seed++ {
		f.Add(seed, uint8(seed*37+seed/8), uint8(seed%6))
	}
	f.Fuzz(func(t *testing.T, seed uint64, flags, ticks uint8) {
		checkFrictionBound(t, seed, flags, int(ticks%6))
	})
}

// frictionLoad draws a task load spanning tiny, ordinary and huge scales.
func frictionLoad(r *rng.RNG) float64 {
	switch r.Intn(8) {
	case 0:
		return r.Range(1e-12, 1e-9)
	case 1:
		return r.Range(1e9, 1e12)
	case 2:
		return 1e300
	default:
		return r.Range(0.05, 4)
	}
}

// checkFrictionBound builds a small random system from seed, runs it for a
// few ticks so tasks are in motion and links busy, perturbs some Moving
// flags, and checks the bound on every node. flags selects the ablation
// switches and which friction matrices are attached and coupled.
func checkFrictionBound(t *testing.T, seed uint64, flags uint8, ticks int) {
	r := rng.New(seed)
	cfg := DefaultConfig()
	cfg.DisableTransferAdjustment = flags&1 != 0
	cfg.FaultOblivious = flags&2 != 0
	cfg.DisableInertia = flags&4 != 0
	if flags&8 != 0 {
		cfg.EnergyDamping = 0.5
	}
	if flags&64 != 0 {
		cfg.CsT = 0
	}
	if flags&128 != 0 {
		cfg.CsR = 0
	}

	var g *topology.Graph
	if r.Bernoulli(0.5) {
		g = topology.NewRing(r.IntBetween(3, 9))
	} else {
		g = topology.NewTorus(r.IntBetween(3, 5), r.IntBetween(3, 5))
	}
	n := g.N()
	costScale := 1.0
	if r.Bernoulli(0.1) {
		costScale = -1 // reverses every slope: the bound must not fire
	}
	links := linkmodel.New(g,
		linkmodel.WithLengthFn(func(u, v int) float64 { return r.Range(0.2, 4) }),
		linkmodel.WithBandwidthFn(func(u, v int) float64 { return r.Range(0.5, 2) }),
		linkmodel.WithRandomFaults(0.3, seed),
		linkmodel.WithCostScale(costScale))

	speeds := make([]float64, n)
	hetero := r.Bernoulli(0.7)
	for v := range speeds {
		speeds[v] = 1
		if hetero {
			speeds[v] = math.Pow(10, r.Range(-3, 3))
		}
	}
	init := make([][]float64, n)
	tasks := 0
	for v := range init {
		for k := r.Intn(6); k > 0; k-- {
			init[v] = append(init[v], frictionLoad(r))
			tasks++
		}
	}

	// Attached matrices carry negative weights: µs can then be negative, and
	// the bound, which assumes µs ≡ 0, must switch itself off.
	var tg *taskmodel.Graph
	var res *taskmodel.Resources
	if flags&16 != 0 && tasks > 1 {
		tg = taskmodel.NewGraph()
		for k := 0; k < tasks; k++ {
			a, b := taskmodel.ID(r.Intn(tasks)), taskmodel.ID(r.Intn(tasks))
			if a != b {
				tg.SetDep(a, b, r.Range(-2, 2))
			}
		}
	}
	if flags&32 != 0 && tasks > 0 {
		res = taskmodel.NewResources()
		for k := 0; k < tasks; k++ {
			res.SetAffinity(taskmodel.ID(r.Intn(tasks)), r.Intn(n), r.Range(-2, 2))
		}
	}

	e, err := sim.New(sim.Config{
		Graph: g, Links: links, Policy: New(cfg), Seed: seed,
		Initial: init, Speeds: speeds, TaskGraph: tg, Resources: res,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(ticks)

	// Give some resident tasks momentum the run did not, so pass 1 (and, with
	// inertia disabled, its absence) is exercised on every topology.
	st := e.State().TaskStore()
	for v := 0; v < n; v++ {
		for _, h := range e.State().Queue(v).Handles() {
			if r.Bernoulli(0.1) {
				st.SetMoving(h, true)
				st.SetFlag(h, r.Range(-1, 10))
				st.SetPrev(h, g.Neighbors(v)[r.Intn(len(g.Neighbors(v)))])
			}
		}
	}

	ch := &countingChooser{inner: arbiter.DefaultStochastic()}
	bcfg := cfg
	bcfg.Arbiter = ch
	b := New(bcfg)
	view := e.State().View()
	coupled := (tg != nil && cfg.CsT != 0) || (res != nil && cfg.CsR != 0)
	for v := 0; v < n; v++ {
		bound := b.plansNothing(v, view)
		if bound && coupled {
			t.Fatalf("node %d: friction bound fired with a friction matrix coupled", v)
		}
		stream := rng.New(seed ^ uint64(v)<<32)
		before := *stream
		calls := ch.calls
		ungated := b.planNode(v, view, stream, nil)
		if bound && (len(ungated) != 0 || *stream != before || ch.calls != calls) {
			t.Fatalf("node %d: friction bound fired but the planning passes propose %d moves "+
				"(stream drawn: %v, chooser calls: %d)", v, len(ungated), *stream != before, ch.calls-calls)
		}
		gatedStream := before
		gated := b.PlanNodeInto(v, view, &gatedStream, nil)
		if !slices.Equal(gated, ungated) || gatedStream != *stream {
			t.Fatalf("node %d: PlanNodeInto differs from the ungated planner:\ngated:   %v\nungated: %v", v, gated, ungated)
		}
	}
}
