package experiments

import (
	"pplb/internal/ascii"
	"pplb/internal/baselines"
	"pplb/internal/core"
	"pplb/internal/rng"
	"pplb/internal/sim"
	"pplb/internal/staticmap"
	"pplb/internal/stats"
	"pplb/internal/topology"
	"pplb/internal/workload"
)

// StaticVsDynamic (E14) stages the paper's opening argument as an
// experiment. §1: static mapping finds a near-optimal placement offline
// (simulated annealing over makespan+communication), "however, they are
// unable to deal with the dynamic changes in the state of the system".
//
// Phase 1 (static world): an SA mapping of a communicating task set is
// compared against LPT and random placement — SA must win its own game.
// Phase 2 (the world shifts): under a workload shift (a hotspot stream
// arriving at one node while all nodes service load), the frozen SA
// placement degrades, while PPLB starting from the *same* placement adapts.
func StaticVsDynamic(size Size) *Report {
	r := &Report{
		ID:       "E14",
		Title:    "Static mapping vs dynamic balancing under workload shift",
		Artifact: "§1 static-vs-dynamic framing (SA mapping per [3,13])",
	}
	side, ticks, saIters := 8, 1500, 40000
	if size == Small {
		side, ticks, saIters = 4, 300, 6000
	}
	g := topology.NewTorus(side, side)
	n := g.N()

	// A communicating workload: clusters of 4 tasks with random loads.
	taskCount := n * 3
	loads := make([]float64, taskCount)
	lr := rng.New(71)
	for i := range loads {
		loads[i] = 0.25 + lr.Float64()*0.5
	}
	comm := workload.ClusteredDeps([][]float64{loads}, 4, 1)
	prob := &staticmap.Problem{G: g, Loads: loads, Comm: comm, Lambda: 0.05}

	// Phase 1: offline mapping quality.
	lpt := staticmap.LPT(prob)
	sa, saCost := staticmap.Anneal(prob, lpt, staticmap.AnnealParams{Iterations: saIters, Seed: 7})
	random := make(staticmap.Assignment, taskCount)
	rr := rng.New(13)
	for i := range random {
		random[i] = rr.Intn(n)
	}
	t1 := ascii.NewTable("Phase 1 — offline mapping quality (lower cost is better)",
		"mapping", "makespan", "comm cost", "objective", "load CV")
	for _, row := range []struct {
		name string
		a    staticmap.Assignment
	}{{"random", random}, {"LPT", lpt}, {"SA", sa}} {
		t1.AddRow(row.name, prob.Makespan(row.a), prob.CommCost(row.a),
			prob.Cost(row.a), stats.CV(prob.NodeLoads(row.a)))
	}
	r.Tables = append(r.Tables, t1)
	r.addCheck("sa-beats-lpt", saCost <= prob.Cost(lpt)+1e-9,
		"SA objective %.4g <= LPT %.4g", saCost, prob.Cost(lpt))
	r.addCheck("sa-beats-random", saCost < prob.Cost(random),
		"SA objective %.4g < random %.4g", saCost, prob.Cost(random))

	// Phase 2: the world shifts. Same SA placement; a hotspot stream of 3
	// unit tasks per tick arrives at node 0 (triple its service rate, but
	// within what its links can carry away) on top of light background
	// arrivals everywhere. The static system (no balancing) accumulates an
	// unbounded queue at node 0; PPLB sheds it.
	init, ids := prob.InitialDistribution(sa)
	tg := staticmap.RemapComm(comm, ids)
	shift := workload.Combine(
		workload.HotspotArrivals(0, 3, 1),
		workload.PoissonArrivals(0.2, 0.5, n),
	)

	t2 := ascii.NewTable("Phase 2 — after the workload shifts (hotspot stream at node 0)",
		"policy", "final height CV", "backlog", "completed", "migrations")
	type res struct {
		cv, backlog float64
		completed   int64
	}
	results := map[string]res{}
	for _, pol := range []sim.Policy{baselines.None{}, core.New(core.DefaultConfig())} {
		rrun := run(sim.Config{
			Graph: g, Policy: pol, Initial: init, Seed: 23, ServiceRate: 1,
			Arrivals: shift, TaskGraph: tg,
		}, ticks, 25)
		st := rrun.state
		t2.AddRow(pol.Name(), rrun.col.FinalCV(), st.TotalLoad(),
			st.Counters().TasksCompleted, st.Counters().Migrations)
		results[pol.Name()] = res{rrun.col.FinalCV(), st.TotalLoad(), st.Counters().TasksCompleted}
	}
	r.Tables = append(r.Tables, t2)
	// CV saturates at √(n−1) once one node dominates, so the discriminating
	// metrics are backlog (the frozen mapping's hotspot queue grows without
	// bound; PPLB keeps it finite) and completed work.
	r.addCheck("dynamic-sheds-backlog", results["pplb"].backlog < results["none"].backlog/4,
		"PPLB backlog %.3g vs frozen mapping %.3g", results["pplb"].backlog, results["none"].backlog)
	r.addCheck("dynamic-throughput", results["pplb"].completed >= results["none"].completed,
		"PPLB completed %d vs %d", results["pplb"].completed, results["none"].completed)
	r.Notes = append(r.Notes,
		"both phase-2 runs start from the SA placement; only the balancing policy differs",
		"the SA mapper implements the §1-cited offline approach (simulated annealing on makespan+λ·comm)")
	return r
}
