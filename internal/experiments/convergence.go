package experiments

import (
	"fmt"
	"math"

	"pplb/internal/arbiter"
	"pplb/internal/ascii"
	"pplb/internal/core"
	"pplb/internal/sim"
	"pplb/internal/topology"
	"pplb/internal/workload"
)

// Thm2Convergence validates Theorem 2 experimentally: PPLB drives every
// tested topology × initial-distribution pair from gross imbalance to a
// near-balanced equilibrium, with the imbalance trending monotonically
// downwards (each transfer takes the system to a more balanced state).
func Thm2Convergence(size Size) *Report {
	r := &Report{
		ID:       "E5",
		Title:    "Convergence to near-balance (Theorem 2)",
		Artifact: "Theorem 2 and its proof sketch",
	}
	ticks := 1200
	taskSize := 0.25
	if size == Small {
		ticks = 300
	}
	type scenario struct {
		name string
		g    *topology.Graph
	}
	var scenarios []scenario
	if size == Small {
		scenarios = []scenario{
			{"torus4x4", topology.NewTorus(4, 4)},
			{"hypercube4", topology.NewHypercube(4)},
		}
	} else {
		scenarios = []scenario{
			{"mesh8x8", topology.NewMesh(8, 8)},
			{"torus8x8", topology.NewTorus(8, 8)},
			{"hypercube6", topology.NewHypercube(6)},
			{"ring16", topology.NewRing(16)},
		}
	}
	dists := []struct {
		name string
		init func(n int) [][]float64
	}{
		{"hotspot", func(n int) [][]float64 {
			return workload.Hotspot(n, 0, n*8, taskSize)
		}},
		{"random", func(n int) [][]float64 {
			return workload.UniformRandom(n, n*8, taskSize, 77)
		}},
	}

	tb := ascii.NewTable("Convergence of PPLB (CV0 → final CV; sustained CV<0.2 tick)",
		"topology", "distribution", "CV start", "CV final", "CV bound", "conv tick", "migrations")
	allConverged := true
	var charts []*ascii.Chart
	for _, sc := range scenarios {
		for _, d := range dists {
			init := d.init(sc.g.N())
			rr := run(sim.Config{
				Graph: sc.g, Policy: defaultPPLB(), Initial: init, Seed: 5,
			}, ticks, 5)
			convTick := "-"
			if tk, ok := rr.col.ConvergenceTick(0.2); ok {
				convTick = ascii.FormatFloat(tk)
			}
			final := rr.col.FinalCV()
			// The −2l threshold rule admits stable staircases with per-link
			// gaps up to 2·taskSize, so the achievable CV is bounded by the
			// triangle-wave profile of amplitude taskSize·radius over the
			// mean load — the granularity bound of the equilibrium (a large-
			// diameter ring is the worst case).
			mean := workload.TotalLoad(init) / float64(sc.g.N())
			bound := 0.35
			if gb := taskSize * float64(sc.g.Diameter()) / (mean * math.Sqrt(3)); gb > bound {
				bound = gb
			}
			tb.AddRow(sc.name, d.name, rr.cv0, final, bound, convTick, rr.state.Counters().Migrations)
			// Converged: below the granularity bound, and either a 3x
			// relative improvement or absolutely balanced (a mildly
			// imbalanced start near the floor cannot improve 3x).
			if rr.cv0 > 0.1 && !(final < bound && (final < rr.cv0/3 || final < 0.2)) {
				allConverged = false
			}
			if d.name == "hotspot" {
				charts = append(charts, &ascii.Chart{
					Title: fmt.Sprintf("CV over time: %s / %s", sc.name, d.name),
					Width: 72, Height: 10,
					Series: []ascii.Series{{Name: "cv", Values: rr.col.CV}},
				})
			}
		}
	}
	r.Tables = append(r.Tables, tb)
	if size == Full {
		r.Charts = charts
	} else if len(charts) > 0 {
		r.Charts = charts[:1]
	}
	r.addCheck("thm2-converges", allConverged,
		"every topology × distribution drops below CV0/3 and its granularity bound")

	// Monotone-trend check on one representative run: the imbalance at the
	// end of each quarter must not exceed the quarter before it.
	g := topology.NewTorus(4, 4)
	rr := run(sim.Config{
		Graph: g, Policy: defaultPPLB(), Initial: workload.Hotspot(16, 0, 128, taskSize),
		Seed: 5,
	}, ticks, 1)
	q := len(rr.col.CV) / 4
	trendOK := q > 0
	for k := 1; k < 4 && trendOK; k++ {
		if rr.col.CV[k*q] > rr.col.CV[(k-1)*q]+1e-9 {
			trendOK = false
		}
	}
	r.addCheck("thm2-monotone-trend", trendOK,
		"CV decreases across run quarters (each transfer moves towards balance)")
	return r
}

// Annealing sweeps the stochastic arbiter's cooling parameters (β0, c,
// t_max) of §5.2 on a rugged multi-hotspot surface, where early exploration
// can route load around forming plateaus.
func Annealing(size Size) *Report {
	r := &Report{
		ID:       "E9",
		Title:    "Arbiter cooling sweep",
		Artifact: "§5.2 stochastic arbiter and its convergence controls",
	}
	rows, cols, ticks := 8, 8, 1000
	if size == Small {
		rows, cols, ticks = 4, 4, 250
	}
	g := topology.NewTorus(rows, cols)
	init := workload.MultiHotspot(g.N(), 4, g.N()*8, 0.25)

	tb := ascii.NewTable("Cooling parameters vs convergence (multi-hotspot torus)",
		"arbiter", "p0/tau0", "c", "tmax", "final CV", "conv tick (cv<0.2)", "migrations")
	type cfgRow struct {
		kind        string // "greedy", "freetrials", "boltzmann"
		p0, c, tmax float64
	}
	var rowsCfg []cfgRow
	if size == Small {
		rowsCfg = []cfgRow{
			{"greedy", 0, 0, 0},
			{"freetrials", 0.3, 3, 250},
			{"freetrials", 0.9, 3, 250},
			{"boltzmann", 0.5, 3, 250},
		}
	} else {
		rowsCfg = []cfgRow{
			{"greedy", 0, 0, 0},
			{"freetrials", 0.1, 3, 1000}, {"freetrials", 0.3, 3, 1000},
			{"freetrials", 0.6, 3, 1000}, {"freetrials", 0.9, 3, 1000},
			{"freetrials", 0.3, 1, 1000}, {"freetrials", 0.3, 10, 1000},
			{"freetrials", 0.3, 3, 100}, {"freetrials", 0.3, 3, 10000},
			{"boltzmann", 0.2, 3, 1000}, {"boltzmann", 1.0, 3, 1000},
		}
	}
	finals := map[string]float64{}
	for _, rc := range rowsCfg {
		cfg := core.DefaultConfig()
		switch rc.kind {
		case "greedy":
			cfg.Arbiter = arbiter.Greedy{}
		case "boltzmann":
			cfg.Arbiter = arbiter.Boltzmann{Tau0: rc.p0, C: rc.c, TMax: rc.tmax}
		default:
			cfg.Arbiter = arbiter.Stochastic{Beta0: rc.p0, C: rc.c, TMax: rc.tmax}
		}
		rr := run(sim.Config{
			Graph: g, Policy: core.New(cfg), Initial: init, Seed: 21,
		}, ticks, 10)
		conv := "-"
		if tk, ok := rr.col.ConvergenceTick(0.2); ok {
			conv = ascii.FormatFloat(tk)
		}
		tb.AddRow(rc.kind, rc.p0, rc.c, rc.tmax, rr.col.FinalCV(), conv, rr.state.Counters().Migrations)
		key := fmt.Sprintf("%s/%v/%v/%v", rc.kind, rc.p0, rc.c, rc.tmax)
		finals[key] = rr.col.FinalCV()
	}
	r.Tables = append(r.Tables, tb)

	// Every cooling configuration must still converge (the schedule perturbs
	// the path, not the fixed point).
	worst := 0.0
	for _, v := range finals {
		if v > worst {
			worst = v
		}
	}
	r.addCheck("anneal-all-converge", worst < 0.4,
		"worst final CV over all cooling configurations is %.3g", worst)
	r.Notes = append(r.Notes,
		"greedy is the rigid t→∞ limit of both schedules",
		"boltzmann (softmax) is the design-alternative arbiter; the paper only fixes the annealing shape")
	return r
}
