package experiments

import (
	"pplb/internal/arbiter"
	"pplb/internal/ascii"
	"pplb/internal/core"
	"pplb/internal/linkmodel"
	"pplb/internal/sim"
	"pplb/internal/topology"
	"pplb/internal/workload"
)

// Table1Sensitivity regenerates Table 1 of the paper — the mapping from
// physical parameters to load-balancing concepts — as a measured
// sensitivity analysis: each physical knob is swept on the same 8×8-torus
// hotspot workload and the load-balancing quantity Table 1 associates with
// it must respond with the predicted sign:
//
//	µs ↑ (task-node affinity)   → migrations ↓   ("participation")
//	µk ↑ (communication cost)   → mean hops ↓    ("locality")
//	m  ↑ (task mass, fixed sum) → final CV ↑     ("granularity bound")
//	e  ↑ (link weight)          → traffic ↑ per migration, migrations ↓
//	β0 ↑ (arbiter exploration)  → early spread ≥  (stochasticity)
func Table1Sensitivity(size Size) *Report {
	r := &Report{
		ID:       "E4",
		Title:    "Physical-parameter sensitivity (measured Table 1)",
		Artifact: "Table 1: physical parameters vs load-balancing concepts",
	}
	rows, cols, tasks, ticks := 8, 8, 256, 800
	if size == Small {
		rows, cols, tasks, ticks = 4, 4, 64, 200
	}
	g := topology.NewTorus(rows, cols)
	n := g.N()
	baseInit := workload.Hotspot(n, 0, tasks, 0.5)

	// --- µs sweep via resource pinning strength ---
	// Affinities scale with the hotspot height (the largest gradient any
	// task ever sees): only µs values comparable to the available slopes
	// can pin tasks.
	peak := float64(tasks) * 0.5
	musTable := ascii.NewTable("µs sweep (resource affinity of every task to its origin)",
		"affinity", "migrations", "final CV")
	var musMigs []float64
	for _, w := range []float64{0, peak / 8, peak / 4, peak / 2, 2 * peak} {
		res := workload.PinnedResources(baseInit, 1.0, w, 1)
		rr := run(sim.Config{
			Graph: g, Policy: core.New(core.DefaultConfig()), Initial: baseInit, Seed: 11,
			Resources: res,
		}, ticks, 50)
		musTable.AddRow(w, rr.state.Counters().Migrations, rr.col.FinalCV())
		musMigs = append(musMigs, float64(rr.state.Counters().Migrations))
	}
	r.Tables = append(r.Tables, musTable)
	r.addCheck("mus-reduces-migrations", musMigs[0] > musMigs[len(musMigs)-1],
		"migrations fall from %v (affinity 0) to %v (affinity 2x peak)", musMigs[0], musMigs[len(musMigs)-1])

	// --- µk sweep via the Ck0 floor ---
	mukTable := ascii.NewTable("µk sweep (kinetic-friction floor Ck0)",
		"Ck0", "mean hops", "migrations", "final CV")
	var hops []float64
	for _, ck := range []float64{0.01, 0.1, 0.5, 2, 8} {
		cfg := core.DefaultConfig()
		cfg.Ck0 = ck
		rr := run(sim.Config{
			Graph: g, Policy: core.New(cfg), Initial: baseInit, Seed: 11,
		}, ticks, 50)
		h := meanHops(rr.state)
		mukTable.AddRow(ck, h, rr.state.Counters().Migrations, rr.col.FinalCV())
		hops = append(hops, h)
	}
	r.Tables = append(r.Tables, mukTable)
	r.addCheck("muk-localises", hops[0] > hops[len(hops)-1],
		"mean hops fall from %.3g (Ck0=0.01) to %.3g (Ck0=8)", hops[0], hops[len(hops)-1])

	// --- mass sweep: same total load, coarser tasks ---
	massTable := ascii.NewTable("task-mass sweep (fixed total load)",
		"task size", "tasks", "final CV", "max-min gap")
	var cvs []float64
	total := float64(tasks) * 0.5
	for _, m := range []float64{0.25, 0.5, 1, 2, 4} {
		count := int(total / m)
		init := workload.Hotspot(n, 0, count, m)
		rr := run(sim.Config{
			Graph: g, Policy: core.New(core.DefaultConfig()), Initial: init, Seed: 11,
		}, ticks, 50)
		loads := rr.state.Loads()
		massTable.AddRow(m, count, rr.col.FinalCV(), maxMin(loads))
		cvs = append(cvs, rr.col.FinalCV())
	}
	r.Tables = append(r.Tables, massTable)
	r.addCheck("mass-coarsens-balance", cvs[0] < cvs[len(cvs)-1],
		"final CV grows from %.3g (size 0.25) to %.3g (size 4): balance is granularity-bounded",
		cvs[0], cvs[len(cvs)-1])

	// --- link weight sweep ---
	linkTable := ascii.NewTable("link-weight sweep (uniform link length d)",
		"d", "migrations", "traffic", "traffic/migration")
	var perMigration []float64
	var migs []float64
	for _, d := range []float64{1, 2, 4} {
		links := linkmodel.New(g, linkmodel.WithUniformLength(d))
		rr := run(sim.Config{
			Graph: g, Links: links, Policy: core.New(core.DefaultConfig()),
			Initial: baseInit, Seed: 11,
		}, ticks, 50)
		c := rr.state.Counters()
		ratio := 0.0
		if c.Migrations > 0 {
			ratio = c.Traffic / float64(c.Migrations)
		}
		linkTable.AddRow(d, c.Migrations, c.Traffic, ratio)
		perMigration = append(perMigration, ratio)
		migs = append(migs, float64(c.Migrations))
	}
	r.Tables = append(r.Tables, linkTable)
	r.addCheck("link-weight-raises-cost", perMigration[0] < perMigration[len(perMigration)-1],
		"traffic per migration rises with link weight: %.3g → %.3g",
		perMigration[0], perMigration[len(perMigration)-1])
	r.addCheck("link-weight-discourages-moves", migs[0] >= migs[len(migs)-1],
		"migrations do not increase with link weight: %v → %v", migs[0], migs[len(migs)-1])

	// --- β0 sweep: exploration spreads early choices ---
	betaTable := ascii.NewTable("arbiter exploration sweep (β0)",
		"beta0", "final CV", "migrations")
	for _, b0 := range []float64{0, 0.3, 0.9} {
		var ch arbiter.Chooser
		if b0 == 0 {
			ch = arbiter.Greedy{}
		} else {
			ch = arbiter.Stochastic{Beta0: b0, C: 3, TMax: float64(ticks)}
		}
		cfg := core.DefaultConfig()
		cfg.Arbiter = ch
		rr := run(sim.Config{
			Graph: g, Policy: core.New(cfg), Initial: baseInit, Seed: 11,
		}, ticks, 50)
		betaTable.AddRow(b0, rr.col.FinalCV(), rr.state.Counters().Migrations)
	}
	r.Tables = append(r.Tables, betaTable)
	r.Notes = append(r.Notes,
		"each sweep varies exactly one physical knob of Table 1 on the same torus hotspot workload")
	return r
}

func maxMin(loads []float64) float64 {
	if len(loads) == 0 {
		return 0
	}
	lo, hi := loads[0], loads[0]
	for _, l := range loads {
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	return hi - lo
}
