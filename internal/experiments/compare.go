package experiments

import (
	"fmt"

	"pplb/internal/ascii"
	"pplb/internal/baselines"
	"pplb/internal/core"
	"pplb/internal/linkmodel"
	"pplb/internal/sim"
	"pplb/internal/topology"
	"pplb/internal/workload"
)

// policySet builds the comparison roster. Fresh instances per run because
// some baselines carry per-tick state.
func policySet(g *topology.Graph) []sim.Policy {
	return []sim.Policy{
		core.New(core.DefaultConfig()),
		baselines.Diffusion{},
		baselines.NewDimensionExchange(g),
		&baselines.GradientModel{},
		baselines.CWN{},
		&baselines.RandomSender{},
		baselines.None{},
	}
}

// BaselineComparison is the head-to-head table: every policy on every
// topology × distribution, reporting balance quality and cost. This is the
// comparison the paper's related-work section implies but never runs.
func BaselineComparison(size Size) *Report {
	r := &Report{
		ID:       "E6",
		Title:    "PPLB vs the cited baselines",
		Artifact: "§2 related work (implicit comparison)",
	}
	ticks := 1500
	var graphs []*topology.Graph
	if size == Small {
		ticks = 300
		graphs = []*topology.Graph{topology.NewTorus(4, 4)}
	} else {
		graphs = []*topology.Graph{
			topology.NewTorus(8, 8),
			topology.NewMesh(8, 8),
			topology.NewHypercube(6),
		}
	}
	dists := []struct {
		name string
		init func(n int) [][]float64
	}{
		{"hotspot", func(n int) [][]float64 { return workload.Hotspot(n, 0, n*8, 0.25) }},
		{"random", func(n int) [][]float64 { return workload.UniformRandom(n, n*8, 0.25, 3) }},
		{"staircase", func(n int) [][]float64 { return workload.Staircase(n, 0.5) }},
	}
	if size == Small {
		dists = dists[:2]
	}

	tb := ascii.NewTable("Final balance and cost after the tick budget",
		"topology", "dist", "policy", "CV start", "CV final", "conv@0.2", "migrations", "traffic", "mean hops")
	// For the shape check: PPLB must land in the same balance band as the
	// best diffusion-class baseline on every scenario.
	shapeOK := true
	var shapeDetail string
	for _, g := range graphs {
		for _, d := range dists {
			init := d.init(g.N())
			finals := map[string]float64{}
			for _, p := range policySet(g) {
				rr := run(sim.Config{
					Graph: g, Policy: p, Initial: init, Seed: 9,
				}, ticks, 10)
				conv := "-"
				if tk, ok := rr.col.ConvergenceTick(0.2); ok {
					conv = ascii.FormatFloat(tk)
				}
				c := rr.state.Counters()
				tb.AddRow(g.Name(), d.name, p.Name(), rr.cv0, rr.col.FinalCV(), conv,
					c.Migrations, c.Traffic, meanHops(rr.state))
				finals[p.Name()] = rr.col.FinalCV()
			}
			best := finals["diffusion"]
			for _, name := range []string{"dimexchange", "gm", "cwn"} {
				if finals[name] < best {
					best = finals[name]
				}
			}
			// Band: within 2x of the best baseline or absolutely balanced.
			if !(finals["pplb"] <= best*2+0.05) {
				shapeOK = false
				shapeDetail = fmt.Sprintf("%s/%s: pplb CV %.3g vs best baseline %.3g",
					g.Name(), d.name, finals["pplb"], best)
			}
			// The control must not win.
			if finals["none"] < finals["pplb"] && finals["none"] > 0.01 {
				shapeOK = false
				shapeDetail = fmt.Sprintf("%s/%s: no-op beat pplb", g.Name(), d.name)
			}
		}
	}
	r.Tables = append(r.Tables, tb)
	if shapeDetail == "" {
		shapeDetail = "pplb within 2x of the best diffusion-class baseline everywhere"
	}
	r.addCheck("pplb-in-balance-band", shapeOK, "%s", shapeDetail)
	r.Notes = append(r.Notes,
		"all policies run on the identical substrate with one transfer per link per tick")
	return r
}

// FaultTolerance sweeps the uniform link-fault probability and compares the
// fault-aware PPLB (cost inflated by (1-f)^{c·d/bw}, §4.2) against the
// fault-oblivious ablation and the fault-blind diffusion baseline.
func FaultTolerance(size Size) *Report {
	r := &Report{
		ID:       "E7",
		Title:    "Link-fault sweep",
		Artifact: "§4.2 fault model (F matrix)",
	}
	rows, cols, ticks := 8, 8, 1000
	if size == Small {
		rows, cols, ticks = 4, 4, 250
	}
	g := topology.NewTorus(rows, cols)
	init := workload.Hotspot(g.N(), 0, g.N()*8, 0.25)

	tb := ascii.NewTable("Balance and wasted transfers vs fault probability",
		"fault p", "policy", "final CV", "faults", "bounced traffic", "migrations")
	probs := []float64{0, 0.05, 0.1, 0.2, 0.4}
	if size == Small {
		probs = []float64{0, 0.1, 0.4}
	}
	type agg struct{ bounced, cv float64 }
	aware := map[float64]agg{}
	oblivious := map[float64]agg{}
	for _, p := range probs {
		links := linkmodel.New(g, linkmodel.WithUniformFault(p))
		pols := []sim.Policy{
			core.New(core.DefaultConfig()),
			obliviousPPLB(),
			baselines.Diffusion{},
		}
		for _, pol := range pols {
			rr := run(sim.Config{
				Graph: g, Links: links, Policy: pol, Initial: init, Seed: 13,
			}, ticks, 25)
			c := rr.state.Counters()
			name := pol.Name()
			if pol != pols[0] && name == "pplb" {
				name = "pplb-oblivious"
			}
			tb.AddRow(p, name, rr.col.FinalCV(), c.Faults, c.BouncedTraffic, c.Migrations)
			switch name {
			case "pplb":
				aware[p] = agg{c.BouncedTraffic, rr.col.FinalCV()}
			case "pplb-oblivious":
				oblivious[p] = agg{c.BouncedTraffic, rr.col.FinalCV()}
			}
		}
	}
	r.Tables = append(r.Tables, tb)

	// Shape claims: the fault-aware variant still balances at high f, and
	// at the highest fault rate it wastes no more bounced traffic than the
	// oblivious variant (it priced the risk into e_ij).
	pHigh := probs[len(probs)-1]
	r.addCheck("aware-still-balances", aware[pHigh].cv < 0.5,
		"fault-aware PPLB final CV at f=%.2g is %.3g", pHigh, aware[pHigh].cv)
	r.addCheck("aware-wastes-no-more", aware[pHigh].bounced <= oblivious[pHigh].bounced*1.1+1,
		"bounced traffic at f=%.2g: aware %.3g vs oblivious %.3g",
		pHigh, aware[pHigh].bounced, oblivious[pHigh].bounced)
	r.Notes = append(r.Notes,
		"faulted transfers bounce back to the sender and are retried by the policy on later ticks")
	return r
}

func obliviousPPLB() *core.Balancer {
	cfg := core.DefaultConfig()
	cfg.FaultOblivious = true
	return core.New(cfg)
}

// DependencyAffinity sweeps the weight of intra-cluster task dependencies
// (the T matrix) and verifies that PPLB trades balance for communication
// locality exactly as the static-friction analogy predicts: heavier
// dependencies pin tasks, reducing migrations while the baselines (which
// ignore T) migrate regardless.
func DependencyAffinity(size Size) *Report {
	r := &Report{
		ID:       "E8",
		Title:    "Task-dependency affinity sweep",
		Artifact: "§4.2 dependency model (T and R matrices)",
	}
	rows, cols, ticks := 8, 8, 800
	if size == Small {
		rows, cols, ticks = 4, 4, 200
	}
	g := topology.NewTorus(rows, cols)
	init := workload.Hotspot(g.N(), 0, g.N()*4, 0.5)

	tb := ascii.NewTable("Dependency weight vs migration behaviour (clusters of 4)",
		"dep weight", "policy", "migrations", "final CV", "mean hops")
	weights := []float64{0, 0.5, 2, 8, 32}
	if size == Small {
		weights = []float64{0, 2, 32}
	}
	var pplbMigs []float64
	var diffMigs []float64
	for _, w := range weights {
		tg := workload.ClusteredDeps(init, 4, w)
		for _, pol := range []sim.Policy{core.New(core.DefaultConfig()), baselines.Diffusion{}} {
			rr := run(sim.Config{
				Graph: g, Policy: pol, Initial: init, Seed: 17, TaskGraph: tg,
			}, ticks, 25)
			c := rr.state.Counters()
			tb.AddRow(w, pol.Name(), c.Migrations, rr.col.FinalCV(), meanHops(rr.state))
			if pol.Name() == "pplb" {
				pplbMigs = append(pplbMigs, float64(c.Migrations))
			} else {
				diffMigs = append(diffMigs, float64(c.Migrations))
			}
		}
	}
	r.Tables = append(r.Tables, tb)
	r.addCheck("deps-pin-tasks", pplbMigs[0] > pplbMigs[len(pplbMigs)-1],
		"PPLB migrations fall from %v (w=0) to %v (w=max)", pplbMigs[0], pplbMigs[len(pplbMigs)-1])
	varies := false
	for i := 1; i < len(diffMigs); i++ {
		if diffMigs[i] != diffMigs[0] {
			varies = true
		}
	}
	r.addCheck("baseline-ignores-deps", !varies,
		"diffusion migration count is identical across dependency weights (it cannot see T)")
	return r
}
