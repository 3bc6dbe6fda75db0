package experiments

import (
	"fmt"
	"time"

	"pplb/internal/arbiter"
	"pplb/internal/ascii"
	"pplb/internal/core"
	"pplb/internal/linkmodel"
	"pplb/internal/sim"
	"pplb/internal/topology"
	"pplb/internal/workload"
)

// DynamicArrivals drops the quiescent assumption: tasks arrive continuously
// (a steady background plus a persistent hotspot injector) while every node
// services load at a fixed rate. The metric of interest is task response
// time — the end-to-end cost the paper's introduction motivates.
func DynamicArrivals(size Size) *Report {
	r := &Report{
		ID:       "E10",
		Title:    "Non-quiescent workload: response times",
		Artifact: "§1 motivation (dynamic task creation/deletion)",
	}
	rows, cols, ticks := 8, 8, 2000
	if size == Small {
		rows, cols, ticks = 4, 4, 400
	}
	g := topology.NewTorus(rows, cols)
	n := g.N()
	// Offered load: 30% background everywhere plus a hotspot injector at
	// node 0 worth ~6% of total capacity — more than node 0 can serve alone
	// (it must shed), but within what its links can carry away.
	service := 1.0
	background := workload.PoissonArrivals(0.3*service, 1, n)
	hot := workload.HotspotArrivals(0, 0.06*service*float64(n), 1)
	arrivals := workload.Combine(background, hot)

	tb := ascii.NewTable("Throughput and response time under arrivals+service",
		"policy", "completed", "backlog", "mean resp", "resp+sd", "final CV", "migrations")
	completed := map[string]float64{}
	meanResp := map[string]float64{}
	for _, p := range policySet(g) {
		rr := run(runSpec{
			graph: g, policy: p, initial: nil,
			seed: 31, ticks: ticks, every: 50,
			service: service, arrivals: arrivals,
		}, simConfig(nil, nil))
		rt := rr.state.ResponseTimes()
		backlog := rr.state.TotalLoad()
		tb.AddRow(p.Name(), rt.N(), backlog, rt.Mean(), rt.Mean()+rt.StdDev(),
			rr.col.FinalCV(), rr.state.Counters().Migrations)
		completed[p.Name()] = float64(rt.N())
		meanResp[p.Name()] = rt.Mean()
	}
	r.Tables = append(r.Tables, tb)
	// Completed-task mean response is right-censored (tasks stuck in an
	// unshedded hotspot queue never complete and never get counted), so the
	// robust comparison is throughput: the balancer must finish more work
	// and leave less backlog than no balancing.
	r.addCheck("balancing-beats-none", completed["pplb"] > completed["none"],
		"PPLB completed %v tasks vs %v without balancing (mean resp %.3g vs censored %.3g)",
		completed["pplb"], completed["none"], meanResp["pplb"], meanResp["none"])
	r.Notes = append(r.Notes,
		"arrival stream: Poisson background on all nodes + persistent hotspot injector at node 0",
		"mean response counts completed tasks only and is right-censored for the no-balancing control")
	return r
}

// Scalability measures wall-clock engine throughput across system sizes and
// worker counts — the engineering envelope of the simulator, and the
// goroutine-parallel planning speedup.
func Scalability(size Size) *Report {
	r := &Report{
		ID:       "E11",
		Title:    "Engine scalability",
		Artifact: "simulation-substrate engineering claim",
	}
	sizes := []int{64, 256, 1024}
	ticks := 200
	if size == Small {
		sizes = []int{64, 256}
		ticks = 50
	}
	tb := ascii.NewTable("Sequential engine throughput (PPLB, random-regular degree 4)",
		"nodes", "ticks", "total ms", "us/tick", "us/tick/node")
	for _, n := range sizes {
		g := topology.NewRandomRegular(n, 4, 7)
		init := workload.UniformRandom(n, n*4, 0.5, 5)
		e, err := sim.New(sim.Config{Graph: g, Policy: defaultPPLB(), Seed: 1, Initial: init})
		if err != nil {
			panic(err)
		}
		start := time.Now()
		e.Run(ticks)
		elapsed := time.Since(start)
		usPerTick := float64(elapsed.Microseconds()) / float64(ticks)
		tb.AddRow(n, ticks, float64(elapsed.Milliseconds()), usPerTick, usPerTick/float64(n))
	}
	r.Tables = append(r.Tables, tb)

	// Parallel planning speedup at the largest size.
	n := sizes[len(sizes)-1]
	g := topology.NewRandomRegular(n, 4, 7)
	init := workload.UniformRandom(n, n*4, 0.5, 5)
	pt := ascii.NewTable("Goroutine-parallel planning (same workload)",
		"workers", "total ms", "speedup vs 1")
	var base float64
	okIdentical := true
	var seqLoads []float64
	for _, w := range []int{1, 2, 4, 8} {
		e, err := sim.New(sim.Config{Graph: g, Policy: defaultPPLB(), Seed: 1, Initial: init, Workers: w})
		if err != nil {
			panic(err)
		}
		start := time.Now()
		e.Run(ticks)
		ms := float64(time.Since(start).Milliseconds())
		if w == 1 {
			base = ms
			seqLoads = e.State().Loads()
		} else {
			for i, l := range e.State().Loads() {
				if seqLoads[i] != l {
					okIdentical = false
				}
			}
		}
		speedup := 0.0
		if ms > 0 {
			speedup = base / ms
		}
		pt.AddRow(w, ms, speedup)
	}
	r.Tables = append(r.Tables, pt)
	r.addCheck("parallel-identical", okIdentical,
		"parallel planning produces bit-identical load vectors to sequential")
	r.Notes = append(r.Notes,
		"speedups are indicative only (planning is a fraction of tick cost at these scales)")
	return r
}

// Ablations knocks out each distinctive PPLB design choice in turn and
// reruns the E6 hotspot scenario on a faulty torus, quantifying what each
// mechanism buys.
func Ablations(size Size) *Report {
	r := &Report{
		ID:       "E12",
		Title:    "Design-choice ablations",
		Artifact: "Design choices (−inertia, −2l, greedy arbiter, −fault-awareness)",
	}
	rows, cols, ticks := 8, 8, 1000
	if size == Small {
		rows, cols, ticks = 4, 4, 250
	}
	g := topology.NewTorus(rows, cols)
	links := linkmodel.New(g, linkmodel.WithUniformFault(0.15))
	init := workload.Hotspot(g.N(), 0, g.N()*8, 0.25)

	variant := func(name string, mutate func(*core.Config)) (string, *core.Balancer) {
		cfg := core.DefaultConfig()
		cfg.Arbiter = arbiter.Greedy{} // deterministic base for clean deltas
		mutate(&cfg)
		return name, core.New(cfg)
	}
	names := []string{}
	pols := []sim.Policy{}
	add := func(name string, b *core.Balancer) {
		names = append(names, name)
		pols = append(pols, b)
	}
	add(variant("full", func(c *core.Config) {}))
	add(variant("-inertia", func(c *core.Config) { c.DisableInertia = true }))
	add(variant("-2l-guard", func(c *core.Config) { c.DisableTransferAdjustment = true }))
	add(variant("-fault-aware", func(c *core.Config) { c.FaultOblivious = true }))
	add(variant("+damping0.5", func(c *core.Config) { c.EnergyDamping = 0.5 }))
	{
		cfg := core.DefaultConfig() // stochastic arbiter variant
		add("stochastic-arbiter", core.New(cfg))
	}

	tb := ascii.NewTable("Ablations on a 15%-faulty torus hotspot",
		"variant", "final CV", "migrations", "traffic", "bounced", "mean hops", "rejected")
	stats := map[string]struct {
		cv, traffic, bounced float64
		migs                 int64
	}{}
	for i, p := range pols {
		rr := run(runSpec{
			graph: g, links: links, policy: p, initial: init,
			seed: 41, ticks: ticks, every: 25,
		}, simConfig(nil, nil))
		c := rr.state.Counters()
		tb.AddRow(names[i], rr.col.FinalCV(), c.Migrations, c.Traffic, c.BouncedTraffic,
			meanHops(rr.state), c.Rejected)
		stats[names[i]] = struct {
			cv, traffic, bounced float64
			migs                 int64
		}{rr.col.FinalCV(), c.Traffic, c.BouncedTraffic, c.Migrations}
	}
	r.Tables = append(r.Tables, tb)

	full := stats["full"]
	r.addCheck("full-balances", full.cv < 0.4, "full PPLB final CV = %.3g", full.cv)
	no2l := stats["-2l-guard"]
	r.addCheck("2l-guard-prevents-thrash", no2l.migs >= full.migs,
		"removing the -2l guard does not reduce churn: %d vs %d migrations", no2l.migs, full.migs)
	damped := stats["+damping0.5"]
	r.addCheck("damping-cuts-traffic", damped.traffic <= full.traffic,
		"inelastic landings cut traffic: %.4g vs %.4g (lossless)", damped.traffic, full.traffic)
	r.addCheck("all-variants-converge", allBelow(stats, 0.6),
		"every ablated variant still reaches CV < 0.6 (mechanisms affect cost, not correctness)")
	r.Notes = append(r.Notes,
		fmt.Sprintf("baseline full-variant traffic %.4g, bounced %.4g", full.traffic, full.bounced))
	return r
}

func allBelow(m map[string]struct {
	cv, traffic, bounced float64
	migs                 int64
}, eps float64) bool {
	for _, v := range m {
		if v.cv >= eps {
			return false
		}
	}
	return true
}
