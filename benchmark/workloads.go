package main

import (
	"fmt"

	"pplb"
)

// workload is one named input set. The reasons each exists are in
// BENCHMARK.json and README.md. The seed goes to the engine (WithSeed),
// which draws the Poisson arrivals and every random choice the balancer
// makes; the initial loads and the hotspot walk are fixed, so that a
// workload's runs differ in their dynamics, not in what they start from.
type workload struct {
	name    string
	workers int
	run     func(r *runner, workers int)
	// pinned is the final-state digest at the default seed.
	pinned string
}

var workloads = []workload{
	{name: "converge-16k", workers: 2, run: converge16k,
		pinned: "bdeb5571a5d58641cae057f0ed420cfcc3dc0b01d56d18626fd27b468d2f4ea4"},
	{name: "serve-16k", workers: 2, run: serve16k,
		pinned: "51177fff42889aa73b48d9f2a11cd9c6152162c17798feda849d7112f4c787e3"},
	{name: "sparse-1m", workers: 1, run: sparse1m,
		pinned: "fb03e3ce2790a27afd9a25aacd1631f7d5f2b4ec35b920ec46582a323a42795e"},
	{name: "churn-16k", workers: 2, run: churn16k,
		pinned: "f169f6abd971629f4568da9974b9e80ba8a83978a3b0abb5ed9dc7de9dc5153b"},
}

// converge16k is the paper's headline: a dense multi-hotspot transient run
// from a fresh system to CV < 0.2. The balanced system then loses a few
// nodes, one per cycle, with no tick in between, so that the operations are
// timed on it without touching the tick samples.
func converge16k(r *runner, workers int) {
	sc := scenario{side: r.pick(128, 16), workers: workers,
		initial: func(n int) [][]float64 { return pplb.MultiHotspotLoad(n, n/16, 16*n, 0.25) }}
	r.repeat(sc, 3, func(s *system) {
		ticks, ok := r.runUntilBalanced(s, 0.2, 4000)
		r.exact["ticks_to_balance"] = float64(ticks)
		var unbalanced error
		if !ok {
			unbalanced = fmt.Errorf("CV still at least 0.2 after %d ticks", ticks)
		}
		r.check("converge reaches balance", unbalanced)
		for i := r.pick(10, 1); i > 0; i-- {
			r.cycle(s, s.leave, 0)
		}
	})
}

// serve16k is an open system: Poisson arrivals everywhere plus a wandering
// hotspot, served at a fixed rate, stepped tick by tick after a warm-up.
// Its operations come after the ticks, as on converge-16k.
func serve16k(r *runner, workers int) {
	sc := scenario{side: r.pick(128, 16), workers: workers, service: 0.2,
		initial: func(n int) [][]float64 { return pplb.UniformRandomLoad(n, 2*n, 0.5, 3) },
		arrivals: func(g *pplb.Graph) pplb.ArrivalFunc {
			return pplb.CombineArrivals(pplb.PoissonArrivals(0.1, 1, g.N()),
				pplb.MovingHotspotArrivals(g, 0, 5, 1, 20, 7))
		}}
	r.repeat(sc, 2, func(s *system) {
		warm := r.pick(100, 5)
		s.Run(warm)
		r.ops += warm
		r.tr.resetPlan()
		for i := r.pick(300, 10); i > 0; i-- {
			r.step(s)
		}
		r.exact["response_ticks_mean"] = s.State().ResponseTimes().Mean()
		for i := r.pick(10, 1); i > 0; i-- {
			r.cycle(s, s.leave, 0)
		}
	})
}

// sparse1m is the active-set regime at a million nodes: 64 hotspots whose
// spreading fronts are the only live nodes. After its ticks one node leaves,
// and the tick that re-plans the machine follows. A rep takes about 9 s, a
// third of it in that one operation cycle, so a rep has only one, and the
// rep's own set-up is its only set-up sample.
func sparse1m(r *runner, workers int) {
	sc := scenario{side: r.pick(1024, 16), workers: workers,
		initial: func(n int) [][]float64 { return pplb.MultiHotspotLoad(n, r.pick(64, 4), r.pick(65536, 256), 1) }}
	r.repeat(sc, 0, func(s *system) {
		for i := r.pick(150, 10); i > 0; i-- {
			r.step(s)
		}
		r.cycle(s, s.leave, 1)
	})
}

// churn16k cycles through the changes the engine's churn tick benchmark
// makes: a departure, a join wired in with three links, then a link failing
// or being repaired. Each change is followed by the tick that re-plans the
// machine and four more. By the second tick only an oscillating fringe of
// about 250 nodes is still active, and it stays that size however long the
// system runs; how large it is depends on the seed. More ticks per change
// would mostly add fringe ticks and make the workload's tick cost a
// property of the seed rather than of the engine. The random initial load
// settles in about 60 ticks of 15-20 ms, whose number also depends on the
// seed, so it settles untimed before the first change.
func churn16k(r *runner, workers int) {
	sc := scenario{side: r.pick(128, 16), workers: workers,
		initial: func(n int) [][]float64 { return pplb.UniformRandomLoad(n, 4*n, 0.5, 3) }}
	r.repeat(sc, 2, func(s *system) {
		warm := r.pick(100, 5)
		s.Run(warm)
		r.ops += warm
		r.tr.resetPlan()
		n := s.side * s.side
		failed := false
		for c := 0; c < r.pick(20, 2); c++ {
			r.cycle(s, func() {
				switch c % 3 {
				case 0:
					s.leave()
				case 1:
					v := s.dyn.Join(pplb.Point2{X: float64(c), Y: -1})
					s.dyn.AddLink(v, 0)
					s.dyn.AddLink(v, n/2)
					s.dyn.AddLink(v, n-1)
				case 2:
					if failed {
						s.dyn.RepairLink(0, 1)
					} else {
						s.dyn.FailLink(0, 1)
					}
					failed = !failed
				}
			}, 5)
		}
	})
}
