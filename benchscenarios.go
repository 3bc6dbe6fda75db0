package pplb

import "strconv"

// TickBenchScenario is one engine tick-benchmark configuration. The same
// table backs the go-test BenchmarkTick sub-benchmarks and the
// machine-readable `pplb-bench -benchjson` record, so the two report
// comparable numbers and cannot drift apart.
type TickBenchScenario struct {
	Name string
	// New builds the system and advances it to the measured steady state.
	New func() (*System, error)
	// NewTick, when non-nil, returns the per-iteration step function for a
	// freshly built system, replacing the plain sys.Step() loop. Scenarios
	// with per-iteration work beyond a tick — the churn scenario interleaves
	// topology reconfigurations with stepping — use it; i is the benchmark
	// iteration index.
	NewTick func(sys *System) func(i int) error
}

func tickScenario(name string, mkGraph func() *Graph, mkPolicy func() Policy, tasks, warm int, extra ...Option) TickBenchScenario {
	return TickBenchScenario{
		Name: name,
		New: func() (*System, error) {
			g := mkGraph()
			opts := append([]Option{
				WithInitial(HotspotLoad(g.N(), 0, tasks, 0.5)),
				WithSeed(1),
				WithMetricsEvery(1 << 30), // effectively disable metrics in the hot loop
			}, extra...)
			sys, err := NewSystem(g, mkPolicy(), opts...)
			if err != nil {
				return nil, err
			}
			sys.Run(warm) // spread load so ticks measure steady-state work
			return sys, nil
		},
	}
}

// parallelScenario is a uniform-random workload on mkGraph() with the whole
// tick pipeline running on `workers` goroutines (1 = the sequential engine,
// bit-identical by the determinism contract). tasksPerNode scales the
// steady-state work with the topology size.
func parallelScenario(name string, mkGraph func() *Graph, tasksPerNode, workers, warm int) TickBenchScenario {
	return TickBenchScenario{
		Name: name,
		New: func() (*System, error) {
			g := mkGraph()
			sys, err := NewSystem(g, NewBalancer(DefaultBalancerConfig()),
				WithInitial(UniformRandomLoad(g.N(), tasksPerNode*g.N(), 0.5, 3)),
				WithSeed(1),
				WithWorkers(workers),
				WithMetricsEvery(1<<30),
			)
			if err != nil {
				return nil, err
			}
			sys.Run(warm)
			return sys, nil
		},
	}
}

// steadyStateScenario is the active-set headline measurement: a uniform
// random workload on a 128x128 torus warmed well past convergence (the
// transient dies out within ~200 ticks; by `warm` the active set has drained
// to a stochastic fringe of ~125 of 16,384 nodes), so the measured loop is
// pure post-convergence tick cost. The FullSweep twin re-plans all N nodes
// every tick from the bit-identical state, so the ratio of the pair is the
// active-set speedup with everything else held fixed.
func steadyStateScenario(name string, warm int, fullSweep bool) TickBenchScenario {
	return TickBenchScenario{
		Name: name,
		New: func() (*System, error) {
			g := Torus(128, 128)
			opts := []Option{
				WithInitial(UniformRandomLoad(g.N(), 4*g.N(), 0.5, 3)),
				WithSeed(1),
				WithWorkers(8),
				WithMetricsEvery(1 << 30),
			}
			if fullSweep {
				opts = append(opts, WithFullSweep())
			}
			sys, err := NewSystem(g, NewBalancer(DefaultBalancerConfig()), opts...)
			if err != nil {
				return nil, err
			}
			sys.Run(warm)
			return sys, nil
		},
	}
}

// churnScenario measures the tick pipeline under sustained topology churn:
// the dense Torus16384 workload where every churnPeriod-th iteration first
// applies one staged reconfiguration — cycling node departure, node join
// (wired in with three links) and link fail/repair on a fixed edge — before
// stepping. The measured number is therefore the amortised cost of a tick
// in a churning system: mostly ordinary ticks, plus the periodic
// Reconfigure (drain, recall, regrow, rebuild) folded in. Compare against
// TickPPLBTorus16384 to read the churn overhead.
func churnScenario(name string, workers int) TickBenchScenario {
	const churnPeriod = 50
	return TickBenchScenario{
		Name: name,
		New: func() (*System, error) {
			g := Torus(128, 128)
			sys, err := NewSystem(g, NewBalancer(DefaultBalancerConfig()),
				WithInitial(UniformRandomLoad(g.N(), 4*g.N(), 0.5, 3)),
				WithSeed(1),
				WithWorkers(workers),
				WithMetricsEvery(1<<30),
			)
			if err != nil {
				return nil, err
			}
			sys.Run(10)
			return sys, nil
		},
		NewTick: func(sys *System) func(i int) error {
			d := NewDynamic(Torus(128, 128))
			op := 0        // cycles leave / join / link-fault
			victim := 1000 // next departure candidate (stride co-prime to N)
			failed := false
			return func(i int) error {
				if i > 0 && i%churnPeriod == 0 {
					switch op % 3 {
					case 0: // a node departs; the engine drains its queue
						for !d.Alive(victim) || victim <= 1 || victim == 128 || victim == 8192 || victim == 16383 {
							victim = (victim + 997) % 16384
						}
						d.Leave(victim)
						victim = (victim + 997) % 16384
					case 1: // a replacement joins, wired in with three links
						v := d.Join(Point2{X: float64(op), Y: -1})
						d.AddLink(v, 0)
						d.AddLink(v, 8192)
						d.AddLink(v, 16383)
					case 2: // link fault churn on a fixed edge
						if failed {
							d.RepairLink(0, 1)
						} else {
							d.FailLink(0, 1)
						}
						failed = !failed
					}
					op++
					if err := sys.ReconfigureFrom(d); err != nil {
						return err
					}
				}
				sys.Step()
				return nil
			}
		},
	}
}

// postChurnSteadyScenario pins that reconfiguration leaves no residue on the
// hot path: the steady-state Torus16384 system lives through a short
// join/leave/link-fault schedule during warm-up, re-converges, and the
// measured loop is then ordinary churn-free ticks. Those must cost what
// they cost on a never-reconfigured engine — the allocation gate holds this
// scenario to the same 0 allocs/op as its churn-free twin.
func postChurnSteadyScenario(name string, warm int) TickBenchScenario {
	return TickBenchScenario{
		Name: name,
		New: func() (*System, error) {
			g := Torus(128, 128)
			sys, err := NewSystem(g, NewBalancer(DefaultBalancerConfig()),
				WithInitial(UniformRandomLoad(g.N(), 4*g.N(), 0.5, 3)),
				WithSeed(1),
				WithWorkers(8),
				WithMetricsEvery(1<<30),
			)
			if err != nil {
				return nil, err
			}
			d := NewDynamic(g)
			sys.Run(warm / 4)
			d.Leave(4097)
			d.FailLink(0, 1)
			if err := sys.ReconfigureFrom(d); err != nil {
				return nil, err
			}
			sys.Run(warm / 4)
			v := d.Join(Point2{X: 5, Y: 5})
			d.AddLink(v, 0)
			d.AddLink(v, 128)
			d.RepairLink(0, 1)
			if err := sys.ReconfigureFrom(d); err != nil {
				return nil, err
			}
			sys.Run(warm / 2)
			return sys, nil
		},
	}
}

// sparse1MScenario is the scale scenario the active set opens: a
// 1024x1024 torus (1,048,576 nodes, 2,097,152 links) where load lives in 64
// hotspots, so only the spreading front around each hotspot — a few percent
// of the machine — is ever active. A full sweep plans a million nodes per
// tick regardless; with the active set, tick cost tracks the front size and
// the scenario is feasible on a laptop.
func sparse1MScenario(name string, workers int) TickBenchScenario {
	return TickBenchScenario{
		Name: name,
		New: func() (*System, error) {
			g := Torus(1024, 1024)
			sys, err := NewSystem(g, NewBalancer(DefaultBalancerConfig()),
				WithInitial(MultiHotspotLoad(g.N(), 64, 65536, 1)),
				WithSeed(1),
				WithWorkers(workers),
				WithMetricsEvery(1<<30),
			)
			if err != nil {
				return nil, err
			}
			sys.Run(50)
			return sys, nil
		},
	}
}

// TickBenchScenarios returns the engine tick scenarios. Each runs as the
// go-test sub-benchmark BenchmarkTick/<name minus "Tick">, and `pplb-bench
// -benchjson` records it under that same name.
func TickBenchScenarios() []TickBenchScenario {
	out := []TickBenchScenario{
		// One sequential PPLB tick on small tori, then the diffusion and
		// gradient-model baselines on the same workload for comparison (GM's
		// tick includes its per-tick BFS pressure relaxation).
		tickScenario("TickPPLBTorus256", func() *Graph { return Torus(16, 16) },
			func() Policy { return NewBalancer(DefaultBalancerConfig()) }, 512, 20),
		tickScenario("TickPPLBTorus1024", func() *Graph { return Torus(32, 32) },
			func() Policy { return NewBalancer(DefaultBalancerConfig()) }, 2048, 20),
		tickScenario("TickDiffusionTorus256", func() *Graph { return Torus(16, 16) },
			func() Policy { return DiffusionPolicy(0) }, 512, 20),
		tickScenario("TickGMTorus256", func() *Graph { return Torus(16, 16) },
			func() Policy { return GradientModelPolicy() }, 512, 20),
		// The parallel tick pipeline on a 1024-node random-regular graph.
		parallelScenario("TickPPLBParallel", func() *Graph { return RandomRegular(1024, 4, 7) }, 4, 8, 10),
	}
	// The production-scale scenarios the sharded pipeline opens: tens of
	// thousands of nodes, the evaluation sizes of the massively-parallel
	// load-balancing literature (Eibl & Rüde 2018; Demiralp et al. 2022).
	// The worker-count sweep of the 16k torus measures the parallel speedup
	// on the same commit.
	out = append(out, torus16384Sweep.scenarios()...)
	out = append(out,
		// The scalability ceiling: a 65,536-node random 4-regular graph.
		parallelScenario("TickPPLBRR65536", func() *Graph { return RandomRegular(65536, 4, 7) }, 2, 8, 5),
		// The active-set pair: post-convergence tick cost with and without
		// incremental planning, from bit-identical states. The ratio of the
		// two is the O(changed)-vs-O(N) headline (target: at least 10x).
		steadyStateScenario("TickSteadyStateTorus16384", 400, false),
		steadyStateScenario("TickSteadyStateTorus16384FullSweep", 400, true),
		// The dynamic-topology pair: amortised tick cost under
		// periodic join/leave/link churn, and the churn-free steady tick
		// after a reconfigured history (pinned to 0 allocs/op by the gate).
		churnScenario("TickPPLBChurnTorus16384", 8),
		postChurnSteadyScenario("TickSteadyStateTorus16384PostChurn", 400),
	)
	return append(out, sparse1MSweep.scenarios()...)
}

// ParallelSweep is a worker-count scan of one scenario family: the same
// system measured at Workers ∈ {1, 2, 4, 8}, everything else identical. The
// ratio of the W1 and W8 entries is the whole-tick parallel speedup of the
// fused worker loop on the measuring host; `pplb-bench -benchjson` computes
// it into the record's parallel_speedup field and CI annotates when a
// multi-core runner measures below target.
type ParallelSweep struct {
	Name string
	// Scenarios maps worker count to the scenario name in
	// TickBenchScenarios measuring this family at that count.
	Scenarios map[int]string
}

// ParallelSweeps returns the tracked worker-count sweeps. Torus16384 is the
// dense production-scale workload (every node busy — the speedup ceiling);
// Sparse1M is the active-set regime where only hotspot fronts are live, so
// it measures how much of the fused dispatch survives when the per-tick work
// is a few percent of the machine.
func ParallelSweeps() []ParallelSweep {
	var out []ParallelSweep
	for _, sw := range []workerSweep{torus16384Sweep, sparse1MSweep} {
		names := make(map[int]string, len(sweepWorkers))
		for _, w := range sweepWorkers {
			names[w] = sw.scenarioName(w)
		}
		out = append(out, ParallelSweep{Name: sw.name, Scenarios: names})
	}
	return out
}

// sweepWorkers lists the worker counts of every sweep, in the order their
// scenarios appear in TickBenchScenarios: the default Workers=8 first.
var sweepWorkers = []int{8, 1, 2, 4}

// workerSweep is one row of the sweep table behind both TickBenchScenarios
// and ParallelSweeps. Its scenarios are named "TickPPLB<name>" at the
// default Workers=8 and "TickPPLB<name>W<n>" at every other count.
type workerSweep struct {
	name  string
	build func(name string, workers int) TickBenchScenario
}

var (
	torus16384Sweep = workerSweep{"Torus16384", torus16384Scenario}
	sparse1MSweep   = workerSweep{"Sparse1M", sparse1MScenario}
)

// torus16384Scenario is the dense production-scale workload: four tasks per
// node on a 128x128 torus.
func torus16384Scenario(name string, workers int) TickBenchScenario {
	return parallelScenario(name, func() *Graph { return Torus(128, 128) }, 4, workers, 10)
}

func (sw workerSweep) scenarioName(workers int) string {
	if workers == 8 {
		return "TickPPLB" + sw.name
	}
	return "TickPPLB" + sw.name + "W" + strconv.Itoa(workers)
}

// scenarios builds the sweep's scenario at every worker count.
func (sw workerSweep) scenarios() []TickBenchScenario {
	out := make([]TickBenchScenario, 0, len(sweepWorkers))
	for _, w := range sweepWorkers {
		out = append(out, sw.build(sw.scenarioName(w), w))
	}
	return out
}

// TickBenchScenario lookup by name; nil when unknown.
func tickBenchScenario(name string) *TickBenchScenario {
	for _, s := range TickBenchScenarios() {
		if s.Name == name {
			return &s
		}
	}
	return nil
}
