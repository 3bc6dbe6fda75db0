// Benchmarks regenerating each paper artifact (tables/figures E1–E14, see
// DESIGN.md §3) plus engine micro-benchmarks. One benchmark per artifact:
//
//	go test -bench=. -benchmem
//
// Each ExxBenchmark runs the corresponding experiment at Small scale; the
// full-scale numbers quoted in EXPERIMENTS.md come from `pplb-bench -full`.
package pplb

import (
	"testing"
)

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := RunExperiment(name, false)
		if r == nil {
			b.Fatalf("experiment %q missing", name)
		}
		if !r.AllPassed() {
			b.Fatalf("%s checks failed: %v", r.ID, r.FailedChecks())
		}
	}
}

// BenchmarkE1Fig1Statics regenerates the Fig. 1 / Eq. (1) movement table.
func BenchmarkE1Fig1Statics(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2Fig2Energy regenerates the Fig. 2 energy ledger.
func BenchmarkE2Fig2Energy(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3Fig3Trapping regenerates the Fig. 3 / Theorem 1 trapping table.
func BenchmarkE3Fig3Trapping(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4Table1Sensitivity regenerates the measured Table 1.
func BenchmarkE4Table1Sensitivity(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5Thm2Convergence regenerates the Theorem 2 convergence series.
func BenchmarkE5Thm2Convergence(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6BaselineComparison regenerates the baseline comparison table.
func BenchmarkE6BaselineComparison(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7FaultTolerance regenerates the fault sweep.
func BenchmarkE7FaultTolerance(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8DependencyAffinity regenerates the dependency sweep.
func BenchmarkE8DependencyAffinity(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9Annealing regenerates the arbiter cooling sweep.
func BenchmarkE9Annealing(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10DynamicArrivals regenerates the response-time table.
func BenchmarkE10DynamicArrivals(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11Scalability regenerates the engine-throughput table.
func BenchmarkE11Scalability(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12Ablations regenerates the design-choice ablation table.
func BenchmarkE12Ablations(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13Heterogeneity regenerates the speed-weighted-surface table.
func BenchmarkE13Heterogeneity(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14StaticVsDynamic regenerates the static-vs-dynamic comparison.
func BenchmarkE14StaticVsDynamic(b *testing.B) { benchExperiment(b, "E14") }

// --- engine micro-benchmarks through the public API ---

// benchTickScenario runs a scenario from the shared table backing both
// these benchmarks and `pplb-bench -benchjson`.
func benchTickScenario(b *testing.B, name string) {
	b.Helper()
	sc := tickBenchScenario(name)
	if sc == nil {
		b.Fatalf("unknown tick scenario %q", name)
	}
	sys, err := sc.New()
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	step := func(int) error { sys.Step(); return nil }
	if sc.NewTick != nil {
		step = sc.NewTick(sys)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := step(i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTickPPLBTorus256 measures one engine tick of PPLB on a 16x16
// torus with 512 tasks.
func BenchmarkTickPPLBTorus256(b *testing.B) { benchTickScenario(b, "TickPPLBTorus256") }

// BenchmarkTickPPLBTorus1024 measures one engine tick of PPLB on a 32x32
// torus with 2048 tasks.
func BenchmarkTickPPLBTorus1024(b *testing.B) { benchTickScenario(b, "TickPPLBTorus1024") }

// BenchmarkTickDiffusionTorus256 measures the diffusion baseline for
// comparison.
func BenchmarkTickDiffusionTorus256(b *testing.B) { benchTickScenario(b, "TickDiffusionTorus256") }

// BenchmarkTickGMTorus256 measures the gradient-model baseline (includes the
// per-tick BFS pressure relaxation).
func BenchmarkTickGMTorus256(b *testing.B) { benchTickScenario(b, "TickGMTorus256") }

// BenchmarkTickPPLBParallel measures the goroutine-parallel tick pipeline on
// a 1024-node random-regular graph.
func BenchmarkTickPPLBParallel(b *testing.B) { benchTickScenario(b, "TickPPLBParallel") }

// BenchmarkTickPPLBTorus16384 measures the parallel pipeline at production
// scale: one PPLB tick on a 128x128 torus (16,384 nodes, ~65k tasks) with
// Workers=8.
func BenchmarkTickPPLBTorus16384(b *testing.B) { benchTickScenario(b, "TickPPLBTorus16384") }

// BenchmarkTickPPLBTorus16384W1 is the sequential twin of Torus16384: the
// ratio of the two is the whole-tick parallel speedup on this commit. W2 and
// W4 fill in the sweep (see ParallelSweeps), so the scaling curve — not just
// its endpoints — is on record for every PR.
func BenchmarkTickPPLBTorus16384W1(b *testing.B) { benchTickScenario(b, "TickPPLBTorus16384W1") }

func BenchmarkTickPPLBTorus16384W2(b *testing.B) { benchTickScenario(b, "TickPPLBTorus16384W2") }

func BenchmarkTickPPLBTorus16384W4(b *testing.B) { benchTickScenario(b, "TickPPLBTorus16384W4") }

// BenchmarkTickPPLBRR65536 measures one parallel PPLB tick on a 65,536-node
// random 4-regular graph — the scalability ceiling scenario.
func BenchmarkTickPPLBRR65536(b *testing.B) { benchTickScenario(b, "TickPPLBRR65536") }

// BenchmarkTickSteadyStateTorus16384 measures the post-convergence tick on a
// 16,384-node torus with the active-set pipeline: the system is warmed well
// past equilibrium, so only the residual stochastic fringe (~125 nodes) is
// re-planned each tick.
func BenchmarkTickSteadyStateTorus16384(b *testing.B) {
	benchTickScenario(b, "TickSteadyStateTorus16384")
}

// BenchmarkTickSteadyStateTorus16384FullSweep is the same converged state
// with the active set disabled — every tick re-plans all 16,384 nodes. The
// ratio against BenchmarkTickSteadyStateTorus16384 is the active-set speedup
// (target: ≥10x).
func BenchmarkTickSteadyStateTorus16384FullSweep(b *testing.B) {
	benchTickScenario(b, "TickSteadyStateTorus16384FullSweep")
}

// BenchmarkTickPPLBChurnTorus16384 measures the amortised tick under
// sustained topology churn: every 50th iteration applies one committed
// reconfiguration (node leave, node join, or link fail/repair) before
// stepping. The delta against BenchmarkTickPPLBTorus16384 is the cost of
// dynamic topology support under churn.
func BenchmarkTickPPLBChurnTorus16384(b *testing.B) {
	benchTickScenario(b, "TickPPLBChurnTorus16384")
}

// BenchmarkTickSteadyStateTorus16384PostChurn measures the churn-free steady
// tick of an engine that has lived through reconfigurations — it must match
// the never-reconfigured steady tick (and stays in the 0 allocs/op gate).
func BenchmarkTickSteadyStateTorus16384PostChurn(b *testing.B) {
	benchTickScenario(b, "TickSteadyStateTorus16384PostChurn")
}

// BenchmarkTickPPLBSparse1M measures one tick on a 1,048,576-node torus with
// load concentrated in 64 hotspots — only the spreading fronts are active, so
// tick cost is O(changed), not O(N). Infeasible as a full sweep. The W1/W2/W4
// variants complete the worker sweep in the sparse regime.
func BenchmarkTickPPLBSparse1M(b *testing.B) { benchTickScenario(b, "TickPPLBSparse1M") }

func BenchmarkTickPPLBSparse1MW1(b *testing.B) { benchTickScenario(b, "TickPPLBSparse1MW1") }

func BenchmarkTickPPLBSparse1MW2(b *testing.B) { benchTickScenario(b, "TickPPLBSparse1MW2") }

func BenchmarkTickPPLBSparse1MW4(b *testing.B) { benchTickScenario(b, "TickPPLBSparse1MW4") }

// BenchmarkStaticMapping measures the simulated-annealing mapper.
func BenchmarkStaticMapping(b *testing.B) {
	g := Torus(4, 4)
	loads := make([]float64, 64)
	for i := range loads {
		loads[i] = 0.5 + float64(i%4)/4
	}
	comm := ClusteredDeps([][]float64{loads}, 4, 1)
	p := &MappingProblem{G: g, Loads: loads, Comm: comm, Lambda: 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = StaticMap(p, AnnealParams{Iterations: 2000, Seed: uint64(i)})
	}
}

// BenchmarkParticleSimulation measures the physics engine on a bowl.
func BenchmarkParticleSimulation(b *testing.B) {
	pl := BowlPlane(41, 10, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt := NewParticle(pl, 1, 1, 1, 0.05, 0.1, 1)
		SimulateParticle(pl, pt, 300)
	}
}

// BenchmarkControlPlane1M measures the operations around the ticks of a
// 1024x1024 torus (1,048,576 nodes, 2,097,152 links): building the topology,
// building its link parameters, committing one node departure, and
// snapshotting an engine that has already been snapshotted once. Each is a
// fraction of a second, so `make bench-control` runs them at -benchtime 1x.
func BenchmarkControlPlane1M(b *testing.B) {
	b.Run("torus", func(b *testing.B) {
		for b.Loop() {
			Torus(1024, 1024)
		}
	})
	g := Torus(1024, 1024)
	b.Run("links", func(b *testing.B) {
		for b.Loop() {
			Links(g)
		}
	})
	b.Run("commit", func(b *testing.B) {
		d := NewDynamic(g)
		v := 0
		for b.Loop() {
			d.Leave(v)
			d.Commit()
			v++
		}
	})
	b.Run("snapshot-again", func(b *testing.B) {
		sys, err := NewSystem(g, NewBalancer(DefaultBalancerConfig()),
			WithInitial(MultiHotspotLoad(g.N(), 64, 65536, 1)),
			WithSeed(1),
			WithMetricsEvery(1<<30),
		)
		if err != nil {
			b.Fatal(err)
		}
		defer sys.Close()
		if _, err := sys.Snapshot(); err != nil {
			b.Fatal(err)
		}
		for b.Loop() {
			if _, err := sys.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
