// Benchmarks regenerating each paper artifact (tables/figures E1–E14, see
// the README's "Experiment index (E1–E14)") plus engine micro-benchmarks:
//
//	go test -bench=. -benchmem
//
// BenchmarkExperiment runs every experiment at its quick scale; the
// paper-scale numbers come from `pplb-bench -full`.
package pplb

import (
	"strings"
	"testing"
)

// BenchmarkExperiment regenerates each registered experiment, one
// sub-benchmark per id (BenchmarkExperiment/E1 … /E14), and fails if any of
// its shape checks does.
func BenchmarkExperiment(b *testing.B) {
	for _, id := range ExperimentIDs() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := RunExperiment(id, false)
				if r == nil {
					b.Fatalf("experiment %q missing", id)
				}
				if !r.AllPassed() {
					b.Fatalf("%s checks failed: %v", r.ID, r.FailedChecks())
				}
			}
		})
	}
}

// BenchmarkTick measures one engine tick of every scenario in
// TickBenchScenarios, the table `pplb-bench -benchjson` records too. Each
// runs as a sub-benchmark named after its scenario minus the "Tick" prefix,
// e.g. BenchmarkTick/PPLBTorus16384; benchscenarios.go says what each one
// measures.
func BenchmarkTick(b *testing.B) {
	for _, sc := range TickBenchScenarios() {
		b.Run(strings.TrimPrefix(sc.Name, "Tick"), func(b *testing.B) {
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
		})
	}
}

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
