package pplb

import (
	"math"
	"testing"

	"pplb/internal/taskmodel"
)

// withoutSerialCutover disables the parallel engine's adaptive serial
// cutover, so even the tiny ticks of these small systems take the fused
// worker path instead of running inline. Results are bit-identical either
// way; the point is to exercise the fused machinery.
func withoutSerialCutover() Option { return func(c *sysConfig) { c.sim.SerialCutover = -1 } }

// Load-conservation invariant: at every tick, everything ever injected is
// accounted for — resident on some node, in flight on some link, or consumed
// by service. The engine's incremental aggregates (cached queue totals,
// in-flight load) must agree with that ledger exactly, for every policy and
// topology, including runs with faults, arrivals and service.
func TestLoadConservationInvariant(t *testing.T) {
	topologies := []struct {
		name string
		g    *Graph
	}{
		{"mesh4x4", Mesh(4, 4)},
		{"torus4x4", Torus(4, 4)},
		{"hypercube4", Hypercube(4)},
	}
	policies := []struct {
		name string
		mk   func(g *Graph) Policy
	}{
		{"pplb", func(*Graph) Policy { return NewBalancer(DefaultBalancerConfig()) }},
		{"diffusion", func(*Graph) Policy { return DiffusionPolicy(0) }},
		{"dimexchange", func(g *Graph) Policy { return DimensionExchangePolicy(g) }},
		{"gm", func(*Graph) Policy { return GradientModelPolicy() }},
		{"cwn", func(*Graph) Policy { return CWNPolicy(0) }},
		{"random", func(*Graph) Policy { return RandomSenderPolicy() }},
		{"none", func(*Graph) Policy { return NoPolicy() }},
	}
	for _, tc := range topologies {
		for _, pc := range policies {
			t.Run(tc.name+"/"+pc.name, func(t *testing.T) {
				g := tc.g
				worst := 0.0
				sys, err := NewSystem(g, pc.mk(g),
					WithInitial(MultiHotspotLoad(g.N(), 3, 24, 0.75)),
					WithArrivals(PoissonArrivals(0.05, 0.5, g.N())),
					WithServiceRate(0.1),
					WithLinks(Links(g, WithUniformFault(0.02))),
					WithSeed(99),
					WithObserver(func(s *State) {
						c := s.Counters()
						resident := 0.0
						for v := 0; v < g.N(); v++ {
							resident += s.Queue(v).Total()
						}
						ledger := resident + s.InFlightLoad() + c.Consumed
						if d := math.Abs(ledger - c.Injected); d > worst {
							worst = d
						}
					}),
				)
				if err != nil {
					t.Fatal(err)
				}
				sys.Run(300)
				if worst > 1e-6 {
					t.Fatalf("load leak: worst |resident+inflight+consumed - injected| = %g", worst)
				}
			})
		}
	}
}

// The parallel planner must be bit-identical to the sequential one: same
// loads, same counters, tick for tick, over a long dynamic run. Workers=3
// rides along because it is the adversarial count for the fused loop's
// shard claiming (odd, divides neither the 16 shards nor 8); the serial
// cutover is disabled so the small system actually runs the fused path
// instead of falling back to inline ticks.
func TestWorkersBitIdentity500Ticks(t *testing.T) {
	run := func(workers int) ([]float64, Counters) {
		g := Torus(8, 8)
		sys, err := NewSystem(g, NewBalancer(DefaultBalancerConfig()),
			WithInitial(HotspotLoad(g.N(), 0, 128, 0.5)),
			WithArrivals(PoissonArrivals(0.02, 0.5, g.N())),
			WithServiceRate(0.05),
			WithSeed(2024),
			WithWorkers(workers),
			withoutSerialCutover(),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		sys.Run(500)
		return sys.Loads(), sys.Counters()
	}
	seqLoads, seqC := run(1)
	for _, w := range []int{3, 8} {
		parLoads, parC := run(w)
		if seqC != parC {
			t.Fatalf("workers=%d counters diverge:\nseq: %+v\npar: %+v", w, seqC, parC)
		}
		for v := range seqLoads {
			if seqLoads[v] != parLoads[v] {
				t.Fatalf("workers=%d load at node %d diverges: seq=%v par=%v", w, v, seqLoads[v], parLoads[v])
			}
		}
	}
}

// Link faults and the parallel pipeline together: transfers faulting with
// DeliveryFailureProb > 0 draw from the per-transfer (task, tick)-keyed
// fault streams inside the sharded advancement fan-out, and must neither
// leak load at any tick nor diverge from the sequential engine.
func TestLoadConservationFaultyParallel(t *testing.T) {
	run := func(workers int) ([]float64, Counters) {
		g := Torus(8, 8)
		worst := 0.0
		sys, err := NewSystem(g, NewBalancer(DefaultBalancerConfig()),
			WithInitial(MultiHotspotLoad(g.N(), 4, 192, 0.5)),
			WithArrivals(PoissonArrivals(0.05, 0.5, g.N())),
			WithServiceRate(0.1),
			WithLinks(Links(g, WithUniformFault(0.15), WithUniformLength(2))),
			WithSeed(7),
			WithWorkers(workers),
			withoutSerialCutover(), // keep the fused advancement path exercised
			WithObserver(func(s *State) {
				c := s.Counters()
				resident := 0.0
				for v := 0; v < g.N(); v++ {
					resident += s.Queue(v).Total()
				}
				if d := math.Abs(resident + s.InFlightLoad() + c.Consumed - c.Injected); d > worst {
					worst = d
				}
			}),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		sys.Run(400)
		if worst > 1e-6 {
			t.Fatalf("workers=%d: load leak under faults: worst imbalance %g", workers, worst)
		}
		if sys.Counters().Faults == 0 {
			t.Fatalf("workers=%d: no faults at p=0.15 — fault path not exercised", workers)
		}
		return sys.Loads(), sys.Counters()
	}
	seqLoads, seqC := run(1)
	parLoads, parC := run(8)
	if seqC != parC {
		t.Fatalf("faulty counters diverge:\nseq: %+v\npar: %+v", seqC, parC)
	}
	for v := range seqLoads {
		if seqLoads[v] != parLoads[v] {
			t.Fatalf("faulty load at node %d diverges: seq=%v par=%v", v, seqLoads[v], parLoads[v])
		}
	}
}

// The production-scale determinism pin: the Torus16384 workload must be
// bit-identical (counters and every node load) over 500 ticks across
// Workers ∈ {1, 3, 8} × {incremental, full-sweep} — six engines, one
// answer. This is the contract that lets the worker sweeps of the tick
// benchmarks compare their entries as measurements of the same computation. The
// incremental engines keep the default serial cutover, so they start fused
// (every node pending) and drop to inline ticks as the system converges —
// the flip itself is under test; the full-sweep engines estimate N work
// units every tick and never leave the fused path.
func TestTorus16384BitIdentity500Ticks(t *testing.T) {
	if testing.Short() {
		t.Skip("16k-node 500-tick runs are too slow for -short")
	}
	run := func(workers int, fullSweep bool) ([]float64, Counters) {
		g := Torus(128, 128)
		opts := []Option{
			WithInitial(UniformRandomLoad(g.N(), 4*g.N(), 0.5, 3)),
			WithSeed(1),
			WithWorkers(workers),
			WithMetricsEvery(1 << 30),
		}
		if fullSweep {
			opts = append(opts, WithFullSweep())
		}
		sys, err := NewSystem(g, NewBalancer(DefaultBalancerConfig()), opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		sys.Run(500)
		return sys.Loads(), sys.Counters()
	}
	refLoads, refC := run(1, false)
	for _, w := range []int{1, 3, 8} {
		for _, fullSweep := range []bool{false, true} {
			if w == 1 && !fullSweep {
				continue // the reference itself
			}
			loads, c := run(w, fullSweep)
			if c != refC {
				t.Fatalf("workers=%d fullsweep=%t counters diverge at 16384 nodes:\nref: %+v\ngot: %+v",
					w, fullSweep, refC, c)
			}
			for v := range refLoads {
				if loads[v] != refLoads[v] {
					t.Fatalf("workers=%d fullsweep=%t load at node %d diverges: ref=%v got=%v",
						w, fullSweep, v, refLoads[v], loads[v])
				}
			}
		}
	}
}

// The full-stack combination on a non-torus topology: heterogeneous speeds
// (surface = drain time, service scaled per node) × link faults (bounce
// paths) × batched arrivals (96-task bursts) on the cube-connected-cycles
// network. Conservation must hold at every tick and the Workers ∈ {3, 8}
// runs must stay bit-identical to their Workers=1 twin. The cutover is
// disabled: at 24 nodes the adaptive threshold would run everything
// inline, and the point here is the fused parallel tick.
func TestHeteroFaultyBurstCCCIdentity(t *testing.T) {
	g := CCC(3) // 24 nodes, degree 3 — the bounded-degree hypercube substitute
	n := g.N()
	speeds := make([]float64, n)
	for v := range speeds {
		speeds[v] = []float64{0.5, 1, 2}[v%3]
	}
	run := func(workers int) ([]float64, Counters) {
		worst := 0.0
		sys, err := NewSystem(g, NewBalancer(DefaultBalancerConfig()),
			WithInitial(MultiHotspotLoad(n, 3, 96, 0.5)),
			WithArrivals(BurstArrivals(4, 96, 0.4, n)),
			WithServiceRate(0.08),
			WithSpeeds(speeds),
			WithLinks(Links(g, WithUniformFault(0.1))),
			WithSeed(31),
			WithWorkers(workers),
			withoutSerialCutover(),
			WithObserver(func(s *State) {
				c := s.Counters()
				resident := 0.0
				for v := 0; v < n; v++ {
					resident += s.Queue(v).Total()
				}
				if d := math.Abs(resident + s.InFlightLoad() + c.Consumed - c.Injected); d > worst {
					worst = d
				}
			}),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		sys.Run(300)
		if worst > 1e-6 {
			t.Fatalf("workers=%d: load leak: worst imbalance %g", workers, worst)
		}
		c := sys.Counters()
		if c.Faults == 0 {
			t.Fatalf("workers=%d: no faults at p=0.1 — fault path not exercised", workers)
		}
		if c.TasksCompleted == 0 {
			t.Fatalf("workers=%d: no tasks completed — service path not exercised", workers)
		}
		return sys.Loads(), c
	}
	seqLoads, seqC := run(1)
	for _, w := range []int{3, 8} {
		parLoads, parC := run(w)
		if seqC != parC {
			t.Fatalf("workers=%d counters diverge:\nseq: %+v\npar: %+v", w, seqC, parC)
		}
		for v := range seqLoads {
			if seqLoads[v] != parLoads[v] {
				t.Fatalf("workers=%d load at node %d diverges: seq=%v par=%v", w, v, seqLoads[v], parLoads[v])
			}
		}
	}
}

// In-flight load is derived from the transfers on the links: at every tick
// InFlightLoad must equal the sum of the loads VisitTransfers reports, bit
// for bit (same canonical order), and read exactly 0 on an empty network.
func TestInFlightAggregatesConsistent(t *testing.T) {
	g := Torus(4, 4)
	sys, err := NewSystem(g, NewBalancer(DefaultBalancerConfig()),
		WithInitial(HotspotLoad(g.N(), 0, 64, 0.5)),
		WithLinks(Links(g, WithUniformLength(2))), // latency 2: transfers linger
		WithSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	busy := 0
	for i := 0; i < 100; i++ {
		sys.Step()
		s := sys.State()
		st := s.TaskStore()
		sum, n := 0.0, 0
		s.VisitTransfers(func(h taskmodel.Handle, _, _ int) {
			sum += st.Load(h)
			n++
		})
		if n != s.InFlight() {
			t.Fatalf("tick %d: VisitTransfers saw %d transfers, InFlight = %d", i, n, s.InFlight())
		}
		if got := s.InFlightLoad(); math.Float64bits(got) != math.Float64bits(sum) {
			t.Fatalf("tick %d: InFlightLoad = %v, transfer sum %v", i, got, sum)
		}
		if s.InFlight() == 0 && s.InFlightLoad() != 0 {
			t.Fatalf("tick %d: empty network but InFlightLoad = %v", i, s.InFlightLoad())
		}
		if n > 0 {
			busy++
		}
	}
	if busy == 0 {
		t.Fatal("no transfer was ever in flight: the check was vacuous")
	}
}
