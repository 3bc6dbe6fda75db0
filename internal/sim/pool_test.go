package sim

import (
	"runtime"
	"sync"
	"testing"

	"pplb/internal/linkmodel"
	"pplb/internal/rng"
	"pplb/internal/topology"
)

// oddWorkerConfig is a deliberately messy scenario — 40 nodes (not a
// multiple of numShards), faulty latency-2 links, arrivals and service — so
// every phase of the fused pipeline does real work under worker counts that
// divide neither the shard count nor each other.
func oddWorkerConfig(workers int) Config {
	g := topology.NewTorus(5, 8)
	return Config{
		Graph:  g,
		Links:  linkmodel.New(g, linkmodel.WithUniformFault(0.1), linkmodel.WithUniformLength(2)),
		Policy: greedyPolicy{},
		Seed:   11,
		Arrivals: func(tick int64, r *rng.RNG) []Arrival {
			if tick%2 == 0 {
				return []Arrival{{Node: int(tick) % 40, Load: 1 + float64(tick%5)/4}}
			}
			return nil
		},
		ServiceRate:   0.5,
		Workers:       workers,
		SerialCutover: -1, // force the fused path: these ticks are tiny
	}
}

// Workers=1 and odd, non-shard-dividing worker counts must be bit-identical:
// shard claiming by atomic counter hands shards to arbitrary workers, and
// nothing downstream may notice.
func TestFusedOddWorkerIdentity(t *testing.T) {
	run := func(workers int) ([]float64, Counters) {
		e, err := New(oddWorkerConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.Run(120)
		return e.State().Loads(), e.State().Counters()
	}
	refLoads, refC := run(1)
	for _, w := range []int{3, 5, 7} {
		loads, c := run(w)
		if c != refC {
			t.Fatalf("Workers=%d counters diverge:\nW1: %+v\nW%d: %+v", w, refC, w, c)
		}
		for v := range refLoads {
			if loads[v] != refLoads[v] {
				t.Fatalf("Workers=%d load at node %d diverges: %v vs %v", w, v, loads[v], refLoads[v])
			}
		}
	}
}

// The adaptive serial cutover must flip: a freshly built system (every node
// pending) dispatches to the workers, and after the hotspot drains and the
// active set empties the same engine runs its ticks inline. Neither path may
// perturb results relative to the sequential engine.
func TestSerialCutoverFlips(t *testing.T) {
	build := func(workers, cutover int) *Engine {
		e, err := New(Config{
			Graph:         topology.NewTorus(32, 32),
			Policy:        localGreedy{},
			Seed:          3,
			Initial:       hotspotInitial(1024, 64),
			Workers:       workers,
			SerialCutover: cutover,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	e := build(4, 0) // default cutover
	defer e.Close()
	e.Step()
	if !e.parTick {
		t.Fatal("first tick plans all 1024 nodes: estimate must exceed the cutover")
	}
	e.Run(399)
	if e.parTick {
		t.Fatal("converged tick (empty active set, no arrivals/service) must run inline")
	}

	// Both cutover paths and the sequential engine agree exactly.
	seq := build(1, 0)
	defer seq.Close()
	seq.Run(400)
	fused := build(4, -1) // cutover disabled: always fused
	defer fused.Close()
	fused.Run(400)
	wantLoads, wantC := seq.State().Loads(), seq.State().Counters()
	for name, got := range map[string]*Engine{"adaptive": e, "always-fused": fused} {
		if c := got.State().Counters(); c != wantC {
			t.Fatalf("%s counters diverge from sequential:\nseq: %+v\ngot: %+v", name, wantC, c)
		}
		for v, l := range got.State().Loads() {
			if l != wantLoads[v] {
				t.Fatalf("%s load at node %d diverges: %v vs %v", name, v, l, wantLoads[v])
			}
		}
	}
}

// tickWorkEstimate must count every component that makes a tick expensive;
// a term going missing would silently send heavy ticks down the inline path
// and turn the parallel engine into a sequential one.
func TestTickWorkEstimateComponents(t *testing.T) {
	e, err := New(Config{
		Graph:       topology.NewTorus(5, 8),
		Policy:      localGreedy{},
		Seed:        1,
		Initial:     hotspotInitial(40, 8),
		ServiceRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fresh engine: all 40 nodes pending, 8 resident tasks under service.
	if got := e.tickWorkEstimate(5); got != 5+40+8 {
		t.Fatalf("estimate = %d, want arrivals(5)+pending(40)+tasks(8)", got)
	}

	// A global policy has no active set: every node plans every tick.
	g, err := New(Config{
		Graph:   topology.NewTorus(5, 8),
		Policy:  greedyPolicy{},
		Seed:    1,
		Initial: hotspotInitial(40, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.tickWorkEstimate(0); got != 40 {
		t.Fatalf("full-sweep estimate = %d, want N(40); ServiceRate=0 must not count tasks", got)
	}

	// After fused ticks, in which several workers mark concurrently, the
	// pending term is exact: it equals the number of nodes the next tick
	// will plan.
	p, err := New(Config{
		Graph:         topology.NewTorus(16, 16),
		Policy:        localGreedy{},
		Seed:          1,
		Initial:       hotspotInitial(256, 512),
		Workers:       4,
		SerialCutover: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for tick := 0; tick < 12; tick++ {
		p.Step()
		if !p.parTick {
			t.Fatalf("tick %d ran inline with the cutover disabled", tick)
		}
		active := p.State().ActiveNodes()
		if active == 0 {
			t.Fatalf("tick %d: no pending nodes; the hotspot should still be spreading", tick)
		}
		if got := p.tickWorkEstimate(0) - p.State().InFlight(); got != active {
			t.Fatalf("tick %d: pending term = %d, want ActiveNodes() = %d", tick, got, active)
		}
	}
}

// BenchmarkFusedDispatchOverhead measures the pure cost of one fused phase
// dispatch (publish + claim + arrival barrier) with no work in the phase
// body. This is the overhead the serial cutover exists to avoid, and the
// number that motivated fusing the loop in the first place: the old
// channel+WaitGroup pool paid this several times over per phase.
func BenchmarkFusedDispatchOverhead(b *testing.B) {
	for _, workers := range []int{2, 4, 8} {
		b.Run(map[int]string{2: "W2", 4: "W4", 8: "W8"}[workers], func(b *testing.B) {
			p := newFusedPool(workers)
			defer p.close()
			noop := func(int, *rng.RNG) {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.publish(phaseDesc{n: numShards, run: noop})
				for {
					j := int(p.next.Add(1)) - 1
					if j >= numShards {
						break
					}
				}
				p.awaitDone()
			}
		})
	}
}

// BenchmarkShardCounterFalseSharing pins the cache-line padding of
// shardCount: GOMAXPROCS goroutines each hammer their own per-shard counter,
// exactly the access pattern of noteTaskAdded/noteTaskRemoved during a
// parallel service phase. On a multi-core host the unpadded layout (eight
// int64 counters per line) costs several times the padded one in coherence
// traffic; this benchmark is how that was measured (a perf c2c run shows the
// same line bouncing between cores) and how a padding regression would show
// up in CI.
func BenchmarkShardCounterFalseSharing(b *testing.B) {
	const perG = 1024
	workers := runtime.GOMAXPROCS(0)
	if workers > numShards {
		workers = numShards
	}
	bench := func(b *testing.B, bump func(shard int)) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(shard int) {
					defer wg.Done()
					for k := 0; k < perG; k++ {
						bump(shard)
					}
				}(w)
			}
			wg.Wait()
		}
	}
	b.Run("Padded", func(b *testing.B) {
		var counts [numShards]shardCount
		bench(b, func(shard int) { counts[shard].n++ })
		runtime.KeepAlive(&counts)
	})
	b.Run("Unpadded", func(b *testing.B) {
		var counts [numShards]int64
		bench(b, func(shard int) { counts[shard]++ })
		runtime.KeepAlive(&counts)
	})
}
