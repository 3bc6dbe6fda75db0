package workload

import (
	"math"
	"slices"
	"testing"

	"pplb/internal/rng"
	"pplb/internal/sim"
	"pplb/internal/taskmodel"
	"pplb/internal/topology"
)

func TestHotspot(t *testing.T) {
	init := Hotspot(8, 3, 10, 0.5)
	if len(init) != 8 {
		t.Fatalf("len = %d", len(init))
	}
	if len(init[3]) != 10 || len(init[0]) != 0 {
		t.Fatal("all tasks must be on node 3")
	}
	if TotalLoad(init) != 5 {
		t.Fatalf("total = %v", TotalLoad(init))
	}
	if CountTasks(init) != 10 {
		t.Fatalf("count = %d", CountTasks(init))
	}
}

func TestMultiHotspot(t *testing.T) {
	init := MultiHotspot(16, 4, 40, 1)
	nonEmpty := 0
	for _, sizes := range init {
		if len(sizes) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 4 {
		t.Fatalf("expected 4 hotspots, got %d", nonEmpty)
	}
	if CountTasks(init) != 40 {
		t.Fatalf("count = %d", CountTasks(init))
	}
}

func TestUniformRandomDeterministic(t *testing.T) {
	a := UniformRandom(8, 100, 1, 42)
	b := UniformRandom(8, 100, 1, 42)
	for v := range a {
		if len(a[v]) != len(b[v]) {
			t.Fatal("UniformRandom must be deterministic")
		}
	}
	if CountTasks(a) != 100 {
		t.Fatal("count wrong")
	}
	// Different seeds differ (with overwhelming probability).
	c := UniformRandom(8, 100, 1, 43)
	same := true
	for v := range a {
		if len(a[v]) != len(c[v]) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different scatters")
	}
}

func TestStaircase(t *testing.T) {
	init := Staircase(4, 2)
	for v := 0; v < 4; v++ {
		if len(init[v]) != v+1 {
			t.Fatalf("node %d has %d tasks, want %d", v, len(init[v]), v+1)
		}
	}
	if TotalLoad(init) != 2*(1+2+3+4) {
		t.Fatalf("total = %v", TotalLoad(init))
	}
}

func TestBimodal(t *testing.T) {
	init := Bimodal(8, 1000, 1, 10, 0.2, 7)
	small, large := 0, 0
	for _, sizes := range init {
		for _, s := range sizes {
			switch s {
			case 1:
				small++
			case 10:
				large++
			default:
				t.Fatalf("unexpected size %v", s)
			}
		}
	}
	frac := float64(large) / 1000
	if math.Abs(frac-0.2) > 0.05 {
		t.Fatalf("large fraction = %v, want ~0.2", frac)
	}
	if small+large != 1000 {
		t.Fatal("count wrong")
	}
}

func TestEqual(t *testing.T) {
	init := Equal(5, 3, 2)
	for v := range init {
		if len(init[v]) != 3 {
			t.Fatal("Equal must give every node the same count")
		}
	}
	if TotalLoad(init) != 30 {
		t.Fatalf("total = %v", TotalLoad(init))
	}
}

func TestPoissonArrivals(t *testing.T) {
	fn := PoissonArrivals(0.5, 2, 4)
	r := rng.New(1)
	total := 0
	for tick := int64(0); tick < 1000; tick++ {
		for _, a := range fn(tick, r.Split(uint64(tick))) {
			if a.Node < 0 || a.Node >= 4 || a.Load <= 0 {
				t.Fatalf("bad arrival %+v", a)
			}
			total++
		}
	}
	// Expected 0.5*4*1000 = 2000 arrivals.
	if total < 1700 || total > 2300 {
		t.Fatalf("arrival count %d far from expectation 2000", total)
	}
}

func TestHotspotArrivals(t *testing.T) {
	fn := HotspotArrivals(2, 1, 0.5)
	r := rng.New(3)
	for tick := int64(0); tick < 100; tick++ {
		for _, a := range fn(tick, r.Split(uint64(tick))) {
			if a.Node != 2 || a.Load != 0.5 {
				t.Fatalf("bad hotspot arrival %+v", a)
			}
		}
	}
}

func TestBurstArrivals(t *testing.T) {
	fn := BurstArrivals(10, 5, 1, 4)
	r := rng.New(1)
	if got := fn(0, r); len(got) != 5 {
		t.Fatalf("burst at tick 0: %d", len(got))
	}
	if got := fn(3, r); got != nil {
		t.Fatal("no burst off-period")
	}
	burst1 := fn(10, r)
	if len(burst1) != 5 || burst1[0].Node != 1 {
		t.Fatalf("burst rotation wrong: %+v", burst1)
	}
}

func TestScheduleArrivals(t *testing.T) {
	fn := ScheduleArrivals([]TimedArrival{
		{Tick: 5, Node: 1, Load: 2},
		{Tick: 5, Node: 2, Load: 3},
		{Tick: 9, Node: 0, Load: 1},
	})
	r := rng.New(1)
	if got := fn(0, r); got != nil {
		t.Fatal("no arrivals scheduled at tick 0")
	}
	at5 := fn(5, r)
	if len(at5) != 2 || at5[0].Node != 1 || at5[1].Load != 3 {
		t.Fatalf("tick 5 arrivals wrong: %+v", at5)
	}
	if len(fn(9, r)) != 1 {
		t.Fatal("tick 9 arrival missing")
	}
}

func TestCombine(t *testing.T) {
	a := HotspotArrivals(0, 1, 1)
	b := HotspotArrivals(1, 1, 1)
	fn := Combine(a, nil, b)
	r := rng.New(5)
	arrivals := fn(0, r)
	nodes := map[int]bool{}
	for _, x := range arrivals {
		nodes[x.Node] = true
	}
	// Both processes contribute over a few ticks.
	for tick := int64(1); tick < 20; tick++ {
		for _, x := range fn(tick, r.Split(uint64(tick))) {
			nodes[x.Node] = true
		}
	}
	if !nodes[0] || !nodes[1] {
		t.Fatalf("combined arrivals missing a source: %v", nodes)
	}
}

func TestChainDeps(t *testing.T) {
	init := Hotspot(4, 0, 6, 1)
	tg := ChainDeps(init, 3, 2)
	// Chains {0,1,2}, {3,4,5}: deps (0,1),(1,2),(3,4),(4,5).
	if tg.NumDeps() != 4 {
		t.Fatalf("deps = %d, want 4", tg.NumDeps())
	}
	if tg.Weight(1, 2) != 2 || tg.Weight(2, 3) != 0 {
		t.Fatal("chain boundaries wrong")
	}
	if ChainDeps(init, 1, 2).NumDeps() != 0 {
		t.Fatal("chainLen<2 must give empty graph")
	}
}

func TestClusteredDeps(t *testing.T) {
	init := Hotspot(4, 0, 6, 1)
	tg := ClusteredDeps(init, 3, 1)
	// Two clusters of 3: 3 deps each.
	if tg.NumDeps() != 6 {
		t.Fatalf("deps = %d, want 6", tg.NumDeps())
	}
	if tg.Weight(0, 1) != 1 || tg.Weight(0, 2) != 1 || tg.Weight(0, 3) != 0 {
		t.Fatal("cluster membership wrong")
	}
}

func TestRandomDepsDeterministic(t *testing.T) {
	init := Hotspot(4, 0, 10, 1)
	a := RandomDeps(init, 0.3, 1, 9)
	b := RandomDeps(init, 0.3, 1, 9)
	if a.NumDeps() != b.NumDeps() {
		t.Fatal("RandomDeps must be deterministic")
	}
	if a.NumDeps() == 0 || a.NumDeps() == 45 {
		t.Fatalf("implausible dep count %d", a.NumDeps())
	}
}

func TestPinnedResources(t *testing.T) {
	init := [][]float64{{1, 1}, {1}, {}, {1}}
	res := PinnedResources(init, 1.0, 5, 1)
	// Task ids follow injection order: node0 gets 0,1; node1 gets 2; node3 gets 3.
	cases := []struct {
		id   taskmodel.ID
		node int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 3}}
	for _, c := range cases {
		if res.Affinity(c.id, c.node) != 5 {
			t.Fatalf("task %d must be pinned to node %d", c.id, c.node)
		}
	}
	if res.Affinity(0, 1) != 0 {
		t.Fatal("no cross-node affinity expected")
	}
	none := PinnedResources(init, 0, 5, 1)
	if none.Affinity(0, 0) != 0 {
		t.Fatal("p=0 must pin nothing")
	}
}

func TestMovingHotspotArrivals(t *testing.T) {
	g := topology.NewTorus(4, 4)
	fn := MovingHotspotArrivals(g, 5, 4, 1, 3, 0xCAFE)
	center := func(fn func(int64, *rng.RNG) []sim.Arrival, tick int64) int {
		// A fresh high-rate draw guarantees at least one arrival in practice;
		// retry seeds until one appears to stay deterministic-but-safe.
		for s := uint64(0); ; s++ {
			if out := fn(tick, rng.New(s)); len(out) > 0 {
				return out[0].Node
			}
		}
	}
	if got := center(fn, 0); got != 5 {
		t.Fatalf("center at tick 0 = %d, want the start node 5", got)
	}
	if a, b := center(fn, 2), center(fn, 0); a != b {
		t.Fatalf("center moved within a period: %d vs %d", a, b)
	}
	// The walk must actually move across periods (torus, so degree 4 — the
	// first step always leaves the start).
	if got := center(fn, 3); got == 5 {
		t.Fatal("center did not move after one period")
	}
	moved := center(fn, 30)
	// Resume safety: a fresh closure jumped straight to tick 30 lands on the
	// same center as the incrementally-walked one.
	fresh := MovingHotspotArrivals(g, 5, 4, 1, 3, 0xCAFE)
	if got := center(fresh, 30); got != moved {
		t.Fatalf("fresh closure at tick 30 = %d, incremental = %d", got, moved)
	}
	// Every center is a node of the graph and consecutive centers are
	// neighbors (or equal across a period boundary with an isolated node).
	prev := 5
	walked := MovingHotspotArrivals(g, 5, 4, 1, 1, 0xCAFE)
	for tick := int64(1); tick < 20; tick++ {
		cur := center(walked, tick)
		if cur != prev && !slices.Contains(g.Neighbors(prev), cur) {
			t.Fatalf("tick %d: center jumped %d -> %d (not a link)", tick, prev, cur)
		}
		prev = cur
	}
}
