package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"pplb/internal/linkmodel"
	"pplb/internal/rng"
	"pplb/internal/taskmodel"
	"pplb/internal/topology"
)

// nopPolicy never moves anything.
type nopPolicy struct{}

func (nopPolicy) Name() string { return "none" }
func (nopPolicy) PlanNodeInto(_ int, _ *State, _ *rng.RNG, buf []Move) []Move {
	return buf
}

// greedyPolicy moves the largest resident task towards the least-loaded
// neighbour whenever the neighbour is strictly lighter; used to exercise the
// engine mechanics in tests.
type greedyPolicy struct{}

func (greedyPolicy) Name() string { return "test-greedy" }

func (greedyPolicy) PlanNodeInto(v int, view *State, _ *rng.RNG, buf []Move) []Move {
	tasks := view.TaskStore().AppendHandles(nil, v)
	if len(tasks) == 0 {
		return buf
	}
	best := -1
	bestLoad := math.Inf(1)
	for _, n := range view.Graph().Neighbors(v) {
		if view.LinkBusy(v, n) {
			continue
		}
		if l := view.Load(n); l < bestLoad {
			best, bestLoad = n, l
		}
	}
	if best < 0 {
		return buf
	}
	st := view.TaskStore()
	biggest := tasks[0]
	for _, h := range tasks[1:] {
		if st.Load(h) > st.Load(biggest) {
			biggest = h
		}
	}
	if view.Load(v)-st.Load(biggest) <= bestLoad {
		return buf // would overshoot
	}
	return append(buf, Move{TaskID: st.ID(biggest), From: v, To: best, NewFlag: NaNFlag()})
}

// taskIDs returns the ids of the tasks resident at node n, in queue order.
func taskIDs(view *State, n int) []taskmodel.ID {
	var ids []taskmodel.ID
	for _, h := range view.TaskStore().AppendHandles(nil, n) {
		ids = append(ids, view.TaskStore().ID(h))
	}
	return ids
}

func ringConfig(policy Policy, initial [][]float64) Config {
	g := topology.NewRing(4)
	return Config{Graph: g, Policy: policy, Seed: 1, Initial: initial}
}

func TestNewValidation(t *testing.T) {
	g := topology.NewRing(4)
	if _, err := New(Config{Policy: nopPolicy{}}); err == nil {
		t.Fatal("missing graph must error")
	}
	if _, err := New(Config{Graph: g}); err == nil {
		t.Fatal("missing policy must error")
	}
	if _, err := New(Config{Graph: g, Policy: nopPolicy{}, Initial: make([][]float64, 3)}); err == nil {
		t.Fatal("wrong Initial length must error")
	}
	other := topology.NewRing(4)
	if _, err := New(Config{Graph: g, Policy: nopPolicy{}, Links: linkmodel.New(other)}); err == nil {
		t.Fatal("mismatched links must error")
	}
	if _, err := New(Config{Graph: g, Policy: nopPolicy{}, Workers: -1}); err == nil {
		t.Fatal("negative workers must error")
	}
}

// A NaN or infinite T or R weight makes µs non-finite, so New (and with it
// Restore) rejects it, naming the entry with the lowest row id whatever order
// the rows were set in.
func TestNewRejectsNonFiniteWeights(t *testing.T) {
	g := topology.NewRing(8)
	initial := make([][]float64, g.N())
	initial[0] = []float64{1, 1, 1, 1}
	base := Config{Graph: g, Policy: greedyPolicy{}, Seed: 1, Initial: initial}
	e, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(3)
	snap := mustSnap(t, e)
	e.Close()

	tg := taskmodel.NewGraph()
	tg.SetDep(5, 7, math.NaN())
	tg.SetDep(2, 3, 1)
	tg.SetDep(1, 0, math.Inf(-1))
	res := taskmodel.NewResources()
	res.SetAffinity(6, 2, math.Inf(1))
	res.SetAffinity(0, 1, 0.5)
	res.SetAffinity(3, 4, math.NaN())
	for _, tc := range []struct {
		name, want string
		cfg        Config
	}{
		{"TaskGraph", "T(0,1) = -Inf", Config{TaskGraph: tg}},
		{"Resources", "R(3,4) = NaN", Config{Resources: res}},
	} {
		cfg := base
		cfg.TaskGraph, cfg.Resources = tc.cfg.TaskGraph, tc.cfg.Resources
		for i := 0; i < 10; i++ { // map order varies between calls
			if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s: New error %v, want one naming %q", tc.name, err, tc.want)
			}
		}
		if _, err := Restore(snap, cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Restore error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// shardOf must agree with the layout's partition: node v belongs to the
// shard k with shardLo[k] = k·N/numShards ≤ v < shardLo[k+1], including the
// empty shards of graphs smaller than numShards.
func TestShardOfMatchesPartition(t *testing.T) {
	sizes := []int{16_384, 1 << 20}
	for n := 1; n <= 300; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		for k := 0; k < numShards; k++ {
			for v := k * n / numShards; v < (k+1)*n/numShards; v++ {
				if got := shardOf(v, n); got != k {
					t.Fatalf("N=%d: shardOf(%d) = %d, want %d", n, v, got, k)
				}
			}
		}
	}
}

func TestInitialPlacement(t *testing.T) {
	e, err := New(ringConfig(nopPolicy{}, [][]float64{{1, 2}, {3}, {}, {4}}))
	if err != nil {
		t.Fatal(err)
	}
	s := e.State()
	if s.Queue(0).Len() != 2 || s.Queue(1).Len() != 1 || s.Queue(2).Len() != 0 {
		t.Fatal("initial task counts wrong")
	}
	if s.TotalLoad() != 10 {
		t.Fatalf("TotalLoad = %v", s.TotalLoad())
	}
	if s.Counters().Injected != 10 {
		t.Fatalf("Injected = %v", s.Counters().Injected)
	}
	// Non-positive loads are skipped.
	e2, _ := New(ringConfig(nopPolicy{}, [][]float64{{0, -1}, {}, {}, {}}))
	if e2.State().TotalLoad() != 0 {
		t.Fatal("non-positive initial loads must be skipped")
	}
}

func TestNopPolicyConserves(t *testing.T) {
	e, _ := New(ringConfig(nopPolicy{}, [][]float64{{5}, {}, {}, {}}))
	e.Run(50)
	s := e.State()
	if s.TotalLoad() != 5 {
		t.Fatalf("load not conserved: %v", s.TotalLoad())
	}
	if s.Counters().Migrations != 0 {
		t.Fatal("nop policy must not migrate")
	}
	if s.Tick() != 50 {
		t.Fatalf("tick = %d", s.Tick())
	}
}

func TestGreedyBalancesRing(t *testing.T) {
	e, _ := New(ringConfig(greedyPolicy{}, [][]float64{{1, 1, 1, 1, 1, 1, 1, 1}, {}, {}, {}}))
	e.Run(100)
	s := e.State()
	if s.TotalLoad() != 8 {
		t.Fatalf("load not conserved: %v", s.TotalLoad())
	}
	loads := s.Loads()
	// The conservative test policy stalls once no single-task move strictly
	// improves matters: the gap cannot exceed two unit tasks.
	lo, hi := loads[0], loads[0]
	for _, l := range loads {
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	if hi-lo > 2 {
		t.Fatalf("ring not balanced: loads %v", loads)
	}
	if lo == 0 {
		t.Fatalf("every node should have received work: %v", loads)
	}
	if s.Counters().Migrations == 0 {
		t.Fatal("balancing must migrate tasks")
	}
}

func TestMoveValidationRejectsBadMoves(t *testing.T) {
	bad := policyFunc(func(v int, view *State, r *rng.RNG) []Move {
		if v != 0 || view.Tick() != 0 {
			return nil
		}
		id := taskIDs(view, 0)[0]
		return []Move{
			{TaskID: id, From: 0, To: 2, NewFlag: NaNFlag()},  // not an edge in ring4
			{TaskID: id, From: 0, To: 0, NewFlag: NaNFlag()},  // self loop
			{TaskID: id, From: 1, To: 0, NewFlag: NaNFlag()},  // not proposer's task
			{TaskID: 999, From: 0, To: 1, NewFlag: NaNFlag()}, // unknown task
			{TaskID: id, From: 0, To: 1, NewFlag: NaNFlag()},  // valid
			{TaskID: id, From: 0, To: 3, NewFlag: NaNFlag()},  // duplicate task move
		}
	})
	e, _ := New(ringConfig(bad, [][]float64{{5}, {}, {}, {}}))
	e.Run(2)
	s := e.State()
	if s.Counters().Migrations != 1 {
		t.Fatalf("exactly one valid move expected, got %d", s.Counters().Migrations)
	}
	if s.Counters().Rejected != 5 {
		t.Fatalf("5 rejected moves expected, got %d", s.Counters().Rejected)
	}
	if s.TotalLoad() != 5 {
		t.Fatal("load not conserved under invalid moves")
	}
}

// policyFunc adapts a function to Policy.
type policyFunc func(v int, view *State, r *rng.RNG) []Move

func (policyFunc) Name() string { return "func" }
func (f policyFunc) PlanNodeInto(v int, w *State, r *rng.RNG, buf []Move) []Move {
	return append(buf, f(v, w, r)...)
}

// Within one node, two proposals over the same link resolve to the lower
// task id (canonical first-claimant-wins), and a proposal losing a contested
// link does not revive a later duplicate-task move — the deterministic
// conflict rules of the sharded apply phase.
func TestIntraNodeLinkClaimCanonicalOrder(t *testing.T) {
	p := policyFunc(func(v int, view *State, r *rng.RNG) []Move {
		if v != 0 || view.Tick() != 0 {
			return nil
		}
		ids := taskIDs(view, 0)
		// Propose in descending id order; the engine must still apply the
		// lowest id.
		return []Move{
			{TaskID: ids[1], From: 0, To: 1, NewFlag: NaNFlag()},
			{TaskID: ids[0], From: 0, To: 1, NewFlag: NaNFlag()},
		}
	})
	e, _ := New(ringConfig(p, [][]float64{{2, 3}, {}, {}, {}}))
	e.Run(1)
	s := e.State()
	if got := taskIDs(s, 1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("lowest task id must win the link, delivered %v", got)
	}
	if s.Counters().Rejected != 1 {
		t.Fatalf("the higher-id claim must be rejected, got %d", s.Counters().Rejected)
	}
}

func TestOneTransferPerLinkPerTick(t *testing.T) {
	// Both node 0 and node 1 try to send across the same link on tick 0; the
	// lower endpoint wins. On a ring of 4 the two nodes sit in shards 3 and
	// 7, on a ring of 64 both in shard 0, so the contest is decided across
	// shards and within one; Workers 4 with the cutover off runs it on the
	// fused worker loop.
	p := policyFunc(func(v int, view *State, r *rng.RNG) []Move {
		if view.Tick() != 0 || v > 1 {
			return nil
		}
		ids := taskIDs(view, v)
		if len(ids) == 0 {
			return nil
		}
		return []Move{{TaskID: ids[0], From: v, To: 1 - v, NewFlag: NaNFlag()}}
	})
	for _, n := range []int{4, 64} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("ring%d/W%d", n, workers), func(t *testing.T) {
				initial := make([][]float64, n)
				initial[0], initial[1] = []float64{1}, []float64{1}
				e, err := New(Config{Graph: topology.NewRing(n), Policy: p, Seed: 1,
					Initial: initial, Workers: workers, SerialCutover: -1})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				e.Run(1)
				s := e.State()
				if s.Counters().Migrations+int64(s.InFlight()) != 1 {
					t.Fatalf("only one transfer may use a link per tick: migrations=%d inflight=%d",
						s.Counters().Migrations, s.InFlight())
				}
				if s.Counters().Rejected != 1 {
					t.Fatalf("the second proposal must be rejected, got %d", s.Counters().Rejected)
				}
				// Tasks are numbered in node order: node 0 holds task 0.
				if got := taskIDs(s, 1); !slices.Contains(got, 0) || s.Queue(0).Len() != 0 {
					t.Fatalf("node 0's claim must win the link: node 1 holds %v, node 0 holds %d tasks",
						got, s.Queue(0).Len())
				}
			})
		}
	}
}

func TestTransferLatency(t *testing.T) {
	g := topology.NewRing(4)
	links := linkmodel.New(g, linkmodel.WithUniformLength(3)) // latency 3
	moveOnce := policyFunc(func(v int, view *State, r *rng.RNG) []Move {
		if v == 0 && view.Tick() == 0 {
			return []Move{{TaskID: taskIDs(view, 0)[0], From: 0, To: 1, NewFlag: NaNFlag()}}
		}
		return nil
	})
	e, _ := New(Config{Graph: g, Links: links, Policy: moveOnce, Seed: 1,
		Initial: [][]float64{{2}, {}, {}, {}}})
	e.Run(1)
	s := e.State()
	if s.InFlight() != 1 || s.Queue(1).Len() != 0 {
		t.Fatal("task must still be in flight after 1 tick")
	}
	if !s.LinkBusy(0, 1) {
		t.Fatal("link must be busy during transfer")
	}
	e.Run(2)
	if s.InFlight() != 0 || s.Queue(1).Len() != 1 {
		t.Fatal("task must arrive after 3 ticks")
	}
	if s.LinkBusy(0, 1) {
		t.Fatal("link must free after delivery")
	}
	if s.Counters().Traffic <= 0 {
		t.Fatal("delivery must accrue traffic")
	}
}

// TestTransferLatencyExact pins the tick a transfer lands on, tick by tick:
// a move over a latency-L link leaves its sender at once, holds the link for
// exactly L ticks and lands at the end of the L-th. A transfer that faults
// on arrival bounces straight back, and its return leg holds the link for L
// more ticks before the task is home. Delivering one tick early or one tick
// late fails both cases.
func TestTransferLatencyExact(t *testing.T) {
	const L = 3
	for _, tc := range []struct {
		name   string
		fault  float64
		landed int // tick count after which the link is free again
		home   int // node holding the task then
	}{
		{"delivery", 0, L, 1},
		{"bounce", 1, 2 * L, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := topology.NewRing(4)
			links := linkmodel.New(g, linkmodel.WithUniformLength(L), linkmodel.WithUniformFault(tc.fault))
			if eid, _ := g.EdgeID(0, 1); links.LatencyByEdge(eid) != L {
				t.Fatalf("link latency %d, want %d", links.LatencyByEdge(eid), L)
			}
			moveOnce := policyFunc(func(v int, view *State, r *rng.RNG) []Move {
				if v == 0 && view.Tick() == 0 {
					return []Move{{TaskID: taskIDs(view, 0)[0], From: 0, To: 1, NewFlag: NaNFlag()}}
				}
				return nil
			})
			e, err := New(Config{Graph: g, Links: links, Policy: moveOnce, Seed: 1,
				Initial: [][]float64{{2}, {}, {}, {}}})
			if err != nil {
				t.Fatal(err)
			}
			s := e.State()
			for tick := 1; tick <= tc.landed+L; tick++ {
				e.Step()
				// The transfer runs 0 -> 1 until it arrives at the end of
				// tick L; a fault there turns it into the 1 -> 0 bounce leg.
				var legs [][2]int
				s.VisitTransfers(func(_ taskmodel.Handle, from, to int) {
					legs = append(legs, [2]int{from, to})
				})
				if tick < tc.landed {
					want := [2]int{0, 1}
					if tick >= L {
						want = [2]int{1, 0}
					}
					if len(legs) != 1 || legs[0] != want || !s.LinkBusy(0, 1) ||
						s.Queue(0).Len() != 0 || s.Queue(1).Len() != 0 {
						t.Fatalf("after tick %d: transfers %v, link busy %t, queue lengths %d/%d; want one transfer %v holding the link",
							tick, legs, s.LinkBusy(0, 1), s.Queue(0).Len(), s.Queue(1).Len(), want)
					}
					continue
				}
				if len(legs) != 0 || s.LinkBusy(0, 1) || s.Queue(tc.home).Len() != 1 {
					t.Fatalf("after tick %d: transfers %v, link busy %t, node %d holds %d tasks; want the task landed at tick %d",
						tick, legs, s.LinkBusy(0, 1), tc.home, s.Queue(tc.home).Len(), tc.landed)
				}
			}
			c := s.Counters()
			if tc.fault > 0 && (c.Faults != 1 || c.Migrations != 0) {
				t.Fatalf("faults %d, migrations %d; want the one transfer faulted and bounced home", c.Faults, c.Migrations)
			}
			if tc.fault == 0 && (c.Faults != 0 || c.Migrations != 1) {
				t.Fatalf("faults %d, migrations %d; want one delivery", c.Faults, c.Migrations)
			}
		})
	}
}

func TestFlagWrittenOnDeparture(t *testing.T) {
	p := policyFunc(func(v int, view *State, r *rng.RNG) []Move {
		if v == 0 && view.Tick() == 0 {
			return []Move{{TaskID: taskIDs(view, 0)[0], From: 0, To: 1, NewFlag: 7.5, Moving: true}}
		}
		return nil
	})
	e, _ := New(ringConfig(p, [][]float64{{2}, {}, {}, {}}))
	e.Run(1)
	st := e.State().TaskStore()
	h := e.State().TaskStore().AppendHandles(nil, 1)[0]
	if st.Flag(h) != 7.5 {
		t.Fatalf("flag = %v, want 7.5", st.Flag(h))
	}
	if !st.Moving(h) {
		t.Fatal("task must arrive with inertia")
	}
	if st.Hops(h) != 1 {
		t.Fatalf("hops = %d", st.Hops(h))
	}
	// Next tick: policy doesn't move it again → it settles.
	e.Run(1)
	if st.Moving(h) {
		t.Fatal("unmoved inertial task must settle")
	}
}

func TestFaultsBounceTasks(t *testing.T) {
	g := topology.NewRing(4)
	links := linkmodel.New(g, linkmodel.WithUniformFault(0.95))
	// Node 0 keeps trying to push its task to node 1.
	p := policyFunc(func(v int, view *State, r *rng.RNG) []Move {
		if ids := taskIDs(view, 0); v == 0 && len(ids) > 0 && !view.LinkBusy(0, 1) {
			return []Move{{TaskID: ids[0], From: 0, To: 1, NewFlag: NaNFlag()}}
		}
		return nil
	})
	e, _ := New(Config{Graph: g, Links: links, Policy: p, Seed: 7,
		Initial: [][]float64{{3}, {}, {}, {}}})
	e.Run(60)
	s := e.State()
	if s.Counters().Faults == 0 {
		t.Fatal("expected faults at 95% link failure")
	}
	if s.Counters().BouncedTraffic <= 0 {
		t.Fatal("bounced traffic must accrue")
	}
	if s.TotalLoad() != 3 {
		t.Fatalf("faults must not lose load: %v", s.TotalLoad())
	}
}

func TestServiceConsumesAndRecordsResponse(t *testing.T) {
	e, _ := New(Config{
		Graph:       topology.NewRing(4),
		Policy:      nopPolicy{},
		Seed:        1,
		Initial:     [][]float64{{2, 2}, {}, {}, {}},
		ServiceRate: 1,
	})
	e.Run(4)
	s := e.State()
	if s.TotalLoad() != 0 {
		t.Fatalf("service should have drained all load, got %v", s.TotalLoad())
	}
	if s.Counters().TasksCompleted != 2 {
		t.Fatalf("completed = %d", s.Counters().TasksCompleted)
	}
	if math.Abs(s.Counters().Consumed-4) > 1e-12 {
		t.Fatalf("consumed = %v", s.Counters().Consumed)
	}
	// Born at tick 0, the two 2-load tasks complete in the ticks that serve
	// their last unit: 1 and 3.
	if rt := s.ResponseTimes(); rt.N() != 2 || rt.Min() != 1 || rt.Max() != 3 {
		t.Fatalf("response times: n=%d min=%v max=%v, want 2, 1 and 3", rt.N(), rt.Min(), rt.Max())
	}
}

// Service must reach every resident node, however its queue was filled:
// arrivals, a Reconfigure draining a departed node onto its empty
// neighbours, and a Restore. With a non-migrating policy and dyadic loads,
// each tick's Consumed delta is exactly the sum over nodes of min(rate, load
// held), here summed by brute force over queue contents. A skipped node — a
// walk that stops short of a shard end, or a service gate that misses a lone
// resident task — shows up as a smaller delta. No twin or conservation check
// notices such a skip: both sides of a twin share it, and unserved load is
// still accounted for.
func TestServiceReachesEveryResidentNode(t *testing.T) {
	const rate, leaver = 0.25, 14
	g := topology.NewTorus(6, 6)
	near := map[int]bool{leaver: true} // the leaver and its neighbours
	for _, w := range g.Neighbors(leaver) {
		near[w] = true
	}
	initial := make([][]float64, g.N())
	for v := range initial {
		if !near[v] {
			initial[v] = []float64{0.5, 0.25}
		}
	}
	initial[leaver] = []float64{1, 1, 1, 1, 1, 1, 1, 1}

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			var arrived []Arrival
			cfg := Config{
				Graph:       g,
				Policy:      nopPolicy{},
				Seed:        5,
				Initial:     initial,
				ServiceRate: rate,
				Arrivals: func(tick int64, _ *rng.RNG) []Arrival {
					arrived = arrived[:0]
					switch v := int(tick*7) % g.N(); {
					case tick < 10 && !near[v]:
						arrived = append(arrived, Arrival{Node: v, Load: 0.75})
					case tick == 60: // a lone task in an empty system
						arrived = append(arrived, Arrival{Node: 35, Load: 1})
					}
					return arrived
				},
				Workers:       workers,
				SerialCutover: -1,
			}
			lone := false
			step := func(e *Engine) {
				s := e.State()
				st := s.TaskStore()
				held := make([]float64, g.N())
				tasks := 0
				for v := range held {
					for _, h := range st.AppendHandles(nil, v) {
						held[v] += st.Load(h)
						tasks++
					}
				}
				before := s.Counters().Consumed
				e.Step()
				for _, a := range arrived {
					held[a.Node] += a.Load
					tasks++
				}
				lone = lone || tasks == 1
				want := 0.0
				for _, l := range held {
					want += min(rate, l)
				}
				if got := s.Counters().Consumed - before; got != want {
					t.Fatalf("tick %d: consumed %v, queue contents say %v", s.Tick()-1, got, want)
				}
			}

			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for range 10 {
				step(e)
			}
			d := topology.NewDynamic(g)
			d.Leave(leaver)
			rc := commitReconfig(d)
			for _, w := range g.Neighbors(leaver) {
				if e.State().Queue(w).Len() != 0 {
					t.Fatalf("neighbour %d of the leaver is not empty before the drain", w)
				}
			}
			if err := e.Reconfigure(rc); err != nil {
				t.Fatal(err)
			}
			for range 3 {
				step(e)
			}
			snap := mustSnap(t, e)
			e.Close()
			rcfg := cfg
			rcfg.Graph, rcfg.Links, rcfg.Initial = rc.Graph, rc.Links, nil
			r, err := Restore(snap, rcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for r.State().Tick() < 80 {
				step(r)
			}
			if !lone {
				t.Fatal("no tick served a lone resident task")
			}
			if c := r.State().Counters(); c.Consumed != c.Injected || r.State().TaskStore().Live() != 0 {
				t.Fatalf("not drained: consumed %v of %v injected, %d tasks live", c.Consumed, c.Injected, r.State().TaskStore().Live())
			}
		})
	}
}

func TestArrivalsInjectLoad(t *testing.T) {
	arr := func(tick int64, r *rng.RNG) []Arrival {
		if tick < 3 {
			return []Arrival{{Node: int(tick), Load: 1}, {Node: 99, Load: 5}} // 99 out of range, skipped
		}
		return nil
	}
	e, _ := New(Config{
		Graph:    topology.NewRing(4),
		Policy:   nopPolicy{},
		Seed:     1,
		Arrivals: arr,
	})
	e.Run(5)
	s := e.State()
	if s.TotalLoad() != 3 {
		t.Fatalf("arrivals injected %v, want 3", s.TotalLoad())
	}
}

func TestRunUntil(t *testing.T) {
	e, _ := New(ringConfig(greedyPolicy{}, [][]float64{{1, 1, 1, 1, 1, 1, 1, 1}, {}, {}, {}}))
	ticks, ok := e.RunUntil(func(s *State) bool {
		loads := s.Loads()
		lo, hi := loads[0], loads[0]
		for _, l := range loads {
			if l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
		return hi-lo <= 2 && s.InFlight() == 0
	}, 500)
	if !ok {
		t.Fatal("RunUntil must reach near-balance")
	}
	if ticks == 0 || ticks == 500 {
		t.Fatalf("implausible tick count %d", ticks)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() ([]float64, Counters) {
		e, _ := New(Config{
			Graph:   topology.NewTorus(4, 4),
			Policy:  greedyPolicy{},
			Seed:    99,
			Initial: hotspotInitial(16, 32),
			Links:   nil,
		})
		e.Run(100)
		return e.State().Loads(), e.State().Counters()
	}
	l1, c1 := run()
	l2, c2 := run()
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("runs with identical seeds must be identical")
		}
	}
	if c1 != c2 {
		t.Fatal("counters must be identical across identical runs")
	}
}

func hotspotInitial(n, tasks int) [][]float64 {
	init := make([][]float64, n)
	for i := 0; i < tasks; i++ {
		init[0] = append(init[0], 1)
	}
	return init
}

func TestParallelMatchesSequential(t *testing.T) {
	run := func(workers int) ([]float64, Counters) {
		e, _ := New(Config{
			Graph:         topology.NewTorus(4, 4),
			Policy:        greedyPolicy{},
			Seed:          42,
			Initial:       hotspotInitial(16, 48),
			Workers:       workers,
			SerialCutover: -1, // small system: force the fused path
		})
		e.Run(150)
		return e.State().Loads(), e.State().Counters()
	}
	seqLoads, seqC := run(1)
	parLoads, parC := run(8)
	for i := range seqLoads {
		if seqLoads[i] != parLoads[i] {
			t.Fatalf("parallel engine diverged at node %d: %v vs %v", i, seqLoads[i], parLoads[i])
		}
	}
	if seqC != parC {
		t.Fatalf("parallel counters diverged: %+v vs %+v", seqC, parC)
	}
}

// Large arrival batches on parallel engines must be bit-identical to the
// sequential engine (same task ids, same per-queue insertion order, same
// Injected accounting), including out-of-range and non-positive arrivals.
func TestLargeArrivalBatchParallelIdentical(t *testing.T) {
	arr := func(tick int64, r *rng.RNG) []Arrival {
		out := make([]Arrival, 0, 192)
		for i := 0; i < 192; i++ {
			a := Arrival{Node: int((tick*7 + int64(i)*13) % 40), Load: 0.25 + float64(i%8)/8}
			if i%17 == 0 {
				a.Node = 99 // out of range, skipped
			}
			if i%23 == 0 {
				a.Load = 0 // non-positive, skipped
			}
			out = append(out, a)
		}
		return out
	}
	run := func(workers int) ([]float64, Counters) {
		e, err := New(Config{
			Graph:       topology.NewTorus(5, 8),
			Policy:      greedyPolicy{},
			Seed:        6,
			Arrivals:    arr,
			ServiceRate: 0.5,
			Workers:     workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.Run(60)
		return e.State().Loads(), e.State().Counters()
	}
	seqLoads, seqC := run(1)
	parLoads, parC := run(8)
	if seqC != parC {
		t.Fatalf("large-batch counters diverge:\nseq: %+v\npar: %+v", seqC, parC)
	}
	for v := range seqLoads {
		if seqLoads[v] != parLoads[v] {
			t.Fatalf("large-batch load at node %d diverges: seq=%v par=%v", v, seqLoads[v], parLoads[v])
		}
	}
}

func TestSpeedsValidation(t *testing.T) {
	g := topology.NewRing(4)
	if _, err := New(Config{Graph: g, Policy: nopPolicy{}, Speeds: []float64{1, 2}}); err == nil {
		t.Fatal("wrong Speeds length must error")
	}
	if _, err := New(Config{Graph: g, Policy: nopPolicy{}, Speeds: []float64{1, 2, 0, 1}}); err == nil {
		t.Fatal("non-positive speed must error")
	}
}

func TestHeightsWithSpeeds(t *testing.T) {
	g := topology.NewRing(4)
	e, err := New(Config{
		Graph: g, Policy: nopPolicy{}, Seed: 1,
		Initial: [][]float64{{4}, {4}, {}, {}},
		Speeds:  []float64{2, 1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := e.State()
	if s.Height(0) != 2 || s.Height(1) != 4 {
		t.Fatalf("heights = %v,%v want 2,4", s.Height(0), s.Height(1))
	}
	if s.Speed(0) != 2 || s.Speed(2) != 1 {
		t.Fatal("speeds wrong")
	}
	hs := s.Heights()
	if hs[0] != 2 || hs[1] != 4 || hs[2] != 0 {
		t.Fatalf("Heights() = %v", hs)
	}
	// Raw loads unaffected.
	if s.Loads()[0] != 4 {
		t.Fatal("raw loads must not be scaled")
	}
	// Homogeneous default: Height == Load.
	e2, _ := New(ringConfig(nopPolicy{}, [][]float64{{3}, {}, {}, {}}))
	if e2.State().Height(0) != 3 || e2.State().Speed(0) != 1 {
		t.Fatal("homogeneous heights must equal loads")
	}
}

func TestServiceScalesWithSpeed(t *testing.T) {
	g := topology.NewRing(2)
	e, err := New(Config{
		Graph: g, Policy: nopPolicy{}, Seed: 1,
		Initial:     [][]float64{{10}, {10}},
		Speeds:      []float64{2, 1},
		ServiceRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(5)
	s := e.State()
	// Node 0 consumes 2/tick, node 1 consumes 1/tick.
	if s.Queue(0).Total() != 0 || s.Queue(1).Total() != 5 {
		t.Fatalf("after 5 ticks: %v, %v (want 0, 5)", s.Queue(0).Total(), s.Queue(1).Total())
	}
}

func TestOnTickObserver(t *testing.T) {
	count := 0
	e, _ := New(Config{
		Graph:  topology.NewRing(4),
		Policy: nopPolicy{},
		Seed:   1,
		OnTick: func(s *State) { count++ },
	})
	e.Run(7)
	if count != 7 {
		t.Fatalf("OnTick fired %d times, want 7", count)
	}
}

func TestLoadConservationWithEverything(t *testing.T) {
	// Faults + arrivals + service + migrations: injected == resident +
	// in-flight + consumed at all times.
	g := topology.NewTorus(4, 4)
	links := linkmodel.New(g, linkmodel.WithUniformFault(0.2), linkmodel.WithUniformLength(2))
	arr := func(tick int64, r *rng.RNG) []Arrival {
		if tick%3 == 0 {
			return []Arrival{{Node: int(tick) % 16, Load: 1.5}}
		}
		return nil
	}
	e, _ := New(Config{
		Graph: g, Links: links, Policy: greedyPolicy{}, Seed: 5,
		Initial: hotspotInitial(16, 20), Arrivals: arr, ServiceRate: 0.25,
		OnTick: nil,
	})
	for i := 0; i < 200; i++ {
		e.Step()
		s := e.State()
		got := s.TotalLoad() + s.Counters().Consumed
		want := s.Counters().Injected
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("tick %d: conservation broken: resident+inflight+consumed=%v injected=%v", i, got, want)
		}
	}
}

func BenchmarkEngineTickGreedy(b *testing.B) {
	e, _ := New(Config{
		Graph:   topology.NewTorus(16, 16),
		Policy:  greedyPolicy{},
		Seed:    1,
		Initial: hotspotInitial(256, 512),
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// The parallel planner reuses one persistent goroutine pool across ticks;
// stepping must not grow the goroutine count, and Close must release it.
func TestWorkerPoolPersistsAndCloses(t *testing.T) {
	g := topology.NewTorus(4, 4)
	init := make([][]float64, g.N())
	init[0] = []float64{1, 1, 1, 1, 1, 1, 1, 1}
	// SerialCutover -1 forces the fused path even for this small system, so
	// the test exercises real publish/park traffic, not the inline cutover.
	e, err := New(Config{Graph: g, Policy: greedyPolicy{}, Seed: 1, Initial: init, Workers: 4, SerialCutover: -1})
	if err != nil {
		t.Fatal(err)
	}
	e.Step()
	before := runtime.NumGoroutine()
	e.Run(50)
	after := runtime.NumGoroutine()
	if after > before {
		t.Fatalf("goroutines grew from %d to %d while stepping: pool not persistent", before, after)
	}
	e.Close()
	e.Close() // idempotent
	// Worker goroutines unwind asynchronously after Close; poll a bounded
	// number of times rather than racing a wall-clock deadline (which flaked
	// under heavy CI load), and on exhaustion dump all goroutine stacks so a
	// leak is attributable without a rerun.
	const retries = 400
	ok := false
	for i := 0; i < retries; i++ {
		if runtime.NumGoroutine() < before {
			ok = true
			break
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	if !ok {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("goroutines did not drop after Close within %d retries: %d -> %d\n%s",
			retries, before, runtime.NumGoroutine(), buf)
	}
}

// buildDroppedEngine creates, runs and drops a parallel engine without
// calling Close, attaching a probe cleanup. Deliberately not inlinable so
// the engine cannot be pinned by a live stack slot of the caller.
//
//go:noinline
func buildDroppedEngine(t *testing.T, fired chan struct{}) {
	g := topology.NewTorus(4, 4)
	init := make([][]float64, g.N())
	init[0] = []float64{1, 1, 1, 1}
	e, err := New(Config{Graph: g, Policy: greedyPolicy{}, Seed: 1, Initial: init, Workers: 4, SerialCutover: -1})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(10)
	runtime.AddCleanup(e, func(ch chan struct{}) { close(ch) }, fired)
}

// A parallel engine dropped without Close must be reclaimable: no live
// goroutine may keep it reachable (idle fused workers reference only the
// pool, and fanOut nils the phase closure after every barrier). The engine's
// internal self-closures are fine — unlike the old SetFinalizer scheme,
// runtime.AddCleanup tolerates reference cycles through the object — but a
// worker retaining a populated phaseDesc would still pin it, which is exactly
// what this test would catch. When the engine goes, its own cleanup closes
// the pool; the probe cleanup reports the collection.
func TestDroppedParallelEngineIsFinalized(t *testing.T) {
	fired := make(chan struct{})
	buildDroppedEngine(t, fired)
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-fired:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("dropped engine was never cleaned up: something still references it")
}

// The deliberate conservation-leak hook must actually corrupt the ledger
// (that is its whole job: proving the harness invariant engine catches a
// real engine-state bug) and must be inert when disabled.
func TestConservationLeakHook(t *testing.T) {
	build := func() *Engine {
		g := topology.NewRing(8)
		e, err := New(Config{
			Graph:   g,
			Policy:  nopPolicy{},
			Initial: [][]float64{{1, 1}, {1}, {1}, {1}, {1}, {1}, {1}, {1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	clean := build()
	clean.Run(10)
	c := clean.State().Counters()
	if got := clean.State().TotalLoad() + c.Consumed; got != c.Injected {
		t.Fatalf("hook disabled but ledger off: total+consumed=%v injected=%v", got, c.Injected)
	}

	SetConservationLeakForTest(3)
	defer SetConservationLeakForTest(0)
	leaky := build()
	leaky.Run(10)
	c = leaky.State().Counters()
	if got := leaky.State().TotalLoad() + c.Consumed; got >= c.Injected {
		t.Fatalf("leak hook had no effect: total+consumed=%v injected=%v", got, c.Injected)
	}
}
