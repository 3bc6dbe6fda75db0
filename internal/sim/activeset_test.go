package sim

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pplb/internal/linkmodel"
	"pplb/internal/rng"
	"pplb/internal/topology"
)

// localGreedy is greedyPolicy with the neighbourhood-locality declaration it
// in fact satisfies (it reads only v's tasks, neighbour loads and incident
// busy links, deterministically), which switches the engine to the
// active-set pipeline.
type localGreedy struct{ greedyPolicy }

func (localGreedy) PlanLocality() Locality { return LocalityNeighborhood }

// localNop plans nothing and declares neighbourhood locality, so its engines
// run on the active set.
type localNop struct{ nopPolicy }

func (localNop) PlanLocality() Locality { return LocalityNeighborhood }

// localSlide additionally exercises inertia (Moving deliveries and the
// settle pass) and flag writes while staying inside the locality contract.
type localSlide struct{}

func (localSlide) Name() string           { return "local-slide" }
func (localSlide) PlanLocality() Locality { return LocalityNeighborhood }

func (localSlide) PlanNodeInto(v int, view *State, _ *rng.RNG, out []Move) []Move {
	tasks := view.TaskStore().AppendHandles(nil, v)
	if len(tasks) == 0 {
		return out
	}
	st := view.TaskStore()
	h := view.Height(v)
	i := 0
	for _, j := range view.Graph().Neighbors(v) {
		if i >= len(tasks) {
			break
		}
		if view.LinkBusy(v, j) || view.Height(j)+1 >= h {
			continue
		}
		t := tasks[i]
		out = append(out, Move{TaskID: st.ID(t), From: v, To: j, NewFlag: h, Moving: st.Load(t) > 0.5})
		i++
	}
	return out
}

// countingPolicy wraps a policy and counts planning invocations, to prove
// converged nodes stop being planned at all.
type countingPolicy struct {
	inner interface {
		Policy
		LocalityDeclarer
	}
	calls atomic.Int64
}

func (c *countingPolicy) Name() string           { return c.inner.Name() }
func (c *countingPolicy) PlanLocality() Locality { return c.inner.PlanLocality() }
func (c *countingPolicy) PlanNodeInto(v int, view *State, r *rng.RNG, buf []Move) []Move {
	c.calls.Add(1)
	return c.inner.PlanNodeInto(v, view, r, buf)
}

// stepCompare runs cfg with the active set against the identical full-sweep
// configuration in lockstep and fails on the first tick where loads or
// counters diverge.
func stepCompare(t *testing.T, cfg Config, ticks int) {
	t.Helper()
	active, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer active.Close()
	if !active.State().ActiveSetEnabled() {
		t.Fatal("expected the active-set pipeline to be enabled")
	}
	sweepCfg := cfg
	sweepCfg.FullSweep = true
	sweep, err := New(sweepCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sweep.Close()
	if sweep.State().ActiveSetEnabled() {
		t.Fatal("FullSweep must disable the active set")
	}
	for i := 0; i < ticks; i++ {
		active.Step()
		sweep.Step()
		a, f := active.State(), sweep.State()
		if ac, fc := a.Counters(), f.Counters(); ac != fc {
			t.Fatalf("tick %d: counters diverge\nactive: %+v\nsweep:  %+v", i, ac, fc)
		}
		al, fl := a.Loads(), f.Loads()
		for v := range al {
			if al[v] != fl[v] {
				t.Fatalf("tick %d: load at node %d diverges: active=%v sweep=%v", i, v, al[v], fl[v])
			}
		}
		if a.InFlightLoad() != f.InFlightLoad() {
			t.Fatalf("tick %d: in-flight load diverges: %v vs %v", i, a.InFlightLoad(), f.InFlightLoad())
		}
	}
}

// TestActiveSetMatchesFullSweep is the engine-level soundness check: across
// faulty links, latency, heterogeneous speeds, service, arrivals, inertia
// and both worker counts, skipping clean nodes must be invisible.
func TestActiveSetMatchesFullSweep(t *testing.T) {
	arr := func(tick int64, r *rng.RNG) []Arrival {
		if tick%3 != 0 {
			return nil
		}
		return []Arrival{{Node: int(tick) % 24, Load: 0.2 + float64(tick%5)/4}}
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"greedy-quiescent", Config{
			Graph:   topology.NewTorus(4, 6),
			Policy:  localGreedy{},
			Seed:    11,
			Initial: hotspotInitial(24, 60),
		}},
		{"slide-inertia-faults", func() Config {
			g := topology.NewTorus(4, 6)
			return Config{
				Graph:   g,
				Links:   linkmodel.New(g, linkmodel.WithUniformFault(0.3), linkmodel.WithUniformLength(2)),
				Policy:  localSlide{},
				Seed:    12,
				Initial: hotspotInitial(24, 40),
			}
		}()},
		{"slide-service-arrivals-hetero", func() Config {
			g := topology.NewTorus(4, 6)
			speeds := make([]float64, 24)
			for i := range speeds {
				speeds[i] = 1 + float64(i%3)
			}
			return Config{
				Graph:       g,
				Policy:      localSlide{},
				Seed:        13,
				Initial:     hotspotInitial(24, 40),
				Arrivals:    arr,
				ServiceRate: 0.15,
				Speeds:      speeds,
			}
		}()},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 8} {
			cfg := tc.cfg
			cfg.Workers = workers
			name := tc.name
			if workers > 1 {
				name += "-parallel"
			}
			t.Run(name, func(t *testing.T) { stepCompare(t, cfg, 120) })
		}
	}
}

// TestActiveSetParallelIdentity pins Workers=1 ≡ Workers=8 on the active-set
// pipeline itself (canonical activation order must be worker-independent).
func TestActiveSetParallelIdentity(t *testing.T) {
	run := func(workers int) ([]float64, Counters) {
		e, err := New(Config{
			Graph:   topology.NewTorus(4, 6),
			Policy:  localSlide{},
			Seed:    21,
			Initial: hotspotInitial(24, 60),
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.Run(150)
		return e.State().Loads(), e.State().Counters()
	}
	seqLoads, seqC := run(1)
	parLoads, parC := run(8)
	if seqC != parC {
		t.Fatalf("counters diverge: %+v vs %+v", seqC, parC)
	}
	for v := range seqLoads {
		if seqLoads[v] != parLoads[v] {
			t.Fatalf("load at node %d diverges: %v vs %v", v, seqLoads[v], parLoads[v])
		}
	}
}

// TestActiveSetDrains is the point of the whole pipeline: once a quiescent
// system converges, the active set empties, planning stops entirely, and
// further ticks neither call PlanNodeInto nor move any load.
func TestActiveSetDrains(t *testing.T) {
	p := &countingPolicy{inner: localGreedy{}}
	e, err := New(Config{
		Graph:   topology.NewTorus(4, 4),
		Policy:  p,
		Seed:    31,
		Initial: hotspotInitial(16, 48),
	})
	if err != nil {
		t.Fatal(err)
	}
	ticks, ok := e.RunUntil(func(s *State) bool { return s.ActiveNodes() == 0 && s.InFlight() == 0 }, 500)
	if !ok {
		t.Fatalf("active set never drained: %d nodes still active after %d ticks", e.State().ActiveNodes(), ticks)
	}
	calls := p.calls.Load()
	loads := e.State().Loads()
	e.Run(100)
	if got := p.calls.Load(); got != calls {
		t.Fatalf("PlanNodeInto ran %d more times after the active set drained", got-calls)
	}
	for v, l := range e.State().Loads() {
		if l != loads[v] {
			t.Fatalf("steady-state load changed at node %d: %v -> %v", v, loads[v], l)
		}
	}
}

// TestActiveSetDisabledForGlobalPolicies: no locality declaration (or a
// TickPreparer) must mean full sweeps.
func TestActiveSetDisabledForGlobalPolicies(t *testing.T) {
	e, err := New(Config{Graph: topology.NewRing(8), Policy: greedyPolicy{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.State().ActiveSetEnabled() {
		t.Fatal("undeclared policy must run full sweeps")
	}
	if n := e.State().ActiveNodes(); n != 8 {
		t.Fatalf("full-sweep ActiveNodes = %d, want N", n)
	}
}

// recordingPolicy records every node it is asked to plan, in call order, and
// plans nothing; it declares neighbourhood locality, so its engines run on
// the active set.
type recordingPolicy struct {
	mu    sync.Mutex
	nodes []int
}

func (*recordingPolicy) Name() string           { return "recording" }
func (*recordingPolicy) PlanLocality() Locality { return LocalityNeighborhood }
func (p *recordingPolicy) PlanNodeInto(v int, _ *State, _ *rng.RNG, out []Move) []Move {
	p.mu.Lock()
	p.nodes = append(p.nodes, v)
	p.mu.Unlock()
	return out
}

// TestActiveSetPlanWalk pins the planning walk over the frozen plan set on a
// ring of 150 nodes, where 64-bit words straddle shard ranges: after the
// engine drains, exactly the marked nodes are planned, once each, in
// ascending order at Workers 1 and as the same set at Workers 4 — including
// two nodes either side of a shard boundary inside one word and node N-1 in
// the partial last word. The tick after, nothing is planned: beginTick must
// clear the consumed plan set before reusing it for marks.
func TestActiveSetPlanWalk(t *testing.T) {
	const n = 150
	marked := []int{0, 8, 9, 17, 18, 63, 64, 65, 127, 128, n - 1}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			p := &recordingPolicy{}
			e, err := New(Config{Graph: topology.NewRing(n), Policy: p, Seed: 1,
				Workers: workers, SerialCutover: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			s := e.state
			if shardOf(17, n) == shardOf(18, n) || 17>>6 != 18>>6 {
				t.Fatal("nodes 17 and 18 must share a word across a shard boundary")
			}
			e.Step() // plans every node once and marks none
			if got := s.ActiveNodes(); got != 0 || len(p.nodes) != n {
				t.Fatalf("first tick planned %d nodes and left %d active; want %d and 0", len(p.nodes), got, n)
			}
			p.nodes = nil
			for _, v := range marked {
				e.markDirty(v)
			}
			e.Step()
			got := p.nodes
			if workers > 1 {
				got = slices.Sorted(slices.Values(got))
			}
			if !slices.Equal(got, marked) {
				t.Fatalf("planned %v, want %v", p.nodes, marked)
			}
			p.nodes = nil
			e.Step()
			if len(p.nodes) != 0 {
				t.Fatalf("the tick after planned %d nodes %v, want none", len(p.nodes), p.nodes)
			}
		})
	}
}
