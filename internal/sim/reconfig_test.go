package sim

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"pplb/internal/linkmodel"
	"pplb/internal/rng"
	"pplb/internal/topology"
)

// commitReconfig commits a Dynamic's staged changes and returns the
// Reconfig for the new epoch (unit-cost links).
func commitReconfig(d *topology.Dynamic) Reconfig {
	g, epoch := d.Commit()
	return Reconfig{Graph: g, Links: linkmodel.New(g), Epoch: epoch, Dead: d.DeadNodes()}
}

func TestReconfigureValidation(t *testing.T) {
	g := topology.NewRing(4)
	e, err := New(Config{Graph: g, Policy: nopPolicy{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Reconfigure(Reconfig{}); err == nil {
		t.Fatal("nil graph must error")
	}
	small := topology.NewRing(3)
	if err := e.Reconfigure(Reconfig{Graph: small, Epoch: 1}); err == nil {
		t.Fatal("shrinking the id space must error")
	}
	if err := e.Reconfigure(Reconfig{Graph: g, Epoch: 0}); err == nil {
		t.Fatal("non-advancing epoch must error")
	}
	if err := e.Reconfigure(Reconfig{Graph: g, Epoch: 1, Dead: []int{0}}); err == nil {
		t.Fatal("dead node with live edges must error")
	}
	other := topology.NewRing(5)
	if err := e.Reconfigure(Reconfig{Graph: g, Links: linkmodel.New(other), Epoch: 1}); err == nil {
		t.Fatal("links for a different graph must error")
	}
	if err := e.Reconfigure(Reconfig{Graph: g, Epoch: 1, Speeds: []float64{1, 1}}); err == nil {
		t.Fatal("short speeds must error")
	}
	// A valid leave, then attempting to resurrect the id.
	d := topology.NewDynamic(g)
	d.Leave(2)
	rc := commitReconfig(d)
	if err := e.Reconfigure(rc); err != nil {
		t.Fatal(err)
	}
	if e.State().Epoch() != 1 || e.State().NodeAlive(2) {
		t.Fatalf("epoch=%d alive(2)=%v after leave", e.State().Epoch(), e.State().NodeAlive(2))
	}
	resurrect := Reconfig{Graph: rc.Graph, Links: rc.Links, Epoch: 2} // no Dead list
	if err := e.Reconfigure(resurrect); err == nil {
		t.Fatal("resurrecting a dead id must error")
	}
}

func TestReconfigureDrainsDeadNodes(t *testing.T) {
	g := topology.NewRing(6)
	e, err := New(Config{Graph: g, Policy: nopPolicy{}, Seed: 1,
		Initial: [][]float64{{1, 2}, {}, {3, 4, 5}, {}, {}, {}}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run(2)
	total := e.State().TotalLoad()

	d := topology.NewDynamic(g)
	d.Leave(2)
	if err := e.Reconfigure(commitReconfig(d)); err != nil {
		t.Fatal(err)
	}
	s := e.State()
	if got := s.Queue(2).Len(); got != 0 {
		t.Fatalf("dead node still holds %d tasks", got)
	}
	// Ring neighbours of 2 are {1, 3}: queue order [3,4,5] round-robins to
	// 1, 3, 1.
	if l1, l3 := s.Queue(1).Len(), s.Queue(3).Len(); l1 != 2 || l3 != 1 {
		t.Fatalf("drain distribution: node1=%d node3=%d, want 2/1", l1, l3)
	}
	if got := s.TotalLoad(); math.Abs(got-total) > 1e-9 {
		t.Fatalf("load not conserved across drain: %v -> %v", total, got)
	}
	c := s.Counters()
	if c.DrainedTasks != 3 || c.Reconfigs != 1 {
		t.Fatalf("counters: drained=%d reconfigs=%d", c.DrainedTasks, c.Reconfigs)
	}
	// The engine keeps running and the drained tasks are serviceable.
	e.Run(5)
}

func TestReconfigureRecallsTransfers(t *testing.T) {
	g := topology.NewRing(6)
	links := linkmodel.New(g, linkmodel.WithUniformLength(5)) // latency > 1: transfers stay in flight
	e, err := New(Config{Graph: g, Links: links, Policy: greedyPolicy{}, Seed: 1,
		Initial: [][]float64{{1, 1, 1, 1}, {}, {}, {}, {}, {}}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 10 && e.State().InFlight() == 0; i++ {
		e.Step()
	}
	s := e.State()
	if s.InFlight() == 0 {
		t.Fatal("no transfer ever started")
	}
	total := s.TotalLoad()
	inflight := s.InFlight()

	// Remove every link: all transfers must be recalled, none stranded.
	d := topology.NewDynamic(g)
	for _, ed := range g.Edges() {
		d.RemoveLink(ed.U, ed.V)
	}
	rc := commitReconfig(d)
	if err := e.Reconfigure(rc); err != nil {
		t.Fatal(err)
	}
	if got := s.InFlight(); got != 0 {
		t.Fatalf("%d transfers stranded on removed links", got)
	}
	if got := s.Counters().RecalledTransfers; got != int64(inflight) {
		t.Fatalf("recalled %d of %d transfers", got, inflight)
	}
	if got := s.TotalLoad(); math.Abs(got-total) > 1e-9 {
		t.Fatalf("load not conserved across recall: %v -> %v", total, got)
	}
	if got := s.InFlightLoad(); got != 0 {
		t.Fatalf("in-flight load %v after recalling everything", got)
	}
	e.Run(3) // no edges left; the engine must still tick
}

func TestReconfigureGrowsIDSpace(t *testing.T) {
	g := topology.NewRing(4)
	e, err := New(Config{Graph: g, Policy: nopPolicy{}, Seed: 1,
		Speeds: []float64{2, 2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	d := topology.NewDynamic(g)
	v := d.Join(topology.Point2{X: 9, Y: 9})
	d.AddLink(v, 0)
	if err := e.Reconfigure(commitReconfig(d)); err != nil {
		t.Fatal(err)
	}
	s := e.State()
	if s.Graph().N() != 5 || len(s.Loads()) != 5 {
		t.Fatalf("id space not grown: N=%d", s.Graph().N())
	}
	if got := s.Speed(v); got != 1 {
		t.Fatalf("joined node speed %v, want the default 1", got)
	}
	if got := s.Speed(0); got != 2 {
		t.Fatalf("existing node speed %v, want 2", got)
	}
}

// TestReconfigureBitIdenticalAcrossWorkers runs the same churn schedule on
// Workers∈{1,3,8} engines (and a full-sweep twin pair) and requires byte-equal
// snapshots throughout — the determinism contract extended to reconfiguration.
func TestReconfigureBitIdenticalAcrossWorkers(t *testing.T) {
	g0 := topology.NewTorus(8, 8)
	initial := make([][]float64, g0.N())
	for v := range initial {
		if v%3 == 0 {
			initial[v] = []float64{1, 2, 0.5}
		}
	}
	mk := func(workers int, fullSweep bool) *Engine {
		e, err := New(Config{Graph: g0, Policy: localGreedy{}, Seed: 42,
			Initial: initial, ServiceRate: 0.05, Workers: workers,
			SerialCutover: -1, FullSweep: fullSweep})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	engines := []*Engine{mk(1, false), mk(3, false), mk(8, false)}
	sweeps := []*Engine{mk(1, true), mk(8, true)}
	all := append(append([]*Engine{}, engines...), sweeps...)
	defer func() {
		for _, e := range all {
			e.Close()
		}
	}()

	// Scripted schedule: leave two nodes + fail a link at tick 5, join a
	// node and repair at tick 12, remove a link at tick 20.
	d := topology.NewDynamic(g0)
	type event struct {
		tick int64
		rc   Reconfig
	}
	var schedule []event
	d.Leave(10)
	d.Leave(37)
	d.FailLink(0, 1)
	schedule = append(schedule, event{5, commitReconfig(d)})
	nv := d.Join(topology.Point2{X: 1, Y: 1})
	d.AddLink(nv, 0)
	d.AddLink(nv, 8)
	d.RepairLink(0, 1)
	schedule = append(schedule, event{12, commitReconfig(d)})
	d.RemoveLink(2, 3)
	schedule = append(schedule, event{20, commitReconfig(d)})

	snap := func(e *Engine) []byte {
		b, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for tick := int64(1); tick <= 30; tick++ {
		for _, ev := range schedule {
			if ev.tick == tick {
				for _, e := range all {
					if err := e.Reconfigure(ev.rc); err != nil {
						t.Fatalf("tick %d: %v", tick, err)
					}
				}
			}
		}
		for _, e := range all {
			e.Step()
		}
		ref := snap(engines[0])
		for i, e := range engines[1:] {
			if got := snap(e); !bytes.Equal(ref, got) {
				t.Fatalf("tick %d: workers twin %d diverged", tick, i+1)
			}
		}
		refSweep := snap(sweeps[0])
		if got := snap(sweeps[1]); !bytes.Equal(refSweep, got) {
			t.Fatalf("tick %d: full-sweep twins diverged", tick)
		}
		// Active-set soundness across rebuilds: same semantic state modulo
		// the active-set flag — compare counters and loads instead of bytes.
		if engines[0].State().Counters() != sweeps[0].State().Counters() {
			t.Fatalf("tick %d: incremental vs full-sweep counters diverged", tick)
		}
	}
	if engines[0].State().Epoch() != 3 {
		t.Fatalf("epoch %d after 3 events", engines[0].State().Epoch())
	}
}

// TestReconfigureSnapshotAcrossEpoch snapshots after an epoch change and
// requires the restored engine to continue bit-identically through a further
// reconfiguration.
func TestReconfigureSnapshotAcrossEpoch(t *testing.T) {
	g0 := topology.NewTorus(6, 6)
	initial := make([][]float64, g0.N())
	initial[0] = []float64{3, 1, 2}
	initial[17] = []float64{1, 1}
	cfg := Config{Graph: g0, Policy: localGreedy{}, Seed: 7,
		Initial: initial, ServiceRate: 0.02, Workers: 8, SerialCutover: -1}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	d := topology.NewDynamic(g0)
	e.Run(4)
	d.Leave(5)
	rc1 := commitReconfig(d)
	if err := e.Reconfigure(rc1); err != nil {
		t.Fatal(err)
	}
	e.Run(4)

	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Restoring against the ORIGINAL graph must fail the fingerprint check.
	if _, err := Restore(snap, cfg); err == nil {
		t.Fatal("restore against the pre-churn graph must fail")
	}
	rcfg := cfg
	rcfg.Graph = rc1.Graph
	rcfg.Links = rc1.Links
	rcfg.Workers = 1
	twin, err := Restore(snap, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	if twin.State().Epoch() != 1 || twin.State().NodeAlive(5) {
		t.Fatalf("restored epoch=%d alive(5)=%v", twin.State().Epoch(), twin.State().NodeAlive(5))
	}

	// Both sides now cross another epoch boundary and must stay identical.
	d.FailLink(0, 6)
	rc2 := commitReconfig(d)
	for _, eng := range []*Engine{e, twin} {
		eng.Run(2)
		if err := eng.Reconfigure(rc2); err != nil {
			t.Fatal(err)
		}
		eng.Run(6)
	}
	a, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := twin.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("restored engine diverged across the second epoch boundary")
	}
}

// TestReconfigureRemapsSurvivingTransferEdges: a transfer whose link
// survives a reconfiguration keeps flying under the new graph's canonical
// edge id. Two latency-3 transfers are in flight on a 6-ring when a new link
// {0,2} sorts in ahead of their edges and shifts both ids; afterwards every
// record names its link's new id, exactly those links are busy, and each
// link frees when its transfer lands.
func TestReconfigureRemapsSurvivingTransferEdges(t *testing.T) {
	const L = 3
	g := topology.NewRing(6)
	moves := policyFunc(func(v int, view *State, _ *rng.RNG) []Move {
		if view.Tick() == 0 && (v == 2 || v == 4) {
			return []Move{{TaskID: taskIDs(view, v)[0], From: v, To: v + 1, NewFlag: NaNFlag()}}
		}
		return nil
	})
	e, err := New(Config{Graph: g, Links: linkmodel.New(g, linkmodel.WithUniformLength(L)),
		Policy: moves, Seed: 1, Initial: [][]float64{{}, {}, {1}, {}, {1}, {}}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Step()
	s := e.state
	if s.InFlight() != 2 {
		t.Fatalf("%d transfers in flight after the first tick, want 2", s.InFlight())
	}

	d := topology.NewDynamic(g)
	d.AddLink(0, 2)
	ng, epoch := d.Commit()
	rc := Reconfig{Graph: ng, Links: linkmodel.New(ng, linkmodel.WithUniformLength(L)), Epoch: epoch}
	for _, p := range [][2]int{{2, 3}, {4, 5}} {
		oldID, _ := g.EdgeID(p[0], p[1])
		if newID, _ := ng.EdgeID(p[0], p[1]); newID == oldID {
			t.Fatalf("link %v keeps id %d; the new link must shift it", p, oldID)
		}
	}
	if err := e.Reconfigure(rc); err != nil {
		t.Fatal(err)
	}

	held := make([]bool, ng.NumEdges())
	for k := range s.shards {
		for _, r := range s.shards[k].recs {
			id, ok := rc.Graph.EdgeID(int(r.from), int(r.to))
			if !ok || int(r.edge) != id {
				t.Fatalf("transfer %d -> %d names edge %d, want the new graph's %d", r.from, r.to, r.edge, id)
			}
			held[id] = true
		}
	}
	if s.InFlight() != 2 || !slices.Equal(s.linkBusy, held) {
		t.Fatalf("%d transfers in flight, busy links %v; want 2 holding %v", s.InFlight(), s.linkBusy, held)
	}
	e.Run(L - 1)
	if s.InFlight() != 0 || s.Queue(3).Len() != 1 || s.Queue(5).Len() != 1 {
		t.Fatalf("%d transfers still in flight after %d ticks", s.InFlight(), L)
	}
	if slices.Contains(s.linkBusy, true) {
		t.Fatalf("busy links %v after both transfers landed", s.linkBusy)
	}
}
