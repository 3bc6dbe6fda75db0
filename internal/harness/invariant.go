package harness

import (
	"fmt"
	"math"

	"pplb/internal/sim"
	"pplb/internal/taskmodel"
)

// Violation records one invariant failure. The detail string is formatted
// from deterministic state only, so a replayed violation compares equal to
// the original field-for-field — that equality is the harness's definition
// of "reproduces bit-identically".
type Violation struct {
	Invariant string `json:"invariant"`
	Tick      int64  `json:"tick"`
	Detail    string `json:"detail"`
}

func (v *Violation) String() string {
	return fmt.Sprintf("%s at tick %d: %s", v.Invariant, v.Tick, v.Detail)
}

// Invariant is one property checked against the engine state every few
// ticks. Check returns "" when the property holds, else a human-readable
// deterministic detail. Invariants may keep state across checks (e.g.
// counter monotonicity); the runner builds a fresh set per run.
type Invariant interface {
	Name() string
	Check(s *sim.State) string
}

// StandardInvariants returns fresh instances of the full default suite.
func StandardInvariants() []Invariant {
	return []Invariant{
		&loadConservation{},
		&queueSanity{},
		&transferAccounting{},
		&counterSanity{},
		&storeConsistency{},
		&topologySoundness{},
	}
}

// conservationTol is the ledger tolerance: a small absolute floor plus a
// relative term for runs that inject a lot of load (float error grows with
// magnitude, a real leak grows with task sizes — orders of magnitude apart).
func conservationTol(injected float64) float64 {
	return 1e-6 + 1e-9*math.Abs(injected)
}

// loadConservation checks the ledger of §4/§5: everything ever injected is
// resident, in flight, or consumed — under faults, arrivals and service.
type loadConservation struct{}

func (loadConservation) Name() string { return "load-conservation" }

func (loadConservation) Check(s *sim.State) string {
	c := s.Counters()
	resident := 0.0
	for v := 0; v < s.Graph().N(); v++ {
		resident += s.Queue(v).Total()
	}
	ledger := resident + s.InFlightLoad() + c.Consumed
	if d := ledger - c.Injected; math.Abs(d) > conservationTol(c.Injected) {
		return fmt.Sprintf("resident+inflight+consumed - injected = %g (resident=%g inflight=%g consumed=%g injected=%g)",
			d, resident, s.InFlightLoad(), c.Consumed, c.Injected)
	}
	return ""
}

// queueSanity checks per-node queue state: no negative totals, no
// non-positive task loads, and the cached total agreeing with a direct scan
// of the resident tasks (the O(1) hot-path read must not drift from truth).
type queueSanity struct{}

func (queueSanity) Name() string { return "queue-sanity" }

func (queueSanity) Check(s *sim.State) string {
	st := s.TaskStore()
	for v := 0; v < s.Graph().N(); v++ {
		q := s.Queue(v)
		total := q.Total()
		if total < -1e-9 || math.IsNaN(total) {
			return fmt.Sprintf("node %d cached total %g", v, total)
		}
		scan := 0.0
		for _, h := range q.Handles() {
			load := st.Load(h)
			if !(load > 0) {
				return fmt.Sprintf("node %d task %d has load %g", v, st.ID(h), load)
			}
			scan += load
		}
		if d := math.Abs(scan - total); d > conservationTol(scan) {
			return fmt.Sprintf("node %d cached total %g but task scan %g", v, total, scan)
		}
	}
	return ""
}

// transferAccounting checks the SoA transfer store against its incremental
// aggregates and the link occupancy table: each in-flight transfer occupies
// exactly one link, and the per-destination in-flight loads sum to the
// global in-flight load.
type transferAccounting struct{}

func (transferAccounting) Name() string { return "transfer-accounting" }

func (transferAccounting) Check(s *sim.State) string {
	view := s.View()
	busy := 0
	for id := 0; id < s.Graph().NumEdges(); id++ {
		if view.LinkBusyEdge(id) {
			busy++
		}
	}
	if inflight := s.InFlight(); busy != inflight {
		return fmt.Sprintf("%d busy links but %d transfers in flight", busy, inflight)
	}
	sum := 0.0
	for v := 0; v < s.Graph().N(); v++ {
		to := view.InFlightTo(v)
		if to < -1e-6 || math.IsNaN(to) {
			return fmt.Sprintf("InFlightTo(%d) = %g", v, to)
		}
		sum += to
	}
	if d := math.Abs(sum - s.InFlightLoad()); d > conservationTol(sum) {
		return fmt.Sprintf("sum InFlightTo = %g but InFlightLoad = %g", sum, s.InFlightLoad())
	}
	if s.InFlight() == 0 && s.InFlightLoad() != 0 {
		return fmt.Sprintf("empty network but InFlightLoad = %g", s.InFlightLoad())
	}
	return ""
}

// storeConsistency audits the arena against a brute-force scan: every
// queue's handle list, slot lanes and cached total agree with the store
// (Queue.CheckConsistency), every in-flight transfer holds a live handle,
// the live-slot count matches residents + in-flight, and the id→handle
// index round-trips for every id ever issued. This is the recycle-churn
// safety net: a free-list bug (double release, stale byID entry, slot lane
// desync after a tail-shift) surfaces here even when load totals happen to
// balance out.
type storeConsistency struct{}

func (storeConsistency) Name() string { return "store-consistency" }

func (storeConsistency) Check(s *sim.State) string {
	st := s.TaskStore()
	resident := 0
	for v := 0; v < s.Graph().N(); v++ {
		q := s.Queue(v)
		if err := q.CheckConsistency(); err != nil {
			return fmt.Sprintf("node %d: %v", v, err)
		}
		resident += q.Len()
	}
	inflight := 0
	dead := ""
	s.VisitTransfers(func(h taskmodel.Handle, from, to int) {
		inflight++
		if dead == "" && !st.Alive(h) {
			dead = fmt.Sprintf("transfer %d->%d holds dead handle %d", from, to, h)
		}
	})
	if dead != "" {
		return dead
	}
	if live := st.Live(); live != resident+inflight {
		return fmt.Sprintf("%d live slots but %d resident + %d in flight", live, resident, inflight)
	}
	for id := taskmodel.ID(0); id < st.IDBound(); id++ {
		h := st.HandleOf(id)
		if h == taskmodel.NoHandle {
			continue
		}
		if !st.Alive(h) || st.ID(h) != id {
			return fmt.Sprintf("id %d maps to handle %d (alive=%t id=%d)", id, h, st.Alive(h), st.ID(h))
		}
	}
	return ""
}

// topologySoundness checks the dynamic-topology contract after (and
// between) reconfigurations: dead nodes hold no tasks and receive nothing,
// every in-flight transfer runs between alive endpoints over a link that
// exists in the current graph, and the epoch never moves backwards. On a
// never-reconfigured scenario this reduces to "all transfers ride real
// links" — cheap and always on.
type topologySoundness struct {
	prevEpoch int64
}

func (*topologySoundness) Name() string { return "topology-soundness" }

func (ts *topologySoundness) Check(s *sim.State) string {
	if e := s.Epoch(); e < ts.prevEpoch {
		return fmt.Sprintf("epoch regressed %d -> %d", ts.prevEpoch, e)
	} else {
		ts.prevEpoch = e
	}
	g := s.Graph()
	for _, v := range s.DeadNodes() {
		if g.Degree(v) != 0 {
			return fmt.Sprintf("dead node %d has degree %d", v, g.Degree(v))
		}
		if l := s.Queue(v).Len(); l != 0 {
			return fmt.Sprintf("dead node %d holds %d tasks", v, l)
		}
	}
	bad := ""
	s.VisitTransfers(func(h taskmodel.Handle, from, to int) {
		if bad != "" {
			return
		}
		switch {
		case !s.NodeAlive(from) || !s.NodeAlive(to):
			bad = fmt.Sprintf("transfer %d->%d touches a dead node", from, to)
		default:
			if _, ok := g.EdgeID(from, to); !ok {
				bad = fmt.Sprintf("transfer %d->%d rides a link absent from the graph", from, to)
			}
		}
	})
	return bad
}

// counterSanity checks the cumulative counters: finite, non-negative,
// monotone non-decreasing across checks, and consumption never exceeding
// injection.
type counterSanity struct {
	prev    sim.Counters
	started bool
}

func (*counterSanity) Name() string { return "counter-sanity" }

func (cs *counterSanity) Check(s *sim.State) string {
	c := s.Counters()
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Migrations", float64(c.Migrations)}, {"MigratedLoad", c.MigratedLoad},
		{"Traffic", c.Traffic}, {"BouncedTraffic", c.BouncedTraffic},
		{"Faults", float64(c.Faults)}, {"Rejected", float64(c.Rejected)},
		{"Injected", c.Injected}, {"Consumed", c.Consumed},
		{"TasksCompleted", float64(c.TasksCompleted)},
		{"Reconfigs", float64(c.Reconfigs)}, {"DrainedTasks", float64(c.DrainedTasks)},
		{"RecalledTransfers", float64(c.RecalledTransfers)},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Sprintf("counter %s = %g", f.name, f.v)
		}
	}
	if c.Consumed > c.Injected+conservationTol(c.Injected) {
		return fmt.Sprintf("Consumed %g exceeds Injected %g", c.Consumed, c.Injected)
	}
	if cs.started {
		p := cs.prev
		switch {
		case c.Migrations < p.Migrations:
			return fmt.Sprintf("Migrations regressed %d -> %d", p.Migrations, c.Migrations)
		case c.MigratedLoad < p.MigratedLoad:
			return fmt.Sprintf("MigratedLoad regressed %g -> %g", p.MigratedLoad, c.MigratedLoad)
		case c.Traffic < p.Traffic:
			return fmt.Sprintf("Traffic regressed %g -> %g", p.Traffic, c.Traffic)
		case c.BouncedTraffic < p.BouncedTraffic:
			return fmt.Sprintf("BouncedTraffic regressed %g -> %g", p.BouncedTraffic, c.BouncedTraffic)
		case c.Faults < p.Faults:
			return fmt.Sprintf("Faults regressed %d -> %d", p.Faults, c.Faults)
		case c.Rejected < p.Rejected:
			return fmt.Sprintf("Rejected regressed %d -> %d", p.Rejected, c.Rejected)
		case c.Injected < p.Injected:
			return fmt.Sprintf("Injected regressed %g -> %g", p.Injected, c.Injected)
		case c.Consumed < p.Consumed:
			return fmt.Sprintf("Consumed regressed %g -> %g", p.Consumed, c.Consumed)
		case c.TasksCompleted < p.TasksCompleted:
			return fmt.Sprintf("TasksCompleted regressed %d -> %d", p.TasksCompleted, c.TasksCompleted)
		case c.Reconfigs < p.Reconfigs:
			return fmt.Sprintf("Reconfigs regressed %d -> %d", p.Reconfigs, c.Reconfigs)
		case c.DrainedTasks < p.DrainedTasks:
			return fmt.Sprintf("DrainedTasks regressed %d -> %d", p.DrainedTasks, c.DrainedTasks)
		case c.RecalledTransfers < p.RecalledTransfers:
			return fmt.Sprintf("RecalledTransfers regressed %d -> %d", p.RecalledTransfers, c.RecalledTransfers)
		}
	}
	cs.prev, cs.started = c, true
	return ""
}

// compareStates checks two engines for bit-identity — identical counters and
// bitwise-identical per-node loads — reporting any divergence under the
// given invariant name with a/b labels for attribution.
func compareStates(name, aLabel, bLabel string, a, b *sim.State, tick int64) *Violation {
	if ae, be := a.Epoch(), b.Epoch(); ae != be {
		return &Violation{
			Invariant: name,
			Tick:      tick,
			Detail:    fmt.Sprintf("topology epoch diverges: %s %d vs %s %d", aLabel, ae, bLabel, be),
		}
	}
	if ac, bc := a.Counters(), b.Counters(); ac != bc {
		return &Violation{
			Invariant: name,
			Tick:      tick,
			Detail:    fmt.Sprintf("counters diverge: %s %+v vs %s %+v", aLabel, ac, bLabel, bc),
		}
	}
	al, bl := a.Loads(), b.Loads()
	for v := range al {
		if al[v] != bl[v] {
			return &Violation{
				Invariant: name,
				Tick:      tick,
				Detail:    fmt.Sprintf("load at node %d diverges: %s %g vs %s %g", v, aLabel, al[v], bLabel, bl[v]),
			}
		}
	}
	return nil
}

// compareTwin checks Workers=N ≡ Workers=1 bit-identity: identical counters
// and bitwise-identical per-node loads, tick for tick. This is the
// determinism contract the sharded pipeline is built around.
func compareTwin(primary, twin *sim.State, tick int64) *Violation {
	return compareStates("twin-identity", "workers=N", "workers=1", primary, twin, tick)
}

// compareSweep checks active-set soundness: the incremental engine must stay
// bit-identical to a full-sweep recompute of the same scenario. A missed
// invalidation (a mutation site that forgot to dirty a neighbourhood) shows
// up here as stale planning, attributed separately from worker-count
// divergence.
func compareSweep(primary, sweep *sim.State, tick int64) *Violation {
	return compareStates("active-set-soundness", "active-set", "full-sweep", primary, sweep, tick)
}
