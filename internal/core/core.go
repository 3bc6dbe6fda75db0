// Package core implements the paper's primary contribution: the Particle &
// Plane Load Balancer (PPLB) of Section 5.
//
// Every decision is the load-balancing translation of a physics rule:
//
//   - Stationary rule (start of a slide). A task l on node i may begin
//     moving towards neighbour j only if the transfer-adjusted gradient
//     clears static friction:
//
//     (h(v_i) − h(v_j) − 2·l) / e_ij  >  µs(l, v_i)
//
//     where µs is the task's affinity to its node — its dependency weight to
//     co-located tasks (T matrix) plus its resource affinity (R matrix) —
//     and e_ij is the composite link cost of §4.2 (length/bandwidth/fault).
//     The −2l term is the paper's correction for the dynamic surface: the
//     move lowers the source and raises the destination by l each.
//
//   - Energy flag. When a slide starts, the task's potential height h* is
//     initialised to the current height h(v_i) ("the flag is initialized at
//     the start of the game with the height of the initial position"), and
//     every hop subtracts the friction loss E_h/(m·g) = µk·e_ij.
//
//   - In-motion rule (inertia). A task that arrived still moving may
//     continue to any neighbour whose height its remaining energy reaches:
//
//     a_j = h*_prev − µk·e_ij − h(v_j)  >  0
//
//     letting a fast task climb over a moderately loaded node into a valley
//     beyond — the multi-hop behaviour that distinguishes PPLB from purely
//     local gradient methods. Like the physical particle, a sliding task
//     does not immediately backtrack to the node it just left; if no other
//     feasible link exists it settles (the bounce dissipates its energy).
//
//   - Stochastic arbiter. Among feasible slopes the choice is made by the
//     annealing arbiter of §5.2 (steepest-biased early exploration, rigid
//     argmax as t → ∞).
//
// The kinetic friction constant couples to static friction (µk ∝ µs, "which
// is interestingly also true in the physical world") plus a floor Ck0
// representing the irreducible communication cost of any hop.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"pplb/internal/arbiter"
	"pplb/internal/linkmodel"
	"pplb/internal/rng"
	"pplb/internal/sim"
	"pplb/internal/taskmodel"
)

// Config holds the physical constants of the PPLB model. The zero value is
// usable (all frictions zero, defaults applied by New); start from
// DefaultConfig for the experiment settings.
type Config struct {
	// CsT and CsR weight the two components of static friction µs:
	// dependency to co-located tasks (Σ T) and resource affinity (R).
	CsT float64
	CsR float64

	// CkProp couples kinetic friction to static friction (µk ∝ µs), and Ck0
	// is the friction floor every hop pays regardless of dependencies.
	CkProp float64
	Ck0    float64

	// Arbiter chooses among feasible slopes. Nil means the annealing
	// stochastic arbiter with default parameters.
	Arbiter arbiter.Chooser

	// MaxMovesPerNode caps how many tasks one node may launch per tick
	// (0 = one per free link, the paper's single-load-per-link limit).
	MaxMovesPerNode int

	// DisableInertia turns off the in-motion continuation rule: tasks
	// settle after every hop (ablation E12: "−inertia").
	DisableInertia bool

	// FaultOblivious makes the balancer read link costs without the
	// reliability factor (ablation E12: "−fault-aware e_ij").
	FaultOblivious bool

	// DisableTransferAdjustment drops the −2l term from the stationary
	// criterion (ablation E12: "−2l guard"), i.e. the balancer ignores the
	// surface being dynamic and may thrash loads back and forth.
	DisableTransferAdjustment bool

	// EnergyDamping in (0,1) makes landings inelastic: on every hop the
	// task keeps only this fraction of its kinetic energy (flag height
	// above the destination). The paper's model is lossless (damping 1 —
	// also the meaning of 0, the zero value): a task released from a tall
	// hotspot can wander very far before friction drains it; damping trades
	// a little final balance for much less transit traffic. Extension knob,
	// quantified in the E12 ablations.
	EnergyDamping float64
}

// DefaultConfig returns the configuration used by the experiments unless a
// sweep overrides specific constants.
func DefaultConfig() Config {
	return Config{
		CsT:    1,
		CsR:    1,
		CkProp: 0.1,
		Ck0:    0.05,
	}
}

// Balancer is the PPLB policy; it implements sim.Policy.
type Balancer struct {
	cfg     Config
	chooser arbiter.Chooser

	// scratch holds per-planning-call buffers. PlanNodeInto may run
	// concurrently (one goroutine per node on the engine's worker pool), so
	// the buffers are pooled rather than stored on the balancer directly.
	scratch sync.Pool
}

// planScratch carries the reusable buffers of one PlanNodeInto call.
// Candidate neighbours are tracked by their position k in Neighbors(v), so
// the projected-height and closed-link tables are small dense slices instead
// of maps keyed by node id.
type planScratch struct {
	keys   []loadKey // (load, id, handle) sort keys, descending-load order
	cand   []int     // feasible neighbour positions
	scores []float64 // score per candidate (parallel to cand)
	hn     []float64 // projected neighbour heights by position
	closed []bool    // link busy at tick start or claimed this tick, by position
	cost   []float64 // e_ij per position (fault-aware as configured)
	spd    []float64 // service speed per neighbour position
}

// Validate reports whether the configuration describes a physically sane
// balancer: every constant finite, frictions and damping non-negative, and
// EnergyDamping at most 1 (a landing cannot add energy). The scenario fuzzer
// perturbs configurations and uses this to reject draws that would make a
// run meaningless rather than buggy; New itself stays permissive for
// backward compatibility (the zero value is usable).
func (c Config) Validate() error {
	check := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: %s is not finite (%v)", name, v)
		}
		if v < 0 {
			return fmt.Errorf("core: %s is negative (%v)", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"CsT", c.CsT}, {"CsR", c.CsR}, {"CkProp", c.CkProp},
		{"Ck0", c.Ck0}, {"EnergyDamping", c.EnergyDamping},
	} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	if c.EnergyDamping > 1 {
		return fmt.Errorf("core: EnergyDamping %v exceeds 1", c.EnergyDamping)
	}
	if c.MaxMovesPerNode < 0 {
		return fmt.Errorf("core: negative MaxMovesPerNode %d", c.MaxMovesPerNode)
	}
	return nil
}

// New returns a PPLB balancer with the given configuration.
func New(cfg Config) *Balancer {
	ch := cfg.Arbiter
	if ch == nil {
		ch = arbiter.DefaultStochastic()
	}
	b := &Balancer{cfg: cfg, chooser: ch}
	b.scratch.New = func() any { return new(planScratch) }
	return b
}

// Name implements sim.Policy.
func (b *Balancer) Name() string { return "pplb" }

// PlanLocality implements sim.LocalityDeclarer: whether PlanNodeInto(v)
// proposes nothing is decided entirely by v's neighbourhood. The
// friction-bound exit runs first, before any scratch or chooser use, and
// reads only v's tasks (loads, Moving), the heights and speeds of v and its
// neighbours, the busy flags of v's incident links and the link costs. Both
// planning passes gate every candidate on v's own tasks (load, flag, Moving,
// Prev, dependency weight to co-located tasks), the heights of v's
// neighbours, the busy flags of v's incident links, and static configuration
// (link costs, speeds, resources); the chooser — the only consumer of
// randomness and of the tick number — is consulted strictly after a
// non-empty candidate set exists, so an empty plan never depends on it.
func (b *Balancer) PlanLocality() sim.Locality { return sim.LocalityNeighborhood }

// Config returns the balancer's configuration.
func (b *Balancer) Config() Config { return b.cfg }

// edgeCost returns e_ij of the link with canonical edge id eid under the
// configured fault awareness.
func (b *Balancer) edgeCost(links *linkmodel.Params, eid int) float64 {
	if b.cfg.FaultOblivious {
		return links.CostObliviousByEdge(eid)
	}
	return links.CostByEdge(eid)
}

// stationaryScore is the left side of the stationary rule, tan β =
// (h(v) − h(j) − adj) / e_ij, for a task of the given load leaving a node of
// projected height hv (srcDrop = load/s_v) towards a neighbour of projected
// height hn and speed spdN across a link of cost e_ij. The −2l correction,
// generalised to heterogeneous speeds, lowers the source surface by L/s_v and
// raises the destination by L/s_j (both equal L on homogeneous systems, where
// division by 1.0 is exact). Pass 2 and the friction-bound exit both call it,
// so the bound is evaluated with exactly the expression it bounds.
func (b *Balancer) stationaryScore(hv, hn, srcDrop, load, spdN, cost float64) float64 {
	adj := srcDrop + load/spdN
	if b.cfg.DisableTransferAdjustment {
		adj = 0
	}
	return (hv - hn - adj) / cost
}

// MuS returns the static friction of task id on node v (§4.2):
//
//	µs(l_t, v) = CsT · Σ_{u ≠ t co-located} T[t][u] + CsR · R[t][v]
//
// Both friction components are functions of the id alone. With no
// dependency graph or affinity table attached (or both couplings off) it is
// exactly 0.0.
func (b *Balancer) MuS(view *sim.State, id taskmodel.ID, v int) float64 {
	mu := 0.0
	if tg := view.TaskGraph(); tg != nil && b.cfg.CsT != 0 {
		mu += b.cfg.CsT * view.DepWeightToNode(id, v)
	}
	if res := view.Resources(); res != nil && b.cfg.CsR != 0 {
		mu += b.cfg.CsR * res.Affinity(id, v)
	}
	return mu
}

// MuK returns the kinetic friction of task id leaving node v:
//
//	µk = Ck0 + CkProp · µs(id, v)
func (b *Balancer) MuK(view *sim.State, id taskmodel.ID, v int) float64 {
	return b.cfg.Ck0 + b.cfg.CkProp*b.MuS(view, id, v)
}

// dampFlag applies the inelastic-landing extension: the flag keeps only
// EnergyDamping of its kinetic component (height above the destination).
func (b *Balancer) dampFlag(flag, destHeight float64) float64 {
	d := b.cfg.EnergyDamping
	if d <= 0 || d >= 1 {
		return flag
	}
	if k := flag - destHeight; k > 0 {
		return destHeight + d*k
	}
	return flag
}

// PlanNodeInto implements sim.Policy: one tick of PPLB decisions for node v,
// appended into a caller buffer, so a steady-state planning call allocates
// nothing. A node the friction bound proves idle returns in O(degree +
// tasks) without touching the scratch pool, the sort or the chooser.
func (b *Balancer) PlanNodeInto(v int, view *sim.State, r *rng.RNG, moves []sim.Move) []sim.Move {
	if b.plansNothing(v, view) {
		return moves
	}
	return b.planNode(v, view, r, moves)
}

// plansNothing is the friction-bound exit: it reports whether node v
// provably proposes no move, so planNode would return an empty plan without
// drawing from r. It answers true only when
//
//   - µs ≡ 0: no T matrix is coupled (TaskGraph nil or CsT 0) and no R
//     matrix is (Resources nil or CsR 0). T and R weights may be negative,
//     so a coupled matrix turns the bound off rather than being bounded;
//   - pass 1 has nothing to do: no resident task is Moving, or inertia is
//     disabled; and
//   - on every free incident link, the stationary score of v's lightest
//     task is not > 0.
//
// Then pass 2 starts from the unprojected heights, and a heavier task can
// only score lower on the same link: adj grows with the load (IEEE division
// by a positive speed and IEEE addition are monotone), and dividing by a
// positive cost keeps the order. A link whose cost is not positive (a
// negative WithCostScale) would reverse it, so such a link turns the bound
// off. No candidate ever exists, so hv and hn are never updated and the
// chooser is never reached.
func (b *Balancer) plansNothing(v int, view *sim.State) bool {
	if tg := view.TaskGraph(); tg != nil && b.cfg.CsT != 0 {
		return false
	}
	if res := view.Resources(); res != nil && b.cfg.CsR != 0 {
		return false
	}
	first := view.FirstTask(v)
	if first == taskmodel.NoHandle {
		return true
	}
	st := view.TaskStore()
	lmin := st.Load(first)
	for h := first; h != taskmodel.NoHandle; h = st.Next(h) {
		if st.Moving(h) && !b.cfg.DisableInertia {
			return false
		}
		if l := st.Load(h); l < lmin {
			lmin = l
		}
	}
	g := view.Graph()
	eids := g.IncidentEdgeIDs(v)
	links := view.Links()
	hv := view.Height(v)
	srcDrop := lmin / view.Speed(v)
	for k, j := range g.Neighbors(v) {
		if view.LinkBusyEdge(eids[k]) {
			continue
		}
		cost := b.edgeCost(links, eids[k])
		if !(cost > 0) || b.stationaryScore(hv, view.Height(j), srcDrop, lmin, view.Speed(j), cost) > 0 {
			return false
		}
	}
	return true
}

// planNode is the ungated body of PlanNodeInto: both planning passes, run
// whatever the friction bound says. Tests call it directly to check that
// bound against the passes it skips.
//
// All per-call working state lives in a pooled planScratch; tasks are read
// through the arena's handle lanes, and candidate neighbours are addressed
// by their position in Neighbors(v) so the inner loops index dense slices
// (projected heights, claimed links, link costs by canonical edge id)
// instead of hashing node ids.
func (b *Balancer) planNode(v int, view *sim.State, r *rng.RNG, moves []sim.Move) []sim.Move {
	first := view.FirstTask(v)
	if first == taskmodel.NoHandle {
		return moves
	}
	neighbors := view.Graph().Neighbors(v)
	if len(neighbors) == 0 {
		return moves
	}
	if len(moves) != 0 {
		moves = moves[:0]
	}
	eids := view.Graph().IncidentEdgeIDs(v)
	links := view.Links()
	st := view.TaskStore()

	sc := b.scratch.Get().(*planScratch)
	defer b.scratch.Put(sc)
	nn := len(neighbors)
	sc.hn = grow(sc.hn, nn)
	sc.cost = grow(sc.cost, nn)
	sc.spd = grow(sc.spd, nn)
	sc.closed = growBool(sc.closed, nn)
	hn := sc.hn[:nn]
	cost := sc.cost[:nn]
	spd := sc.spd[:nn]
	closed := sc.closed[:nn]
	for k, j := range neighbors {
		hn[k] = view.Height(j)
		closed[k] = view.LinkBusyEdge(eids[k])
		spd[k] = view.Speed(j)
		cost[k] = b.edgeCost(links, eids[k])
	}
	spdV := view.Speed(v)

	// Projected height of v after the departures already planned this tick.
	hv := view.Height(v)
	maxMoves := b.cfg.MaxMovesPerNode
	if maxMoves <= 0 {
		maxMoves = nn
	}

	// Pass 1: in-motion tasks (inertia continuation) — they carry momentum
	// and decide first, exactly as the physical particle in flight.
	if !b.cfg.DisableInertia {
		for h := first; h != taskmodel.NoHandle; h = st.Next(h) {
			if len(moves) >= maxMoves {
				break
			}
			if !st.Moving(h) {
				continue
			}
			id := st.ID(h)
			flag := st.Flag(h)
			prev := st.Prev(h)
			muK := b.MuK(view, id, v)
			cand := sc.cand[:0]
			scores := sc.scores[:0]
			for k, j := range neighbors {
				if closed[k] || j == prev {
					continue
				}
				a := flag - muK*cost[k] - hn[k]
				if a > 0 {
					cand = append(cand, k)
					scores = append(scores, a)
				}
			}
			sc.cand, sc.scores = cand, scores
			if len(cand) == 0 {
				continue // settles: engine clears the Moving bit
			}
			pick := b.chooser.Choose(scores, view.Tick(), r)
			k := cand[pick]
			newFlag := b.dampFlag(flag-muK*cost[k], hn[k])
			j := neighbors[k]
			moves = append(moves, sim.Move{
				TaskID: id, From: v, To: j,
				NewFlag: newFlag, Moving: true,
			})
			closed[k] = true
			load := st.Load(h)
			hv -= load / spdV
			hn[k] += load / spd[k]
		}
	}

	// Pass 2: stationary tasks, heaviest first (the highest-pressure
	// particles are released first). The sort runs over precomputed
	// (load, id) keys so comparisons never touch the arena lanes.
	sc.keys = byLoadDescKeys(sc.keys, first, st)
	for i := range sc.keys {
		if len(moves) >= maxMoves {
			break
		}
		h := sc.keys[i].h
		if st.Moving(h) && !b.cfg.DisableInertia {
			continue // handled in pass 1
		}
		id := sc.keys[i].id
		load := sc.keys[i].load
		muS := b.MuS(view, id, v)
		muK := b.cfg.Ck0 + b.cfg.CkProp*muS
		cand := sc.cand[:0]
		scores := sc.scores[:0]
		srcDrop := load / spdV
		for k := range neighbors {
			if closed[k] {
				continue
			}
			tanBeta := b.stationaryScore(hv, hn[k], srcDrop, load, spd[k], cost[k])
			if tanBeta > muS {
				cand = append(cand, k)
				scores = append(scores, tanBeta-muS)
			}
		}
		sc.cand, sc.scores = cand, scores
		if len(cand) == 0 {
			continue
		}
		pick := b.chooser.Choose(scores, view.Tick(), r)
		k := cand[pick]
		// A new game starts: h* = h(v_i), minus the first hop's friction.
		newFlag := b.dampFlag(hv-muK*cost[k], hn[k])
		j := neighbors[k]
		moves = append(moves, sim.Move{
			TaskID: id, From: v, To: j,
			NewFlag: newFlag, Moving: !b.cfg.DisableInertia,
		})
		closed[k] = true
		hv -= load / spdV
		hn[k] += load / spd[k]
	}
	return moves
}

// grow returns s with capacity for at least n float64s (contents undefined).
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growBool is grow for bool slices.
func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// loadKey is a task's sort key for the heaviest-first pass, read out of the
// arena once so the sort comparator works on a dense local slice.
type loadKey struct {
	load float64
	id   taskmodel.ID
	h    taskmodel.Handle
}

// byLoadDescKeys fills dst with the (load, id, handle) keys of the queued
// tasks from first on, ordered by descending load, reusing dst's capacity;
// determinism requires the id tiebreak (never the handle values, which are
// storage addresses).
func byLoadDescKeys(dst []loadKey, first taskmodel.Handle, st *taskmodel.Store) []loadKey {
	dst = dst[:0]
	for h := first; h != taskmodel.NoHandle; h = st.Next(h) {
		dst = append(dst, loadKey{load: st.Load(h), id: st.ID(h), h: h})
	}
	slices.SortFunc(dst, func(a, b loadKey) int {
		if a.load != b.load {
			return cmp.Compare(b.load, a.load)
		}
		return cmp.Compare(a.id, b.id)
	})
	return dst
}

// ensure interface compliance
var (
	_ sim.Policy           = (*Balancer)(nil)
	_ sim.LocalityDeclarer = (*Balancer)(nil)
)
