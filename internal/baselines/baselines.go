// Package baselines implements the dynamic load-balancing algorithms the
// paper cites as related work (§2), on the same simulation substrate as the
// PPLB core, so every comparison in the experiment harness is apples to
// apples:
//
//   - None — control: no balancing.
//   - Diffusion — Cybenko '89 / Boillat '90: each node diffuses α·(l_i−l_j)
//     towards every lighter neighbour.
//   - DimensionExchange — Cybenko '89: nodes pair up along one matching
//     ("dimension") per tick and equalise pairwise; on the hypercube the
//     matchings coincide with the cube dimensions.
//   - GradientModel — Lin & Keller '87 (GM): a propagated-pressure surface
//     routes tasks from overloaded nodes towards the nearest underloaded
//     node.
//   - CWN — Shu & Kale '89 (contracting within a neighbourhood): tasks are
//     sent directly to the least-loaded neighbour, with a bounded hop budget.
//   - RandomSender — Eager, Lazowska & Zahorjan '86 sender-initiated load
//     sharing: overloaded nodes probe a random neighbour and transfer if the
//     probe is below threshold.
//
// Faithful to their sources, these policies ignore the task-dependency
// matrix T, the resource matrix R and link fault probabilities — modelling
// exactly the gap the paper's introduction points out. All of them obey the
// engine's one-transfer-per-link-per-tick rule, so no algorithm gets more
// network capacity than another.
package baselines

import (
	"math"

	"pplb/internal/rng"
	"pplb/internal/sim"
	"pplb/internal/taskmodel"
	"pplb/internal/topology"
)

// None is the no-balancing control policy.
type None struct{}

// Name implements sim.Policy.
func (None) Name() string { return "none" }

// PlanNodeInto implements sim.Policy: never proposes a move.
func (None) PlanNodeInto(_ int, _ *sim.View, _ *rng.RNG, moves []sim.Move) []sim.Move { return moves }

// PlanLocality implements sim.LocalityDeclarer: the always-empty plan is
// trivially a pure function of anything.
func (None) PlanLocality() sim.Locality { return sim.LocalityNeighborhood }

// pickTaskUpTo returns the largest resident task with load <= budget, or
// NoHandle. Deterministic: ties broken towards the lowest id.
func pickTaskUpTo(st *taskmodel.Store, tasks []taskmodel.Handle, budget float64) taskmodel.Handle {
	best := taskmodel.NoHandle
	for _, h := range tasks {
		l := st.Load(h)
		if l > budget {
			continue
		}
		if best < 0 || l > st.Load(best) || (l == st.Load(best) && st.ID(h) < st.ID(best)) {
			best = h
		}
	}
	return best
}

// Diffusion is the first-order diffusion scheme: per tick, node i sends
// towards each lighter neighbour j a quantity α·(l_i − l_j), approximated by
// the largest single task that fits (the engine transfers whole tasks, one
// per link per tick).
type Diffusion struct {
	// Alpha is the diffusion parameter. 0 means the Boillat rule
	// α_ij = 1/(max(deg_i, deg_j)+1), which is provably convergent on any
	// connected graph.
	Alpha float64
}

// Name implements sim.Policy.
func (d Diffusion) Name() string { return "diffusion" }

// PlanLocality implements sim.LocalityDeclarer: the plan is computed from
// v's tasks, neighbour heights, incident busy links, degrees and speeds
// only — no randomness, tick number, or internal state.
func (d Diffusion) PlanLocality() sim.Locality { return sim.LocalityNeighborhood }

// PlanNodeInto implements sim.Policy.
func (d Diffusion) PlanNodeInto(v int, view *sim.View, _ *rng.RNG, moves []sim.Move) []sim.Move {
	moves = moves[:0]
	tasks := view.TaskHandles(v)
	if len(tasks) == 0 {
		return moves
	}
	st := view.TaskStore()
	lv := view.Height(v)
	// A node proposes at most one move per link; membership in the tiny
	// moves slice doubles as the per-tick "already sent" set.
	sent := func(id taskmodel.ID) bool {
		for _, m := range moves {
			if m.TaskID == id {
				return true
			}
		}
		return false
	}
	for _, j := range view.Graph().Neighbors(v) {
		if view.LinkBusy(v, j) {
			continue
		}
		lj := view.Height(j)
		if lj >= lv {
			continue
		}
		alpha := d.Alpha
		if alpha <= 0 {
			dv, dj := view.Graph().Degree(v), view.Graph().Degree(j)
			m := dv
			if dj > m {
				m = dj
			}
			alpha = 1 / float64(m+1)
		}
		// Budget is in surface-height units; a task of load L sheds
		// L/speed(v) height from the source.
		budget := alpha * (lv - lj) * view.Speed(v)
		best := taskmodel.NoHandle
		for _, h := range tasks {
			l := st.Load(h)
			if l > budget || sent(st.ID(h)) {
				continue
			}
			if best < 0 || l > st.Load(best) || (l == st.Load(best) && st.ID(h) < st.ID(best)) {
				best = h
			}
		}
		if best < 0 {
			// Quantisation rounding (integral diffusion): when no task fits
			// the budget, the smallest task may still be sent if the budget
			// covers at least half of it — round-to-nearest, the standard
			// remedy against the token-granularity deadlock. Guarded so the
			// pair's gap never inverts.
			smallest := taskmodel.NoHandle
			for _, h := range tasks {
				if sent(st.ID(h)) {
					continue
				}
				l := st.Load(h)
				if smallest < 0 || l < st.Load(smallest) || (l == st.Load(smallest) && st.ID(h) < st.ID(smallest)) {
					smallest = h
				}
			}
			if smallest >= 0 && st.Load(smallest) <= 2*budget && lv-lj > st.Load(smallest) {
				best = smallest
			}
		}
		if best < 0 {
			continue
		}
		moves = append(moves, sim.Move{TaskID: st.ID(best), From: v, To: j, NewFlag: sim.NaNFlag()})
		lv -= st.Load(best) / view.Speed(v)
	}
	return moves
}

// DimensionExchange sweeps one edge matching per tick; on each active edge
// the heavier endpoint sends the largest task that fits half the load gap,
// driving the pair towards equality. On a hypercube the matchings are the
// cube dimensions and one full sweep balances the system (Cybenko).
type DimensionExchange struct {
	colors    [][]topology.Edge
	partnerOf []int // partner of node v in the current color, -1 if none
	graph     *topology.Graph
}

// NewDimensionExchange builds the policy for graph g, precomputing the edge
// coloring.
func NewDimensionExchange(g *topology.Graph) *DimensionExchange {
	return &DimensionExchange{colors: g.EdgeColoring(), graph: g, partnerOf: make([]int, g.N())}
}

// Name implements sim.Policy.
func (d *DimensionExchange) Name() string { return "dimexchange" }

// PrepareTick implements sim.TickPreparer: selects this tick's matching.
func (d *DimensionExchange) PrepareTick(view *sim.View) {
	for i := range d.partnerOf {
		d.partnerOf[i] = -1
	}
	if len(d.colors) == 0 {
		return
	}
	color := d.colors[int(view.Tick())%len(d.colors)]
	for _, e := range color {
		d.partnerOf[e.U] = e.V
		d.partnerOf[e.V] = e.U
	}
}

// PlanNodeInto implements sim.Policy.
func (d *DimensionExchange) PlanNodeInto(v int, view *sim.View, _ *rng.RNG, moves []sim.Move) []sim.Move {
	moves = moves[:0]
	j := d.partnerOf[v]
	if j < 0 || view.LinkBusy(v, j) {
		return moves
	}
	lv, lj := view.Height(v), view.Height(j)
	if lv <= lj {
		return moves // the lighter (or equal) endpoint stays silent
	}
	budget := (lv - lj) / 2 * view.Speed(v)
	st := view.TaskStore()
	best := pickTaskUpTo(st, view.TaskHandles(v), budget)
	if best < 0 {
		return moves
	}
	return append(moves, sim.Move{TaskID: st.ID(best), From: v, To: j, NewFlag: sim.NaNFlag()})
}

// GradientModel is the GM method of Lin & Keller: underloaded nodes have
// pressure 0; every other node's pressure is 1 + min(neighbour pressures),
// computed by multi-source BFS each tick. Overloaded nodes push one task per
// tick towards their lowest-pressure neighbour, so tasks flow along the
// pressure gradient towards the nearest underloaded region.
type GradientModel struct {
	// LowFactor/HighFactor define the watermarks relative to the current
	// mean load: underloaded below LowFactor·mean, overloaded above
	// HighFactor·mean. Zero values default to 0.75 and 1.25.
	LowFactor  float64
	HighFactor float64

	pressure []int
	heights  []float64 // scratch: per-tick height vector
	bfs      []int     // scratch: BFS queue
	mean     float64
	wmax     int
}

// Name implements sim.Policy.
func (g *GradientModel) Name() string { return "gm" }

func (g *GradientModel) factors() (lo, hi float64) {
	lo, hi = g.LowFactor, g.HighFactor
	if lo <= 0 {
		lo = 0.75
	}
	if hi <= 0 {
		hi = 1.25
	}
	return lo, hi
}

// PrepareTick implements sim.TickPreparer: recomputes the pressure surface.
// Runs on reusable scratch buffers, so steady-state ticks do not allocate.
func (g *GradientModel) PrepareTick(view *sim.View) {
	n := view.N()
	if cap(g.pressure) < n {
		g.pressure = make([]int, n)
	}
	g.pressure = g.pressure[:n]
	g.heights = view.HeightsInto(g.heights)
	loads := g.heights
	sum := 0.0
	for _, l := range loads {
		sum += l
	}
	g.mean = sum / float64(n)
	lo, _ := g.factors()
	g.wmax = view.Graph().N() + 1 // conservative "unreachable" cap
	// Multi-source BFS from underloaded nodes.
	if cap(g.bfs) < n {
		g.bfs = make([]int, 0, n)
	}
	queue := g.bfs[:0]
	for v := 0; v < n; v++ {
		if loads[v] < lo*g.mean {
			g.pressure[v] = 0
			queue = append(queue, v)
		} else {
			g.pressure[v] = g.wmax
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range view.Graph().Neighbors(v) {
			if g.pressure[u] > g.pressure[v]+1 {
				g.pressure[u] = g.pressure[v] + 1
				queue = append(queue, u)
			}
		}
	}
	g.bfs = queue[:0]
}

// PlanNodeInto implements sim.Policy.
func (g *GradientModel) PlanNodeInto(v int, view *sim.View, _ *rng.RNG, moves []sim.Move) []sim.Move {
	moves = moves[:0]
	_, hi := g.factors()
	lv := view.Height(v)
	// Senders: overloaded nodes, and intermediate nodes relaying tasks that
	// GM routed through them (pressure gradient > 0 and non-zero pressure
	// means we are not a sink).
	if lv <= hi*g.mean || g.pressure[v] == 0 {
		return moves
	}
	best := -1
	bestP := g.pressure[v]
	for _, j := range view.Graph().Neighbors(v) {
		if view.LinkBusy(v, j) {
			continue
		}
		if p := g.pressure[j]; p < bestP {
			best, bestP = j, p
		}
	}
	if best < 0 {
		return moves // no downhill pressure direction (or all links busy)
	}
	tasks := view.TaskHandles(v)
	if len(tasks) == 0 {
		return moves
	}
	st := view.TaskStore()
	// Send the smallest task (GM moves single work units towards the
	// gradient; smallest-first avoids overshooting the sink).
	smallest := tasks[0]
	for _, h := range tasks[1:] {
		l := st.Load(h)
		if l < st.Load(smallest) || (l == st.Load(smallest) && st.ID(h) < st.ID(smallest)) {
			smallest = h
		}
	}
	return append(moves, sim.Move{TaskID: st.ID(smallest), From: v, To: best, NewFlag: sim.NaNFlag()})
}

// CWN is the contracting-within-a-neighbourhood strategy: a node holding
// more load than its least-loaded neighbour sends one task there directly,
// as long as the task's hop budget is not exhausted (tasks contract towards
// minima within a bounded radius).
type CWN struct {
	// MaxHops bounds how many times a task may be forwarded (0 = 4, the
	// "neighbourhood radius" of the original scheme).
	MaxHops int
}

// Name implements sim.Policy.
func (c CWN) Name() string { return "cwn" }

// PlanLocality implements sim.LocalityDeclarer: candidate selection reads
// v's tasks (including hop counts), neighbour heights, incident busy links
// and speeds — all within the neighbourhood contract.
func (c CWN) PlanLocality() sim.Locality { return sim.LocalityNeighborhood }

// PlanNodeInto implements sim.Policy.
func (c CWN) PlanNodeInto(v int, view *sim.View, _ *rng.RNG, moves []sim.Move) []sim.Move {
	moves = moves[:0]
	maxHops := c.MaxHops
	if maxHops <= 0 {
		maxHops = 4
	}
	tasks := view.TaskHandles(v)
	if len(tasks) == 0 {
		return moves
	}
	st := view.TaskStore()
	lv := view.Height(v)
	best := -1
	bestLoad := math.Inf(1)
	for _, j := range view.Graph().Neighbors(v) {
		if view.LinkBusy(v, j) {
			continue
		}
		if l := view.Height(j); l < bestLoad {
			best, bestLoad = j, l
		}
	}
	if best < 0 {
		return moves
	}
	pick := taskmodel.NoHandle
	for _, h := range tasks {
		if st.Hops(h) >= maxHops {
			continue
		}
		l := st.Load(h)
		// Sending must strictly reduce the pairwise gap (height units).
		if lv-l/view.Speed(v) < bestLoad+l/view.Speed(best) {
			continue
		}
		if pick < 0 || l > st.Load(pick) || (l == st.Load(pick) && st.ID(h) < st.ID(pick)) {
			pick = h
		}
	}
	if pick < 0 {
		return moves
	}
	return append(moves, sim.Move{TaskID: st.ID(pick), From: v, To: best, NewFlag: sim.NaNFlag()})
}

// RandomSender is sender-initiated adaptive load sharing: a node above the
// threshold probes one random neighbour and transfers a task if the probe
// is below the threshold.
type RandomSender struct {
	// ThresholdFactor sets the activation threshold as a multiple of the
	// current mean load (0 = 1.0).
	ThresholdFactor float64

	mean    float64
	heights []float64 // scratch: per-tick height vector
}

// Name implements sim.Policy.
func (r *RandomSender) Name() string { return "random" }

// PrepareTick implements sim.TickPreparer: caches the mean load.
func (r *RandomSender) PrepareTick(view *sim.View) {
	r.heights = view.HeightsInto(r.heights)
	sum := 0.0
	for _, l := range r.heights {
		sum += l
	}
	r.mean = sum / float64(len(r.heights))
}

// PlanNodeInto implements sim.Policy. The probe draw happens before the
// busy/height checks, as it has since the first release — the draw sequence
// is part of the deterministic trajectory.
func (r *RandomSender) PlanNodeInto(v int, view *sim.View, rnd *rng.RNG, moves []sim.Move) []sim.Move {
	moves = moves[:0]
	factor := r.ThresholdFactor
	if factor <= 0 {
		factor = 1
	}
	threshold := factor * r.mean
	lv := view.Height(v)
	if lv <= threshold {
		return moves
	}
	ns := view.Graph().Neighbors(v)
	if len(ns) == 0 {
		return moves
	}
	j := ns[rnd.Intn(len(ns))]
	if view.LinkBusy(v, j) || view.Height(j) >= threshold {
		return moves
	}
	st := view.TaskStore()
	best := pickTaskUpTo(st, view.TaskHandles(v), (lv-threshold)*view.Speed(v))
	if best < 0 {
		return moves
	}
	return append(moves, sim.Move{TaskID: st.ID(best), From: v, To: j, NewFlag: sim.NaNFlag()})
}

// interface checks. DimensionExchange, GradientModel and RandomSender make
// no locality declaration: they read global state (tick-indexed colorings,
// relaxed pressure maps, system means), so they are LocalityGlobal by
// default and always run as full sweeps — being TickPreparers forces that
// anyway.
var (
	_ sim.Policy           = None{}
	_ sim.LocalityDeclarer = None{}
	_ sim.Policy           = Diffusion{}
	_ sim.LocalityDeclarer = Diffusion{}
	_ sim.Policy           = (*DimensionExchange)(nil)
	_ sim.TickPreparer     = (*DimensionExchange)(nil)
	_ sim.Policy           = (*GradientModel)(nil)
	_ sim.TickPreparer     = (*GradientModel)(nil)
	_ sim.Policy           = CWN{}
	_ sim.LocalityDeclarer = CWN{}
	_ sim.Policy           = (*RandomSender)(nil)
	_ sim.TickPreparer     = (*RandomSender)(nil)
)
