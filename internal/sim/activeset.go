package sim

import (
	"math/bits"
	"sync/atomic"
)

// Locality declares how much simulation state a policy's PlanNodeInto
// consults, which is what makes incremental re-planning sound: the engine
// may skip a node only when it can prove the node's plan would come out the
// same.
type Locality int

const (
	// LocalityGlobal means PlanNodeInto may read arbitrary state — far-away
	// loads, the tick number, mutable policy internals — so no local change
	// tracking can prove a plan stale and every node re-plans every tick.
	LocalityGlobal Locality = iota

	// LocalityNeighborhood is the contract of the paper's particle balancer:
	// whenever PlanNodeInto(v) returns no moves, that outcome is a pure
	// function of v's neighbourhood — v's own tasks (loads and task fields),
	// the heights of v's neighbours, the busy flags of v's incident links —
	// plus static configuration (topology, link parameters, speeds, dependency and
	// resource matrices). It must not depend on the tick number, on
	// randomness, or on mutable policy-internal state. The contract
	// constrains only the *empty* outcome: a node that proposes moves is
	// unconditionally re-planned next tick, so arbiter randomness,
	// annealing schedules and anything else behind a non-empty candidate set
	// remain fair game.
	LocalityNeighborhood
)

// LocalityDeclarer is an optional Policy extension. Policies that declare
// LocalityNeighborhood (and are not TickPreparers) run on the active-set
// pipeline: a node is re-planned only when its own load, a neighbour's load,
// or an incident link changed since it last planned. Undeclared policies are
// treated as LocalityGlobal and always fully swept.
type LocalityDeclarer interface {
	PlanLocality() Locality
}

// usesActiveSet reports whether an engine running pol plans incrementally.
// The active set is sound only for policies whose empty plans are pure
// functions of neighbourhood state: they must declare that, and a
// TickPreparer (per-tick global refresh) forfeits it by definition.
// FullSweep turns it off.
func usesActiveSet(pol Policy, fullSweep bool) bool {
	if fullSweep {
		return false
	}
	ld, ok := pol.(LocalityDeclarer)
	if !ok || ld.PlanLocality() != LocalityNeighborhood {
		return false
	}
	_, prep := pol.(TickPreparer)
	return !prep
}

// nodeBits is a bitset over node ids with atomic mutation, because dirty
// marking crosses shard boundaries (a mutation on one shard dirties
// neighbours owned by others) and 64-bit words straddle shard ranges. OR and
// AND-NOT are idempotent and commutative, so the final word values are
// independent of interleaving — concurrent marking stays deterministic.
type nodeBits []uint64

func newNodeBits(n int) nodeBits { return make(nodeBits, (n+63)/64) }

// set sets bit v. The read-before-OR keeps already-set bits from forcing
// cache-line ownership transfers on hot marking paths.
func (b nodeBits) set(v int) {
	w := &b[v>>6]
	bit := uint64(1) << (uint(v) & 63)
	if atomic.LoadUint64(w)&bit == 0 {
		atomic.OrUint64(w, bit)
	}
}

// rangeWord returns word w with the bits outside the node range [lo, hi)
// masked off: shard ranges are not 64-aligned, so a boundary word is shared
// with the neighbouring shard. A plain load: the planning walk reads the
// frozen plan set, which no worker mutates meanwhile.
func (b nodeBits) rangeWord(w, lo, hi int) uint64 {
	word := b[w]
	base := w << 6
	if base < lo {
		word &= ^uint64(0) << uint(lo-base)
	}
	if base+64 > hi {
		word &= 1<<uint(hi-base) - 1
	}
	return word
}

// activeSet is the dirty-tracking core of the incremental planner: a
// double-buffered pair of node bitsets.
//
// plan is the frozen set of nodes to re-plan this tick; it is read-only
// during the planning fan-out. pending accumulates every node whose planning
// inputs changed since plan was frozen; beginTick swaps the buffers and
// clears the new pending one. Every mutation site of the tick pipeline marks
// into pending through the engine's markDirty helpers, and nodes are always
// consumed in ascending id order within ascending shards — the canonical
// activation order — so which worker performed a mutation can never
// influence what gets planned or when.
type activeSet struct {
	n       int
	plan    nodeBits
	pending nodeBits
}

func newActiveSet(n int) *activeSet {
	return &activeSet{n: n, plan: newNodeBits(n), pending: newNodeBits(n)}
}

// mark schedules node v for re-planning: an idempotent OR behind a read, so
// a node already marked costs one load and no cache-line ownership
// transfer. The marking path writes no shared counter (the cutover estimate
// counts pending bits between ticks instead).
func (a *activeSet) mark(v int) { a.pending.set(v) }

// beginTick freezes the accumulated marks as this tick's plan set and
// clears the last tick's consumed plan set to become the new pending buffer.
// Single-threaded (runs between phase fan-outs).
func (a *activeSet) beginTick() {
	a.plan, a.pending = a.pending, a.plan
	clear(a.pending)
}

// activateAll schedules every node, so the first tick after construction
// plans the full system.
func (a *activeSet) activateAll() {
	for i := range a.pending {
		a.pending[i] = ^uint64(0)
	}
	if r := uint(a.n) & 63; r != 0 {
		a.pending[len(a.pending)-1] = 1<<r - 1
	}
}

// pendingCount returns how many nodes are scheduled for the next planning
// pass: a popcount of N/64 words (256 at 16k nodes). Called between ticks,
// when no mutators run, so the count is exact.
func (a *activeSet) pendingCount() int {
	c := 0
	for _, w := range a.pending {
		c += bits.OnesCount64(w)
	}
	return c
}

// markDirty schedules a single node for re-planning. Used when only
// node-local planning input changed (an inertial task settling: the Moving
// flag is invisible to neighbours).
func (e *Engine) markDirty(v int) {
	if a := e.state.active; a != nil {
		a.mark(v)
	}
}

// markDirtyNeighborhood schedules v and all its neighbours. This is the
// marking for every load or link mutation: a queue change at v moves v's
// height (read by neighbours) and v's own task set; a link {v,u} busy-flag
// transition is covered because u is by definition v's neighbour.
func (e *Engine) markDirtyNeighborhood(v int) {
	a := e.state.active
	if a == nil {
		return
	}
	a.mark(v)
	for _, u := range e.state.g.Neighbors(v) {
		a.mark(u)
	}
}
