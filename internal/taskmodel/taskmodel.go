// Package taskmodel implements the paper's task-side primitives (§4.2):
//
//   - Store: a dense struct-of-arrays arena holding every task field
//     (load l_{i,k}, the potential-height flag h* of §5.1, and the
//     experiment bookkeeping) in parallel slices indexed by a stable Handle.
//   - Graph ("T" in the paper): edge-weighted task-dependency graph; T_{i,j}
//     is the communication weight between tasks i and j.
//   - Resources ("R" in the paper, |L|x|V|): task-to-node resource affinity.
//
// The paper uses "task" and "load" interchangeably; so does this package —
// a task is a unit of load from the balancer's point of view.
//
// # Arena memory model
//
// All live task state lives in one Store per simulation. Creating a task
// claims a slot (recycled from the free-list when available), and the slot's
// Handle stays valid — all lanes addressable in O(1) — until Release. After
// Release the handle may be reissued to a new task, so holders that can
// outlive a task (e.g. the engine's inertia records) must revalidate with
// the id lane before dereferencing. Handles are storage addresses only:
// no algorithmic decision, sort order, or random draw may key on a handle
// value — canonical orders are ascending task id, which is assignment order.
package taskmodel

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ID identifies a task for the lifetime of a run.
type ID int64

// Handle is a dense index into a Store: the stable address of one task's
// lanes from Create until Release. The zero handle is a valid slot, so
// "no task" is NoHandle, not 0.
type Handle int32

// NoHandle is the sentinel for "no task".
const NoHandle Handle = -1

// Store is the task arena: parallel lanes indexed by Handle, an id→handle
// index, and a free-list so slots recycle without garbage. The id index is a
// dense slice — task ids are assigned sequentially by the engine — so the
// steady state allocates nothing: lookups, creation into recycled slots and
// release are all O(1) over preallocated lanes.
//
// The node and slot lanes are queue residency state maintained by Queue:
// node is the id of the queue the task currently sits in (-1 while in
// flight or completed) and slot its absolute index in that queue's buffer.
type Store struct {
	id        []ID
	load      []float64
	flag      []float64
	moving    []bool
	origin    []int32
	prev      []int32
	node      []int32
	slot      []int32
	hops      []int32
	birth     []int64
	done      []int64
	movedTick []int64

	free []Handle // released slots, reused LIFO (deterministic)
	byID []Handle // dense id→handle index; NoHandle = dead or never created
	live int
}

// NewStore returns an empty arena.
func NewStore() *Store { return &Store{} }

// Create claims a slot for a new stationary task and returns its handle.
// Ids must be unique among live tasks; the engine assigns them sequentially,
// which keeps the id index dense.
func (s *Store) Create(id ID, load float64, origin int, birth int64) Handle {
	var h Handle
	if n := len(s.free); n > 0 {
		h = s.free[n-1]
		s.free = s.free[:n-1]
		s.id[h] = id
		s.load[h] = load
		s.flag[h] = 0
		s.moving[h] = false
		s.origin[h] = int32(origin)
		s.prev[h] = -1
		s.node[h] = -1
		s.slot[h] = -1
		s.hops[h] = 0
		s.birth[h] = birth
		s.done[h] = -1
		s.movedTick[h] = -1
	} else {
		h = Handle(len(s.id))
		s.id = append(s.id, id)
		s.load = append(s.load, load)
		s.flag = append(s.flag, 0)
		s.moving = append(s.moving, false)
		s.origin = append(s.origin, int32(origin))
		s.prev = append(s.prev, -1)
		s.node = append(s.node, -1)
		s.slot = append(s.slot, -1)
		s.hops = append(s.hops, 0)
		s.birth = append(s.birth, birth)
		s.done = append(s.done, -1)
		s.movedTick = append(s.movedTick, -1)
	}
	for int64(len(s.byID)) <= int64(id) {
		s.byID = append(s.byID, NoHandle)
	}
	s.byID[id] = h
	s.live++
	return h
}

// Release returns the task's slot to the free-list. The handle must not be
// dereferenced afterwards; holders that may race a release revalidate via
// the id lane (ID returns -1 on a dead slot until the slot is reissued).
func (s *Store) Release(h Handle) {
	s.byID[s.id[h]] = NoHandle
	s.id[h] = -1
	s.free = append(s.free, h)
	s.live--
}

// HandleOf returns the live task with the given id, or NoHandle.
func (s *Store) HandleOf(id ID) Handle {
	if id < 0 || int64(id) >= int64(len(s.byID)) {
		return NoHandle
	}
	return s.byID[id]
}

// Alive reports whether h currently addresses a live task.
func (s *Store) Alive(h Handle) bool {
	return h >= 0 && int(h) < len(s.id) && s.id[h] >= 0
}

// Live returns the number of live tasks.
func (s *Store) Live() int { return s.live }

// Cap returns the number of slots ever created (live + free).
func (s *Store) Cap() int { return len(s.id) }

// IDBound returns an exclusive upper bound on ids ever issued.
func (s *Store) IDBound() ID { return ID(len(s.byID)) }

// Lane accessors. ID returns -1 for a released slot — that is the liveness
// check the engine's inertia records rely on.

// ID returns the task id in slot h (-1 when the slot is free).
func (s *Store) ID(h Handle) ID { return s.id[h] }

// Load returns the task's remaining load: the particle's mass m, the load
// quantity l_{i,k}.
func (s *Store) Load(h Handle) float64 { return s.load[h] }

// Flag returns the potential-height flag h* of §5.1: the highest point the
// particle can still reach given the energy dissipated so far. It is set to
// the node height where a movement "game" starts and lowered by E_h/(m·g)
// per hop.
func (s *Store) Flag(h Handle) float64 { return s.flag[h] }

// Moving reports whether the task is mid-slide (has inertia): it arrived last
// tick and may continue under the in-motion rule rather than the static one.
func (s *Store) Moving(h Handle) bool { return s.moving[h] }

// Origin returns the node where the task entered the system.
func (s *Store) Origin(h Handle) int { return int(s.origin[h]) }

// Prev returns the node the task last migrated from (-1 if none): the
// discrete momentum memory that keeps a sliding task from backtracking.
func (s *Store) Prev(h Handle) int { return int(s.prev[h]) }

// Node returns the node whose queue the task sits in (-1 while in flight).
func (s *Store) Node(h Handle) int { return int(s.node[h]) }

// Slot returns the task's absolute index in its queue's buffer (-1 when not
// enqueued).
func (s *Store) Slot(h Handle) int { return int(s.slot[h]) }

// Hops returns the number of link traversals so far.
func (s *Store) Hops(h Handle) int { return int(s.hops[h]) }

// Birth returns the tick at which the task entered the system.
func (s *Store) Birth(h Handle) int64 { return s.birth[h] }

// Done returns the tick the task finished service (-1 while live).
func (s *Store) Done(h Handle) int64 { return s.done[h] }

// MovedTick returns the tick the task last departed a node (-1 if never).
// The engine's inertia settle rule reads it to tell whether a task continued
// its slide this tick; a per-task stamp is writable from the parallel apply
// phase without any shared set.
func (s *Store) MovedTick(h Handle) int64 { return s.movedTick[h] }

// SetLoad overwrites the task's remaining load.
func (s *Store) SetLoad(h Handle, v float64) { s.load[h] = v }

// SetFlag overwrites the potential-height flag.
func (s *Store) SetFlag(h Handle, v float64) { s.flag[h] = v }

// SetMoving sets or clears the mid-slide bit.
func (s *Store) SetMoving(h Handle, v bool) { s.moving[h] = v }

// SetPrev records the node the task last migrated from.
func (s *Store) SetPrev(h Handle, v int) { s.prev[h] = int32(v) }

// SetMovedTick stamps the tick the task departed a node.
func (s *Store) SetMovedTick(h Handle, tick int64) { s.movedTick[h] = tick }

// AddHop increments the task's hop count.
func (s *Store) AddHop(h Handle) { s.hops[h]++ }

// SlotState is the serializable state of one arena slot: every lane except
// node/slot, which are queue residency state and are rebuilt by Queue.Restore
// when the owning queue re-adds the handle. A dead (free) slot has ID -1 and
// all other fields zero.
type SlotState struct {
	ID        ID
	Load      float64
	Flag      float64
	Moving    bool
	Origin    int32
	Prev      int32
	Hops      int32
	Birth     int64
	Done      int64
	MovedTick int64
}

// SlotStateAt returns the serializable state of slot h. Valid for dead slots
// too (ID -1), so an encoder can walk all of [0, Cap).
func (s *Store) SlotStateAt(h Handle) SlotState {
	if s.id[h] < 0 {
		return SlotState{ID: -1}
	}
	return SlotState{
		ID: s.id[h], Load: s.load[h], Flag: s.flag[h], Moving: s.moving[h],
		Origin: s.origin[h], Prev: s.prev[h], Hops: s.hops[h],
		Birth: s.birth[h], Done: s.done[h], MovedTick: s.movedTick[h],
	}
}

// FreeList returns the released slots in exact recycling order (Create pops
// from the tail). The slice is shared; callers must not modify it. Snapshot
// encoders serialize it verbatim: the free-list order determines every future
// handle assignment, so a restored engine must reproduce it exactly.
func (s *Store) FreeList() []Handle { return s.free }

// RestoreSnapshot rebuilds the arena in place from serialized slot states.
// slots[h] describes slot h for every h in [0, len(slots)); dead slots carry
// ID -1 and must appear in free (in the original recycling order). idBound is
// the exclusive upper bound on ids ever issued (Store.IDBound at snapshot
// time) and sizes the id→handle index. Node/slot lanes are reset to -1; the
// owning queues re-claim them via Queue.Restore. The store mutates in place
// so queues already bound to it stay bound.
func (s *Store) RestoreSnapshot(slots []SlotState, free []Handle, idBound ID) error {
	n := len(slots)
	s.id = make([]ID, n)
	s.load = make([]float64, n)
	s.flag = make([]float64, n)
	s.moving = make([]bool, n)
	s.origin = make([]int32, n)
	s.prev = make([]int32, n)
	s.node = make([]int32, n)
	s.slot = make([]int32, n)
	s.hops = make([]int32, n)
	s.birth = make([]int64, n)
	s.done = make([]int64, n)
	s.movedTick = make([]int64, n)
	if idBound < 0 {
		return fmt.Errorf("taskmodel: restore: negative id bound %d", idBound)
	}
	s.byID = make([]Handle, idBound)
	for i := range s.byID {
		s.byID[i] = NoHandle
	}
	s.live = 0
	for h, st := range slots {
		s.node[h] = -1
		s.slot[h] = -1
		if st.ID < 0 {
			s.id[h] = -1
			s.prev[h] = -1
			s.done[h] = -1
			s.movedTick[h] = -1
			continue
		}
		if st.ID >= idBound {
			return fmt.Errorf("taskmodel: restore: slot %d id %d >= id bound %d", h, st.ID, idBound)
		}
		if s.byID[st.ID] != NoHandle {
			return fmt.Errorf("taskmodel: restore: duplicate id %d in slots %d and %d", st.ID, s.byID[st.ID], h)
		}
		s.id[h] = st.ID
		s.load[h] = st.Load
		s.flag[h] = st.Flag
		s.moving[h] = st.Moving
		s.origin[h] = st.Origin
		s.prev[h] = st.Prev
		s.hops[h] = st.Hops
		s.birth[h] = st.Birth
		s.done[h] = st.Done
		s.movedTick[h] = st.MovedTick
		s.byID[st.ID] = Handle(h)
		s.live++
	}
	s.free = make([]Handle, len(free))
	for i, h := range free {
		if h < 0 || int(h) >= n {
			return fmt.Errorf("taskmodel: restore: free-list handle %d out of range [0,%d)", h, n)
		}
		if s.id[h] >= 0 {
			return fmt.Errorf("taskmodel: restore: free-list handle %d addresses live task %d", h, s.id[h])
		}
		s.free[i] = h
	}
	if s.live+len(s.free) != n {
		return fmt.Errorf("taskmodel: restore: %d live + %d free != %d slots", s.live, len(s.free), n)
	}
	return nil
}

// Graph is the task-dependency graph T: Weight(a,b) is the communication
// demand between tasks a and b. The zero value (or nil pointer) is an empty
// graph, which every accessor treats as "no dependencies".
//
// Internally the graph keeps two representations: a map-of-maps edit view
// that SetDep mutates, and a flat CSR-style adjacency (sorted rows of
// neighbour ids and weights plus per-row weight sums) that read accessors
// use. When the id universe is compact — the engine's sequential ids — the
// row index is a dense slice rather than a map, so the µs hot path never
// hashes. The flat form is rebuilt lazily on the first read after a
// mutation; reads on a clean graph touch only immutable slices, so
// concurrent readers (the parallel planning fan-out) are safe as long as
// nobody mutates the graph mid-tick. Summation order over a row is ascending
// id, which also makes µs float arithmetic independent of map iteration
// order.
type Graph struct {
	w     map[ID]map[ID]float64
	dirty atomic.Bool
	mu    sync.Mutex // serialises rebuilds

	// CSR adjacency, valid while !dirty.
	rowOf    map[ID]int32
	rowDense []int32 // dense id→row fast path (-1 = no row); nil when ids sparse
	rowStart []int32
	cols     []ID
	wts      []float64
	rowSum   []float64
	numDeps  int
}

// NewGraph returns an empty dependency graph.
func NewGraph() *Graph { return &Graph{w: make(map[ID]map[ID]float64)} }

// SetDep records a symmetric dependency of the given weight between a and b.
// Setting weight 0 removes the dependency. Self-dependencies are ignored.
// Not safe for use concurrently with readers (build the graph before the
// simulation starts, or between ticks).
func (g *Graph) SetDep(a, b ID, weight float64) {
	if a == b || g == nil {
		return
	}
	if g.w == nil {
		g.w = make(map[ID]map[ID]float64)
	}
	set := func(x, y ID) {
		if weight == 0 {
			if m := g.w[x]; m != nil {
				delete(m, y)
				if len(m) == 0 {
					delete(g.w, x)
				}
			}
			return
		}
		m := g.w[x]
		if m == nil {
			m = make(map[ID]float64)
			g.w[x] = m
		}
		m[y] = weight
	}
	set(a, b)
	set(b, a)
	g.dirty.Store(true)
}

// denseSlack bounds how much larger than the row count the dense id→row
// index may be: engine ids are sequential, so the index stays near-full;
// a pathological sparse id universe falls back to the map.
const denseSlack = 1024

// ensure rebuilds the flat adjacency if mutations are pending.
func (g *Graph) ensure() {
	if !g.dirty.Load() {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.dirty.Load() {
		return
	}
	ids := make([]ID, 0, len(g.w))
	total := 0
	for a, m := range g.w {
		ids = append(ids, a)
		total += len(m)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	g.rowOf = make(map[ID]int32, len(ids))
	g.rowStart = make([]int32, len(ids)+1)
	g.cols = make([]ID, 0, total)
	g.wts = make([]float64, 0, total)
	g.rowSum = make([]float64, len(ids))
	g.rowDense = nil
	if n := len(ids); n > 0 && ids[0] >= 0 && int64(ids[n-1]) <= int64(4*n+denseSlack) {
		g.rowDense = make([]int32, ids[n-1]+1)
		for i := range g.rowDense {
			g.rowDense[i] = -1
		}
	}
	for r, a := range ids {
		g.rowOf[a] = int32(r)
		if g.rowDense != nil {
			g.rowDense[a] = int32(r)
		}
		row := g.w[a]
		start := len(g.cols)
		for b := range row {
			g.cols = append(g.cols, b)
		}
		seg := g.cols[start:]
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
		sum := 0.0
		for _, b := range seg {
			w := row[b]
			g.wts = append(g.wts, w)
			sum += w
		}
		g.rowSum[r] = sum
		g.rowStart[r+1] = int32(len(g.cols))
	}
	g.numDeps = total / 2
	g.dirty.Store(false)
}

// rowIndex resolves task a to its CSR row, preferring the dense index.
func (g *Graph) rowIndex(a ID) (int32, bool) {
	if g.rowDense != nil {
		if a < 0 || int64(a) >= int64(len(g.rowDense)) {
			return 0, false
		}
		r := g.rowDense[a]
		return r, r >= 0
	}
	r, ok := g.rowOf[a]
	return r, ok
}

// row returns the CSR row of a as parallel id/weight slices (nil when a has
// no dependencies).
func (g *Graph) row(a ID) ([]ID, []float64) {
	r, ok := g.rowIndex(a)
	if !ok {
		return nil, nil
	}
	lo, hi := g.rowStart[r], g.rowStart[r+1]
	return g.cols[lo:hi], g.wts[lo:hi]
}

// Weight returns the dependency weight between a and b (0 when absent).
func (g *Graph) Weight(a, b ID) float64 {
	if g == nil || g.w == nil {
		return 0
	}
	g.ensure()
	cols, wts := g.row(a)
	i := sort.Search(len(cols), func(k int) bool { return cols[k] >= b })
	if i < len(cols) && cols[i] == b {
		return wts[i]
	}
	return 0
}

// Deps returns the ids that task a depends on, in ascending order.
func (g *Graph) Deps(a ID) []ID {
	if g == nil || g.w == nil {
		return nil
	}
	g.ensure()
	cols, _ := g.row(a)
	if len(cols) == 0 {
		return nil
	}
	return append([]ID(nil), cols...)
}

// TotalWeight returns the sum of dependency weights incident to a — the
// Σ_{x≠l0} T_{k,x} term of the µs formula in §4.2.
func (g *Graph) TotalWeight(a ID) float64 {
	if g == nil || g.w == nil {
		return 0
	}
	g.ensure()
	r, ok := g.rowIndex(a)
	if !ok {
		return 0
	}
	return g.rowSum[r]
}

// WeightToQueue returns the summed dependency weight from a to tasks
// resident in q — the set-valued read with the queue's O(1) dense membership
// index (two array loads per dependency, no hashing). This is the µs hot
// path.
func (g *Graph) WeightToQueue(a ID, q *Queue) float64 {
	if g == nil || g.w == nil || q == nil || q.Len() == 0 {
		return 0
	}
	g.ensure()
	cols, wts := g.row(a)
	s := 0.0
	for i, b := range cols {
		if q.Has(b) {
			s += wts[i]
		}
	}
	return s
}

// NumDeps returns the number of dependency edges (each counted once).
func (g *Graph) NumDeps() int {
	if g == nil || g.w == nil {
		return 0
	}
	g.ensure()
	return g.numDeps
}

// Resources is the R matrix of §4.2: Affinity(task, node) expresses how much
// the task depends on resources present at the node. The zero value is an
// empty matrix.
//
// Like Graph, Resources keeps the map-of-maps edit view for mutation and a
// lazily rebuilt CSR (sorted node/weight rows, dense id→row index when ids
// are compact) for the read path, so the per-candidate Affinity lookups of
// the planning fan-out never hash.
type Resources struct {
	aff   map[ID]map[int]float64
	dirty atomic.Bool
	mu    sync.Mutex // serialises rebuilds

	rowOf    map[ID]int32
	rowDense []int32
	rowStart []int32
	nodes    []int32
	wts      []float64
}

// NewResources returns an empty resource-affinity matrix.
func NewResources() *Resources { return &Resources{aff: make(map[ID]map[int]float64)} }

// SetAffinity records the resource affinity of task t to node v; weight 0
// removes the entry. Not safe for use concurrently with readers.
func (r *Resources) SetAffinity(t ID, v int, weight float64) {
	if r == nil {
		return
	}
	if r.aff == nil {
		r.aff = make(map[ID]map[int]float64)
	}
	if weight == 0 {
		if m := r.aff[t]; m != nil {
			delete(m, v)
			if len(m) == 0 {
				delete(r.aff, t)
			}
		}
	} else {
		m := r.aff[t]
		if m == nil {
			m = make(map[int]float64)
			r.aff[t] = m
		}
		m[v] = weight
	}
	r.dirty.Store(true)
}

// ensure rebuilds the flat affinity rows if mutations are pending.
func (r *Resources) ensure() {
	if !r.dirty.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.dirty.Load() {
		return
	}
	ids := make([]ID, 0, len(r.aff))
	total := 0
	for t, m := range r.aff {
		ids = append(ids, t)
		total += len(m)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	r.rowOf = make(map[ID]int32, len(ids))
	r.rowStart = make([]int32, len(ids)+1)
	r.nodes = make([]int32, 0, total)
	r.wts = make([]float64, 0, total)
	r.rowDense = nil
	if n := len(ids); n > 0 && ids[0] >= 0 && int64(ids[n-1]) <= int64(4*n+denseSlack) {
		r.rowDense = make([]int32, ids[n-1]+1)
		for i := range r.rowDense {
			r.rowDense[i] = -1
		}
	}
	for rr, t := range ids {
		r.rowOf[t] = int32(rr)
		if r.rowDense != nil {
			r.rowDense[t] = int32(rr)
		}
		row := r.aff[t]
		start := len(r.nodes)
		for v := range row {
			r.nodes = append(r.nodes, int32(v))
		}
		seg := r.nodes[start:]
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
		for _, v := range seg {
			r.wts = append(r.wts, row[int(v)])
		}
		r.rowStart[rr+1] = int32(len(r.nodes))
	}
	r.dirty.Store(false)
}

// Affinity returns the resource affinity of task t to node v (0 when absent).
func (r *Resources) Affinity(t ID, v int) float64 {
	if r == nil || r.aff == nil {
		return 0
	}
	r.ensure()
	var row int32
	if r.rowDense != nil {
		if t < 0 || int64(t) >= int64(len(r.rowDense)) {
			return 0
		}
		row = r.rowDense[t]
		if row < 0 {
			return 0
		}
	} else {
		var ok bool
		row, ok = r.rowOf[t]
		if !ok {
			return 0
		}
	}
	lo, hi := int(r.rowStart[row]), int(r.rowStart[row+1])
	nodes := r.nodes[lo:hi]
	i := sort.Search(len(nodes), func(k int) bool { return nodes[k] >= int32(v) })
	if i < len(nodes) && nodes[i] == int32(v) {
		return r.wts[lo+i]
	}
	return 0
}

// Queue is the multiset of tasks resident on one node, with the cached total
// load h(v) = Σ l_{v,k} of §4.2. Membership and removal are O(1) through the
// store's dense id→handle index and per-task node/slot lanes — no map.
// A queue must be bound to a store (and a node id unique within that store)
// with Init before use; the engine initialises one queue per node.
//
// Layout: resident handles live in buf[head:] in insertion order. Service
// consumption pops from the front by advancing head (no shifting); the
// vacated prefix is compacted away once it dominates the buffer.
type Queue struct {
	st    *Store
	node  int32
	buf   []Handle
	head  int
	total float64
}

// Init binds the queue to its store and node id. Must be called before any
// other method, and at most once.
func (q *Queue) Init(st *Store, node int) {
	q.st = st
	q.node = int32(node)
}

// Store returns the arena this queue is bound to.
func (q *Queue) Store() *Store { return q.st }

// Add inserts a task by handle, claiming its node/slot lanes.
func (q *Queue) Add(h Handle) {
	q.buf = append(q.buf, h)
	q.total += q.st.load[h]
	q.st.node[h] = q.node
	q.st.slot[h] = int32(len(q.buf) - 1)
}

// Remove deletes the task with the given id and returns its handle, or
// NoHandle when not resident here. Order of remaining tasks is preserved:
// the slot lane locates the entry directly and only the tail after it
// shifts.
func (q *Queue) Remove(id ID) Handle {
	h := q.st.HandleOf(id)
	if h < 0 || q.st.node[h] != q.node {
		return NoHandle
	}
	i := int(q.st.slot[h])
	copy(q.buf[i:], q.buf[i+1:])
	q.buf = q.buf[:len(q.buf)-1]
	for j := i; j < len(q.buf); j++ {
		q.st.slot[q.buf[j]] = int32(j)
	}
	q.st.node[h] = -1
	q.st.slot[h] = -1
	q.total -= q.st.load[h]
	q.clampDrift()
	return h
}

// clampDrift zeroes sub-nanoscale negative totals left by repeated float
// adds/removes. Called from mutating operations only, so read paths stay
// write-free and safe for the concurrent planning fan-out.
func (q *Queue) clampDrift() {
	if q.total < 0 && q.total > -1e-9 {
		q.total = 0
	}
}

// Has reports whether the task with the given id is resident (O(1): the
// store's dense id index plus the node lane).
func (q *Queue) Has(id ID) bool {
	h := q.st.HandleOf(id)
	return h >= 0 && q.st.node[h] == q.node
}

// Len returns the number of resident tasks.
func (q *Queue) Len() int { return len(q.buf) - q.head }

// Total returns h(v): the summed load of resident tasks. A pure read:
// planning goroutines call it concurrently, so the drift guard lives in the
// mutating operations instead.
func (q *Queue) Total() float64 { return q.total }

// Handles returns the resident task handles in insertion order. The slice is
// shared; callers must not modify it.
func (q *Queue) Handles() []Handle { return q.buf[q.head:] }

// compact drops the consumed prefix so buf does not grow without bound.
func (q *Queue) compact() {
	if q.head == 0 {
		return
	}
	n := copy(q.buf, q.buf[q.head:])
	q.buf = q.buf[:n]
	for j := 0; j < n; j++ {
		q.st.slot[q.buf[j]] = int32(j)
	}
	q.head = 0
}

// Restore rebuilds the queue's residency from handles (front-to-back order),
// claiming the node/slot lanes, then overwrites the cached total with the
// exact serialized bits — the cached float is accumulated state, and a
// rebuilt sum could differ in the last ulp from the original's add/remove
// history. The queue canonicalizes on restore: head is 0 regardless of where
// the original buffer's consumed prefix stood (nothing behavioral reads
// absolute buffer positions).
func (q *Queue) Restore(handles []Handle, total float64) {
	q.buf = q.buf[:0]
	q.head = 0
	for _, h := range handles {
		q.Add(h)
	}
	q.total = total
}

// ConsumeServiceInto removes up to amount of load from the queue front
// (FIFO), completing tasks whose load is fully consumed, and returns done
// with the completed tasks' handles appended plus the load actually
// consumed. Partial consumption reduces a task's remaining load in place.
// This models node service capacity in the non-quiescent experiments. done
// may be nil or a reused batch buffer: the engine's sharded service phase
// drains a whole shard of queues into one buffer without allocating.
// Completed tasks leave the queue (node/slot lanes cleared) but stay alive
// in the store until the caller releases them.
func (q *Queue) ConsumeServiceInto(amount float64, now int64, done []Handle) ([]Handle, float64) {
	st := q.st
	consumed := 0.0
	for amount > 0 && q.head < len(q.buf) {
		h := q.buf[q.head]
		load := st.load[h]
		if load <= amount {
			amount -= load
			consumed += load
			q.total -= load
			st.done[h] = now
			st.node[h] = -1
			st.slot[h] = -1
			done = append(done, h)
			q.head++
		} else {
			st.load[h] = load - amount
			q.total -= amount
			consumed += amount
			amount = 0
		}
	}
	q.clampDrift()
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head >= 16 && q.head*2 >= len(q.buf) {
		q.compact()
	}
	return done, consumed
}

// CheckConsistency brute-force audits the queue against the store: every
// resident handle alive, the id→handle index round-tripping, the node and
// slot lanes agreeing with the buffer position, loads positive, and the
// cached total matching a fresh scan. Harness/test use (O(n) per queue).
func (q *Queue) CheckConsistency() error {
	if q.st == nil {
		if len(q.buf) != 0 {
			return fmt.Errorf("unbound queue holds %d handles", len(q.buf))
		}
		return nil
	}
	st := q.st
	sum := 0.0
	for i := q.head; i < len(q.buf); i++ {
		h := q.buf[i]
		if h < 0 || int(h) >= len(st.id) {
			return fmt.Errorf("slot %d: handle %d out of range", i, h)
		}
		id := st.id[h]
		if id < 0 {
			return fmt.Errorf("slot %d: handle %d is dead", i, h)
		}
		if got := st.HandleOf(id); got != h {
			return fmt.Errorf("task %d: id index maps to handle %d, resident handle is %d", id, got, h)
		}
		if st.node[h] != q.node {
			return fmt.Errorf("task %d: node lane %d, resident at %d", id, st.node[h], q.node)
		}
		if st.slot[h] != int32(i) {
			return fmt.Errorf("task %d: slot lane %d, buffer position %d", id, st.slot[h], i)
		}
		if !(st.load[h] > 0) {
			return fmt.Errorf("task %d: load %g", id, st.load[h])
		}
		sum += st.load[h]
	}
	if d := sum - q.total; d > 1e-6+1e-9*sum || d < -(1e-6+1e-9*sum) {
		return fmt.Errorf("cached total %g but scan %g", q.total, sum)
	}
	return nil
}
