// Package taskmodel implements the paper's task-side primitives (§4.2):
//
//   - Store: a dense struct-of-arrays arena holding every task field
//     (load l_{i,k}, the potential-height flag h* of §5.1, and the
//     experiment bookkeeping) in parallel slices indexed by a stable Handle,
//     and the per-node queues (Queue), whose residents it links through
//     next/prev lanes.
//   - Graph ("T" in the paper): edge-weighted task-dependency graph; T_{i,j}
//     is the communication weight between tasks i and j.
//   - Resources ("R" in the paper, |L|x|V|): task-to-node resource affinity.
//
// T and R share one task-keyed sparse matrix (columns are task ids for T,
// node ids for R): one map of rows, each row's columns kept sorted as it is
// edited, so reads never write.
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
	"math"
	"slices"
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
// The store is also the one owner of queue residency: a header per node
// (Queue) and three lanes. node is the id of the queue the task currently
// sits in (-1 while in flight or completed); next and prev link the
// residents of one queue in insertion order (NoHandle at the ends and while
// not enqueued).
type Store struct {
	id        []ID
	load      []float64
	flag      []float64
	moving    []bool
	origin    []int32
	prevNode  []int32
	node      []int32
	next      []Handle
	prev      []Handle
	hops      []int32
	birth     []int64
	movedTick []int64

	queues []Queue // per-node queue headers, indexed by node id

	free []Handle // released slots, reused LIFO (deterministic)
	byID []Handle // dense id→handle index; NoHandle = dead or never created
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
		s.prevNode[h] = -1
		s.node[h] = -1
		s.next[h] = NoHandle
		s.prev[h] = NoHandle
		s.hops[h] = 0
		s.birth[h] = birth
		s.movedTick[h] = -1
	} else {
		h = Handle(len(s.id))
		s.id = append(s.id, id)
		s.load = append(s.load, load)
		s.flag = append(s.flag, 0)
		s.moving = append(s.moving, false)
		s.origin = append(s.origin, int32(origin))
		s.prevNode = append(s.prevNode, -1)
		s.node = append(s.node, -1)
		s.next = append(s.next, NoHandle)
		s.prev = append(s.prev, NoHandle)
		s.hops = append(s.hops, 0)
		s.birth = append(s.birth, birth)
		s.movedTick = append(s.movedTick, -1)
	}
	for int64(len(s.byID)) <= int64(id) {
		s.byID = append(s.byID, NoHandle)
	}
	s.byID[id] = h
	return h
}

// Release returns the task's slot to the free-list. The handle must not be
// dereferenced afterwards; holders that may race a release revalidate via
// the id lane (ID returns -1 on a dead slot until the slot is reissued).
func (s *Store) Release(h Handle) {
	s.byID[s.id[h]] = NoHandle
	s.id[h] = -1
	s.free = append(s.free, h)
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
func (s *Store) Live() int { return len(s.id) - len(s.free) }

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
func (s *Store) Prev(h Handle) int { return int(s.prevNode[h]) }

// Node returns the node whose queue the task sits in (-1 while in flight).
func (s *Store) Node(h Handle) int { return int(s.node[h]) }

// Hops returns the number of link traversals so far.
func (s *Store) Hops(h Handle) int { return int(s.hops[h]) }

// Birth returns the tick at which the task entered the system.
func (s *Store) Birth(h Handle) int64 { return s.birth[h] }

// MovedTick returns the tick the task last departed a node (-1 if never).
// The engine's inertia settle rule reads it to tell whether a task continued
// its slide this tick; a per-task stamp is writable from the parallel apply
// phase without any shared set.
func (s *Store) MovedTick(h Handle) int64 { return s.movedTick[h] }

// SetFlag overwrites the potential-height flag.
func (s *Store) SetFlag(h Handle, v float64) { s.flag[h] = v }

// SetMoving sets or clears the mid-slide bit.
func (s *Store) SetMoving(h Handle, v bool) { s.moving[h] = v }

// SetPrev records the node the task last migrated from.
func (s *Store) SetPrev(h Handle, v int) { s.prevNode[h] = int32(v) }

// SetMovedTick stamps the tick the task departed a node.
func (s *Store) SetMovedTick(h Handle, tick int64) { s.movedTick[h] = tick }

// AddHop increments the task's hop count.
func (s *Store) AddHop(h Handle) { s.hops[h]++ }

// SlotState is the serializable state of one arena slot: every lane except
// the node and link lanes, which are queue residency state and are rebuilt
// when the snapshot decoder re-enqueues the handle. A dead (free) slot has ID -1 and
// all other fields zero. There is no completion tick: a task that finishes
// service is released in the same tick, so a live slot never carries one.
type SlotState struct {
	ID        ID
	Load      float64
	Flag      float64
	Moving    bool
	Origin    int32
	Prev      int32
	Hops      int32
	Birth     int64
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
		Origin: s.origin[h], Prev: s.prevNode[h], Hops: s.hops[h],
		Birth: s.birth[h], MovedTick: s.movedTick[h],
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
// time) and sizes the id→handle index. Every queue is emptied and the node
// and link lanes are reset; the decoder re-enqueues the residents.
func (s *Store) RestoreSnapshot(slots []SlotState, free []Handle, idBound ID) error {
	n := len(slots)
	s.id = make([]ID, n)
	s.load = make([]float64, n)
	s.flag = make([]float64, n)
	s.moving = make([]bool, n)
	s.origin = make([]int32, n)
	s.prevNode = make([]int32, n)
	s.node = make([]int32, n)
	s.next = make([]Handle, n)
	s.prev = make([]Handle, n)
	s.hops = make([]int32, n)
	s.birth = make([]int64, n)
	s.movedTick = make([]int64, n)
	if idBound < 0 {
		return fmt.Errorf("taskmodel: restore: negative id bound %d", idBound)
	}
	clear(s.queues)
	s.byID = make([]Handle, idBound)
	for i := range s.byID {
		s.byID[i] = NoHandle
	}
	live := 0
	for h, st := range slots {
		s.node[h] = -1
		s.next[h] = NoHandle
		s.prev[h] = NoHandle
		if st.ID < 0 {
			s.id[h] = -1
			s.prevNode[h] = -1
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
		s.prevNode[h] = st.Prev
		s.hops[h] = st.Hops
		s.birth[h] = st.Birth
		s.movedTick[h] = st.MovedTick
		s.byID[st.ID] = Handle(h)
		live++
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
	if live+len(s.free) != n {
		return fmt.Errorf("taskmodel: restore: %d live + %d free != %d slots", live, len(s.free), n)
	}
	return nil
}

// sparse is the task-keyed sparse matrix behind both T (columns are task
// ids) and R (columns are node ids): one entry per non-empty row, holding the
// row's columns in ascending order with aligned weights. set edits a row in
// place, so reads never write: concurrent readers (the parallel planning
// fan-out) are safe as long as nobody mutates the matrix mid-tick. The zero
// value is an empty matrix.
type sparse[C ID | int32] struct {
	rows map[ID]sparseRow[C]
}

type sparseRow[C ID | int32] struct {
	cols []C
	wts  []float64
}

// set records entry (a, c); weight 0 removes it, and a row left empty is
// deleted. Not safe for use concurrently with readers.
func (m *sparse[C]) set(a ID, c C, weight float64) {
	r := m.rows[a]
	i, ok := slices.BinarySearch(r.cols, c)
	switch {
	case ok && weight != 0:
		r.wts[i] = weight
		return
	case ok:
		r.cols = slices.Delete(r.cols, i, i+1)
		r.wts = slices.Delete(r.wts, i, i+1)
	case weight != 0:
		r.cols = slices.Insert(r.cols, i, c)
		r.wts = slices.Insert(r.wts, i, weight)
	default:
		return
	}
	switch {
	case len(r.cols) == 0:
		delete(m.rows, a)
	case m.rows == nil:
		m.rows = map[ID]sparseRow[C]{a: r}
	default:
		m.rows[a] = r
	}
}

// row returns row a as ascending columns and aligned weights (nil when a has
// no entries).
func (m *sparse[C]) row(a ID) ([]C, []float64) {
	r := m.rows[a]
	return r.cols, r.wts
}

// at returns entry (a, c), 0 when absent.
func (m *sparse[C]) at(a ID, c C) float64 {
	r := m.rows[a]
	if i, ok := slices.BinarySearch(r.cols, c); ok {
		return r.wts[i]
	}
	return 0
}

// firstNonFinite returns the NaN or infinite entry with the lowest row id
// (lowest column within that row), or ok false when every weight is finite.
func (m *sparse[C]) firstNonFinite() (a ID, c C, w float64, ok bool) {
	for id, r := range m.rows {
		if ok && id > a {
			continue
		}
		for i, x := range r.wts {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				a, c, w, ok = id, r.cols[i], x, true
				break
			}
		}
	}
	return a, c, w, ok
}

// Graph is the task-dependency graph T: Weight(a,b) is the communication
// demand between tasks a and b, stored symmetrically in a sparse matrix.
// The zero value (or nil pointer) is an empty graph, which every accessor
// treats as "no dependencies". Summation order over a row is ascending id,
// which makes µs float arithmetic independent of map iteration order.
type Graph struct{ m sparse[ID] }

// NewGraph returns an empty dependency graph.
func NewGraph() *Graph { return &Graph{} }

// SetDep records a symmetric dependency of the given weight between a and b.
// Setting weight 0 removes the dependency. Self-dependencies are ignored.
// Weights must be finite: the engine rejects a graph holding a NaN or
// infinite weight (see CheckFinite).
// Not safe for use concurrently with readers (build the graph before the
// simulation starts, or between ticks).
func (g *Graph) SetDep(a, b ID, weight float64) {
	if a == b || g == nil {
		return
	}
	g.m.set(a, b, weight)
	g.m.set(b, a, weight)
}

// Weight returns the dependency weight between a and b (0 when absent).
func (g *Graph) Weight(a, b ID) float64 {
	if g == nil {
		return 0
	}
	return g.m.at(a, b)
}

// Deps returns the ids that task a depends on, in ascending order.
func (g *Graph) Deps(a ID) []ID {
	if g == nil {
		return nil
	}
	cols, _ := g.m.row(a)
	return append([]ID(nil), cols...)
}

// WeightToQueue returns the summed dependency weight from a to tasks
// resident at node v of st — the Σ T term of the µs formula in §4.2, read
// with the store's O(1) dense membership index (two array loads per
// dependency, no hashing). This is the µs hot path.
func (g *Graph) WeightToQueue(a ID, st *Store, v int) float64 {
	if g == nil || st == nil || st.Queue(v).Len() == 0 {
		return 0
	}
	cols, wts := g.m.row(a)
	s := 0.0
	for i, b := range cols {
		if st.Has(v, b) {
			s += wts[i]
		}
	}
	return s
}

// NumDeps returns the number of dependency edges (each counted once).
func (g *Graph) NumDeps() int {
	if g == nil {
		return 0
	}
	n := 0
	for _, r := range g.m.rows {
		n += len(r.cols)
	}
	return n / 2
}

// CheckFinite returns an error naming the NaN or infinite dependency weight
// with the lowest row id, or nil when every weight is finite.
func (g *Graph) CheckFinite() error {
	if g == nil {
		return nil
	}
	if a, b, w, ok := g.m.firstNonFinite(); ok {
		return fmt.Errorf("taskmodel: dependency weight T(%d,%d) = %v is not finite", a, b, w)
	}
	return nil
}

// Resources is the R matrix of §4.2: Affinity(task, node) expresses how much
// the task depends on resources present at the node. It shares Graph's
// sparse matrix, with node ids as columns. The zero value (or nil pointer)
// is an empty matrix.
type Resources struct{ m sparse[int32] }

// NewResources returns an empty resource-affinity matrix.
func NewResources() *Resources { return &Resources{} }

// SetAffinity records the resource affinity of task t to node v; weight 0
// removes the entry. Weights must be finite: the engine rejects a matrix
// holding a NaN or infinite weight (see CheckFinite). Not safe for use
// concurrently with readers.
func (r *Resources) SetAffinity(t ID, v int, weight float64) {
	if r == nil {
		return
	}
	r.m.set(t, int32(v), weight)
}

// Affinity returns the resource affinity of task t to node v (0 when absent).
func (r *Resources) Affinity(t ID, v int) float64 {
	if r == nil {
		return 0
	}
	return r.m.at(t, int32(v))
}

// CheckFinite returns an error naming the NaN or infinite affinity with the
// lowest task id, or nil when every weight is finite.
func (r *Resources) CheckFinite() error {
	if r == nil {
		return nil
	}
	if t, v, w, ok := r.m.firstNonFinite(); ok {
		return fmt.Errorf("taskmodel: resource affinity R(%d,%d) = %v is not finite", t, v, w)
	}
	return nil
}

// Queue is the header of the multiset of tasks resident on one node, with
// the cached total load h(v) = Σ l_{v,k} of §4.2. The store owns one header
// per node and threads the residents through its next/prev lanes, head to
// tail in insertion order. The zero value is an empty queue.
type Queue struct {
	head, tail Handle // valid while n > 0
	n          int32
	total      float64
}

// Len returns the number of resident tasks.
func (q *Queue) Len() int { return int(q.n) }

// Total returns h(v): the summed load of resident tasks. A pure read:
// planning goroutines call it concurrently, so the drift guard lives in the
// mutating operations instead.
func (q *Queue) Total() float64 { return q.total }

// Front returns the oldest resident task, or NoHandle when the queue is
// empty. With Store.Next it is the in-order cursor over a node's tasks:
//
//	for h := q.Front(); h != NoHandle; h = st.Next(h) { … }
func (q *Queue) Front() Handle {
	if q.n == 0 {
		return NoHandle
	}
	return q.head
}

// clampDrift zeroes sub-nanoscale negative totals left by repeated float
// adds/removes. Called from mutating operations only, so read paths stay
// write-free and safe for the concurrent planning fan-out.
func (q *Queue) clampDrift() {
	if q.total < 0 && q.total > -1e-9 {
		q.total = 0
	}
}

// GrowNodes extends the queue headers to n nodes, new ones empty. The
// capacity is exact: append growth would over-allocate by up to a quarter.
func (s *Store) GrowNodes(n int) {
	if n > len(s.queues) {
		s.queues = append(make([]Queue, 0, n), s.queues...)[:n]
	}
}

// Queue returns node v's queue header; GrowNodes invalidates the pointer.
func (s *Store) Queue(v int) *Queue { return &s.queues[v] }

// Next returns the task queued behind h, or NoHandle at the tail.
func (s *Store) Next(h Handle) Handle { return s.next[h] }

// AppendHandles appends node v's residents to dst in insertion order, for
// callers that need a copy rather than the cursor.
func (s *Store) AppendHandles(dst []Handle, v int) []Handle {
	for h := s.queues[v].Front(); h != NoHandle; h = s.next[h] {
		dst = append(dst, h)
	}
	return dst
}

// Enqueue links task h, which must not be resident anywhere, at the tail of
// node v's queue.
func (s *Store) Enqueue(v int, h Handle) {
	q := &s.queues[v]
	s.next[h], s.prev[h] = NoHandle, NoHandle
	if q.n == 0 {
		q.head = h
	} else {
		s.next[q.tail], s.prev[h] = h, q.tail
	}
	q.tail = h
	q.n++
	q.total += s.load[h]
	s.node[h] = int32(v)
}

// unlink takes resident h out of q in O(1) and clears its node and link
// lanes; the caller adjusts the total.
func (s *Store) unlink(q *Queue, h Handle) {
	p, n := s.prev[h], s.next[h]
	if p == NoHandle {
		q.head = n
	} else {
		s.next[p] = n
	}
	if n == NoHandle {
		q.tail = p
	} else {
		s.prev[n] = p
	}
	q.n--
	s.node[h], s.next[h], s.prev[h] = -1, NoHandle, NoHandle
}

// Remove deletes the task with the given id from node v's queue in O(1),
// keeping the order of the rest, and returns its handle, or NoHandle when it
// is not resident there.
func (s *Store) Remove(v int, id ID) Handle {
	if !s.Has(v, id) {
		return NoHandle
	}
	h, q := s.byID[id], &s.queues[v]
	s.unlink(q, h)
	q.total -= s.load[h]
	q.clampDrift()
	return h
}

// Has reports whether the task with the given id is resident at node v
// (O(1): the dense id index plus the node lane).
func (s *Store) Has(v int, id ID) bool {
	h := s.HandleOf(id)
	return h >= 0 && s.node[h] == int32(v)
}

// RestoreTotal overwrites node v's cached total with exact serialized bits:
// the total is accumulated state, and re-enqueueing the residents can sum
// them differently in the last ulp.
func (s *Store) RestoreTotal(v int, total float64) { s.queues[v].total = total }

// ConsumeServiceInto removes up to amount of load from the front of node v's
// queue (FIFO), completing tasks whose load is fully consumed, and returns
// done with the completed tasks' handles appended plus the load actually
// consumed. Partial consumption reduces a task's remaining load in place.
// This models node service capacity in the non-quiescent experiments. done
// may be nil or a reused batch buffer: the engine's sharded service phase
// drains a whole shard of queues into one buffer without allocating.
// Completed tasks leave the queue but stay alive in the store until the
// caller releases them; the store keeps no completion tick, so the caller
// books it.
func (s *Store) ConsumeServiceInto(v int, amount float64, done []Handle) ([]Handle, float64) {
	q := &s.queues[v]
	consumed := 0.0
	for amount > 0 && q.n > 0 {
		h := q.head
		load := s.load[h]
		if load <= amount {
			amount -= load
			consumed += load
			q.total -= load
			s.unlink(q, h)
			done = append(done, h)
		} else {
			s.load[h] = load - amount
			q.total -= amount
			consumed += amount
			amount = 0
		}
	}
	q.clampDrift()
	return done, consumed
}

// CheckQueue brute-force audits node v's queue against the store: the links
// form one list (each prev mirroring the next that reached it, ending at the
// tail, as long as the count), every resident is alive, round-trips through
// the id index and has v in its node lane, loads are positive, and the cached
// total is a number, not below -1e-9, and matches a fresh scan. The walk
// stops after Cap steps, so a cyclic list is reported, never followed
// forever. Harness/test use.
func (s *Store) CheckQueue(v int) error {
	q := &s.queues[v]
	sum, count, prev := 0.0, 0, NoHandle
	for h := q.Front(); h != NoHandle; h = s.next[h] {
		if count == len(s.id) {
			return fmt.Errorf("list runs past %d arena slots (cycle)", len(s.id))
		}
		if h < 0 || int(h) >= len(s.id) {
			return fmt.Errorf("position %d: handle %d out of range", count, h)
		}
		if s.prev[h] != prev {
			return fmt.Errorf("position %d: handle %d has prev link %d, reached from %d", count, h, s.prev[h], prev)
		}
		if id := s.id[h]; id < 0 || s.HandleOf(id) != h {
			return fmt.Errorf("position %d: handle %d is dead or not its id's (%d) handle", count, h, id)
		}
		if s.node[h] != int32(v) {
			return fmt.Errorf("task %d: node lane %d, resident at %d", s.id[h], s.node[h], v)
		}
		if !(s.load[h] > 0) {
			return fmt.Errorf("task %d: load %g", s.id[h], s.load[h])
		}
		sum += s.load[h]
		count++
		prev = h
	}
	if count != int(q.n) || count > 0 && q.tail != prev {
		return fmt.Errorf("count %d, tail %d, but %d linked residents ending at %d", q.n, q.tail, count, prev)
	}
	if !(q.total >= -1e-9) { // NaN or negative
		return fmt.Errorf("cached total %g", q.total)
	}
	if d := sum - q.total; d > 1e-6+1e-9*sum || d < -(1e-6+1e-9*sum) {
		return fmt.Errorf("cached total %g but scan %g", q.total, sum)
	}
	return nil
}
