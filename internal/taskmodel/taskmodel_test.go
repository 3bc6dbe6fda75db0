package taskmodel

import (
	"math"
	"testing"
	"testing/quick"

	"pplb/internal/rng"
)

func TestNewTask(t *testing.T) {
	st := NewStore()
	h := st.Create(7, 2.5, 3, 11)
	if st.ID(h) != 7 || st.Load(h) != 2.5 || st.Origin(h) != 3 || st.Birth(h) != 11 {
		t.Fatalf("bad task: %+v", st.SlotStateAt(h))
	}
	if st.Done(h) != -1 {
		t.Fatal("new task must not be done")
	}
	if st.Moving(h) {
		t.Fatal("new task must be stationary")
	}
	if st.Node(h) != -1 || st.Slot(h) != -1 {
		t.Fatal("new task must not be enqueued")
	}
}

func TestGraphSymmetry(t *testing.T) {
	g := NewGraph()
	g.SetDep(1, 2, 3.5)
	if g.Weight(1, 2) != 3.5 || g.Weight(2, 1) != 3.5 {
		t.Fatal("dependency must be symmetric")
	}
	if g.Weight(1, 3) != 0 {
		t.Fatal("absent dependency must be 0")
	}
}

func TestGraphSelfDepIgnored(t *testing.T) {
	g := NewGraph()
	g.SetDep(1, 1, 5)
	if g.Weight(1, 1) != 0 {
		t.Fatal("self-dependency must be ignored")
	}
}

func TestGraphRemove(t *testing.T) {
	g := NewGraph()
	g.SetDep(1, 2, 1)
	g.SetDep(1, 2, 0)
	if g.Weight(1, 2) != 0 || g.NumDeps() != 0 {
		t.Fatal("zero weight must remove dependency")
	}
}

func TestGraphDepsSorted(t *testing.T) {
	g := NewGraph()
	g.SetDep(5, 9, 1)
	g.SetDep(5, 2, 1)
	g.SetDep(5, 7, 1)
	deps := g.Deps(5)
	if len(deps) != 3 || deps[0] != 2 || deps[1] != 7 || deps[2] != 9 {
		t.Fatalf("Deps not sorted: %v", deps)
	}
}

func TestGraphTotalAndSetWeight(t *testing.T) {
	g := NewGraph()
	g.SetDep(1, 2, 2)
	g.SetDep(1, 3, 3)
	g.SetDep(2, 3, 10)
	if g.TotalWeight(1) != 5 {
		t.Fatalf("TotalWeight = %v", g.TotalWeight(1))
	}
	st, q := newTestQueue()
	if w := g.WeightToQueue(1, q); w != 0 {
		t.Fatalf("WeightToQueue(empty) = %v", w)
	}
	addTask(st, q, 2, 1)
	if w := g.WeightToQueue(1, q); w != 2 {
		t.Fatalf("WeightToQueue = %v", w)
	}
	addTask(st, q, 3, 1)
	if w := g.WeightToQueue(1, q); w != 5 {
		t.Fatalf("WeightToQueue = %v", w)
	}
}

func TestNilGraphSafe(t *testing.T) {
	var g *Graph
	if g.Weight(1, 2) != 0 || g.TotalWeight(1) != 0 || g.NumDeps() != 0 {
		t.Fatal("nil graph accessors must be safe zeros")
	}
	if g.Deps(1) != nil {
		t.Fatal("nil graph Deps must be nil")
	}
	g.SetDep(1, 2, 3) // must not panic
}

func TestZeroValueGraph(t *testing.T) {
	var g Graph
	g.SetDep(1, 2, 4)
	if g.Weight(1, 2) != 4 {
		t.Fatal("zero-value Graph must be usable")
	}
}

func TestResources(t *testing.T) {
	r := NewResources()
	r.SetAffinity(1, 3, 2.5)
	if r.Affinity(1, 3) != 2.5 {
		t.Fatal("affinity not stored")
	}
	if r.Affinity(1, 4) != 0 || r.Affinity(2, 3) != 0 {
		t.Fatal("absent affinity must be 0")
	}
	r.SetAffinity(1, 3, 0)
	if r.Affinity(1, 3) != 0 {
		t.Fatal("zero affinity must remove")
	}
	var nilr *Resources
	if nilr.Affinity(1, 1) != 0 {
		t.Fatal("nil Resources must be safe")
	}
	nilr.SetAffinity(1, 1, 1) // must not panic
}

// newTestQueue binds a fresh queue to a fresh store (node 0).
func newTestQueue() (*Store, *Queue) {
	st := NewStore()
	q := &Queue{}
	q.Init(st, 0)
	return st, q
}

// addTask creates a task in st and enqueues it.
func addTask(st *Store, q *Queue, id ID, load float64) Handle {
	h := st.Create(id, load, 0, 0)
	q.Add(h)
	return h
}

func TestQueueAddRemove(t *testing.T) {
	st, q := newTestQueue()
	a := addTask(st, q, 1, 2)
	addTask(st, q, 2, 3)
	if q.Len() != 2 || q.Total() != 5 {
		t.Fatalf("Len/Total = %d/%v", q.Len(), q.Total())
	}
	if !q.Has(1) || q.Has(9) {
		t.Fatal("Has wrong")
	}
	got := q.Remove(1)
	if got != a {
		t.Fatal("Remove returned wrong handle")
	}
	if q.Len() != 1 || q.Total() != 3 || q.Has(1) {
		t.Fatal("Remove did not update state")
	}
	if q.Remove(42) != NoHandle {
		t.Fatal("Remove of absent id must return NoHandle")
	}
	if err := q.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRecycle(t *testing.T) {
	st := NewStore()
	a := st.Create(0, 1, 3, 5)
	b := st.Create(1, 2, 0, 0)
	if st.Live() != 2 || st.Cap() != 2 {
		t.Fatalf("Live/Cap = %d/%d", st.Live(), st.Cap())
	}
	if st.HandleOf(0) != a || st.HandleOf(1) != b || st.HandleOf(7) != NoHandle {
		t.Fatal("HandleOf wrong")
	}
	if st.Origin(a) != 3 || st.Birth(a) != 5 || st.Prev(a) != -1 || st.Done(a) != -1 {
		t.Fatalf("lane defaults wrong: %+v", st.SlotStateAt(a))
	}
	st.Release(a)
	if st.Alive(a) || st.ID(a) != -1 || st.HandleOf(0) != NoHandle || st.Live() != 1 {
		t.Fatal("Release must kill the slot and the id index entry")
	}
	// The freed slot is recycled (LIFO) with fully reset lanes.
	st.SetMovedTick(b, 9) // unrelated slot untouched by recycling
	c := st.Create(2, 4, 1, 8)
	if c != a {
		t.Fatalf("recycled handle = %d, want %d", c, a)
	}
	if st.ID(c) != 2 || st.Load(c) != 4 || st.Origin(c) != 1 || st.Birth(c) != 8 ||
		st.Moving(c) || st.Hops(c) != 0 || st.Prev(c) != -1 || st.MovedTick(c) != -1 {
		t.Fatalf("recycled slot not reset: %+v", st.SlotStateAt(c))
	}
	if st.MovedTick(b) != 9 {
		t.Fatal("recycling clobbered another slot")
	}
	if st.Cap() != 2 || st.Live() != 2 {
		t.Fatalf("Cap/Live after recycle = %d/%d", st.Cap(), st.Live())
	}
}

func TestQueueConsumeService(t *testing.T) {
	st, q := newTestQueue()
	addTask(st, q, 1, 2)
	addTask(st, q, 2, 3)
	done, consumed := q.ConsumeServiceInto(4, 10, nil)
	if consumed != 4 {
		t.Fatalf("consumed = %v", consumed)
	}
	if len(done) != 1 || st.ID(done[0]) != 1 {
		t.Fatalf("done = %v", done)
	}
	if st.Done(done[0]) != 10 {
		t.Fatal("completed task must record Done tick")
	}
	if q.Len() != 1 || math.Abs(q.Total()-1) > 1e-12 {
		t.Fatalf("queue after service: len=%d total=%v", q.Len(), q.Total())
	}
	// Remaining task partially consumed.
	if rest := st.Load(q.Handles()[0]); math.Abs(rest-1) > 1e-12 {
		t.Fatalf("partial consumption wrong: %v", rest)
	}
}

func TestQueueConsumeMoreThanAvailable(t *testing.T) {
	st, q := newTestQueue()
	addTask(st, q, 1, 2)
	done, consumed := q.ConsumeServiceInto(10, 0, nil)
	if consumed != 2 || len(done) != 1 || q.Len() != 0 || q.Total() != 0 {
		t.Fatal("consuming more than available must drain exactly the queue")
	}
}

// Property: Total always equals the sum of resident loads after arbitrary
// add/remove/consume sequences.
func TestQueueTotalInvariantQuick(t *testing.T) {
	r := rng.New(2024)
	f := func(ops []uint8) bool {
		st, q := newTestQueue()
		nextID := ID(1)
		for _, op := range ops {
			switch op % 3 {
			case 0:
				addTask(st, q, nextID, float64(op%7)+0.5)
				nextID++
			case 1:
				if q.Len() > 0 {
					victim := st.ID(q.Handles()[r.Intn(q.Len())])
					st.Release(q.Remove(victim))
				}
			case 2:
				done, _ := q.ConsumeServiceInto(float64(op%5), 0, nil)
				for _, h := range done {
					st.Release(h)
				}
			}
			want := 0.0
			for _, h := range q.Handles() {
				want += st.Load(h)
			}
			if math.Abs(q.Total()-want) > 1e-9 {
				return false
			}
			if q.Len() != len(q.Handles()) {
				return false
			}
			if err := q.CheckConsistency(); err != nil {
				return false
			}
			if q.Len() != st.Live() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQueueAddRemove(b *testing.B) {
	st, q := newTestQueue()
	for i := 0; i < b.N; i++ {
		addTask(st, q, ID(i), 1)
		if q.Len() > 64 {
			h := q.Handles()[0]
			st.Release(q.Remove(st.ID(h)))
		}
	}
}

func TestWeightToQueue(t *testing.T) {
	g := NewGraph()
	g.SetDep(1, 2, 2)
	g.SetDep(1, 3, 3)
	g.SetDep(1, 4, 5)
	g.SetDep(2, 3, 7)
	st, q := newTestQueue()
	addTask(st, q, 2, 1)
	addTask(st, q, 4, 1)
	// Tasks 2 and 4 are resident: only their edges count.
	for id, want := range map[ID]float64{1: 7, 2: 0, 3: 7, 99: 0} {
		if got := g.WeightToQueue(id, q); got != want {
			t.Fatalf("task %d: WeightToQueue=%v, want %v", id, got, want)
		}
	}
	if got := g.WeightToQueue(1, nil); got != 0 {
		t.Fatalf("nil queue: got %v", got)
	}
	if got := (*Graph)(nil).WeightToQueue(1, q); got != 0 {
		t.Fatalf("nil graph: got %v", got)
	}
}

func TestGraphLazyRebuildAfterMutation(t *testing.T) {
	g := NewGraph()
	g.SetDep(1, 2, 2)
	if w := g.TotalWeight(1); w != 2 {
		t.Fatalf("TotalWeight = %v, want 2", w)
	}
	// Mutate after a read: the flat adjacency must refresh.
	g.SetDep(1, 3, 5)
	if w := g.TotalWeight(1); w != 7 {
		t.Fatalf("TotalWeight after mutation = %v, want 7", w)
	}
	g.SetDep(1, 2, 0)
	if w := g.TotalWeight(1); w != 5 {
		t.Fatalf("TotalWeight after removal = %v, want 5", w)
	}
	if n := g.NumDeps(); n != 1 {
		t.Fatalf("NumDeps = %d, want 1", n)
	}
}

// Interleaved Add/Remove/ConsumeServiceInto must preserve FIFO order and keep the
// id index, total and Len consistent — this exercises the head-offset layout.
func TestQueueInterleavedOps(t *testing.T) {
	st, q := newTestQueue()
	for i := 0; i < 40; i++ {
		addTask(st, q, ID(i), 1)
	}
	// Consume a long prefix one task at a time to advance head far enough to
	// trigger compaction.
	for i := 0; i < 25; i++ {
		done, consumed := q.ConsumeServiceInto(1, 0, nil)
		if len(done) != 1 || st.ID(done[0]) != ID(i) || consumed != 1 {
			t.Fatalf("consume %d: done=%v consumed=%v", i, done, consumed)
		}
		st.Release(done[0])
	}
	if q.Len() != 15 {
		t.Fatalf("Len = %d, want 15", q.Len())
	}
	// Remove from the middle of the surviving window.
	if got := q.Remove(30); got < 0 || st.ID(got) != 30 {
		t.Fatalf("Remove(30) = %v", got)
	} else {
		st.Release(got)
	}
	if q.Has(30) {
		t.Fatal("removed id still reported resident")
	}
	// FIFO order intact, index consistent.
	want := []ID{25, 26, 27, 28, 29, 31, 32, 33, 34, 35, 36, 37, 38, 39}
	hs := q.Handles()
	if len(hs) != len(want) {
		t.Fatalf("Len = %d, want %d", len(hs), len(want))
	}
	for i, id := range want {
		if st.ID(hs[i]) != id {
			t.Fatalf("slot %d: got id %d, want %d", i, st.ID(hs[i]), id)
		}
		if !q.Has(id) {
			t.Fatalf("Has(%d) = false for resident task", id)
		}
	}
	if err := q.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Remove/re-add every task: the index must stay consistent throughout,
	// and released slots recycle through the free-list.
	for _, id := range want {
		got := q.Remove(id)
		if got < 0 || st.ID(got) != id {
			t.Fatalf("Remove(%d) = %v", id, got)
		}
		if q.Has(id) {
			t.Fatalf("Has(%d) = true after removal", id)
		}
		st.Release(got)
		addTask(st, q, id, 1)
		if !q.Has(id) {
			t.Fatalf("Has(%d) = false after re-add", id)
		}
	}
	if q.Total() != float64(len(want)) {
		t.Fatalf("Total = %v, want %v", q.Total(), len(want))
	}
	if q.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", q.Len(), len(want))
	}
	if err := q.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if st.Live() != len(want) {
		t.Fatalf("Live = %d, want %d", st.Live(), len(want))
	}
}

// ConsumeServiceInto must append completions to the caller's reused buffer
// (no allocation once warm) and accept a nil buffer as well.
func TestQueueConsumeServiceInto(t *testing.T) {
	st, q := newTestQueue()
	for i := 0; i < 4; i++ {
		addTask(st, q, ID(i), 1)
	}
	marker := st.Create(100, 1, 0, 0) // never enqueued
	buf := make([]Handle, 0, 8)
	buf = append(buf, marker) // pre-existing entries survive
	done, consumed := q.ConsumeServiceInto(2.5, 9, buf)
	if consumed != 2.5 {
		t.Fatalf("consumed = %v, want 2.5", consumed)
	}
	if len(done) != 3 || st.ID(done[0]) != 100 || st.ID(done[1]) != 0 || st.ID(done[2]) != 1 {
		t.Fatalf("done = %v, want ids [100 0 1] appended in FIFO order", done)
	}
	if st.Done(done[1]) != 9 || st.Done(done[2]) != 9 {
		t.Fatal("completed tasks must be stamped with the service tick")
	}
	if q.Len() != 2 || q.Total() != 1.5 {
		t.Fatalf("queue after partial service: len=%d total=%v, want 2, 1.5", q.Len(), q.Total())
	}
	// A nil buffer allocates a fresh one.
	done2, consumed2 := q.ConsumeServiceInto(10, 11, nil)
	if consumed2 != 1.5 || len(done2) != 2 {
		t.Fatalf("nil-buffer drain: done=%d consumed=%v", len(done2), consumed2)
	}
}

// MovedTick starts unset and is engine-owned bookkeeping; the slot state a
// snapshot encodes must carry it.
func TestTaskMovedTick(t *testing.T) {
	st := NewStore()
	h := st.Create(1, 2, 3, 4)
	if st.MovedTick(h) != -1 {
		t.Fatalf("fresh task MovedTick = %d, want -1", st.MovedTick(h))
	}
	st.SetMovedTick(h, 17)
	if got := st.SlotStateAt(h).MovedTick; got != 17 {
		t.Fatalf("slot state dropped MovedTick: %d", got)
	}
}
