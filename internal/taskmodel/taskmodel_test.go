package taskmodel

import (
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"pplb/internal/rng"
)

func TestNewTask(t *testing.T) {
	st := NewStore()
	h := st.Create(7, 2.5, 3, 11)
	if st.ID(h) != 7 || st.Load(h) != 2.5 || st.Origin(h) != 3 || st.Birth(h) != 11 {
		t.Fatalf("bad task: %+v", st.SlotStateAt(h))
	}
	if st.Moving(h) {
		t.Fatal("new task must be stationary")
	}
	if st.Node(h) != -1 || st.Next(h) != NoHandle || st.prev[h] != NoHandle {
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
	if d := g.Deps(1); !slices.Equal(d, []ID{2, 3}) || g.NumDeps() != 3 {
		t.Fatalf("Deps(1) = %v, NumDeps = %d", d, g.NumDeps())
	}
	st, _ := newTestQueue()
	if w := g.WeightToQueue(1, st, 0); w != 0 {
		t.Fatalf("WeightToQueue(empty) = %v", w)
	}
	addTask(st, 2, 1)
	if w := g.WeightToQueue(1, st, 0); w != 2 {
		t.Fatalf("WeightToQueue = %v", w)
	}
	addTask(st, 3, 1)
	if w := g.WeightToQueue(1, st, 0); w != 5 {
		t.Fatalf("WeightToQueue = %v", w)
	}
}

func TestNilGraphSafe(t *testing.T) {
	var g *Graph
	if g.Weight(1, 2) != 0 || g.NumDeps() != 0 {
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

// newTestQueue returns a fresh store with one node and that node's queue.
func newTestQueue() (*Store, *Queue) {
	st := NewStore()
	st.GrowNodes(1)
	return st, st.Queue(0)
}

// addTask creates a task in st and enqueues it at node 0.
func addTask(st *Store, id ID, load float64) Handle {
	h := st.Create(id, load, 0, 0)
	st.Enqueue(0, h)
	return h
}

func TestQueueAddRemove(t *testing.T) {
	st, q := newTestQueue()
	a := addTask(st, 1, 2)
	addTask(st, 2, 3)
	if q.Len() != 2 || q.Total() != 5 {
		t.Fatalf("Len/Total = %d/%v", q.Len(), q.Total())
	}
	if !st.Has(0, 1) || st.Has(0, 9) {
		t.Fatal("Has wrong")
	}
	got := st.Remove(0, 1)
	if got != a {
		t.Fatal("Remove returned wrong handle")
	}
	if q.Len() != 1 || q.Total() != 3 || st.Has(0, 1) {
		t.Fatal("Remove did not update state")
	}
	if st.Remove(0, 42) != NoHandle {
		t.Fatal("Remove of absent id must return NoHandle")
	}
	if err := st.CheckQueue(0); err != nil {
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
	if st.Origin(a) != 3 || st.Birth(a) != 5 || st.Prev(a) != -1 {
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
	addTask(st, 1, 2)
	addTask(st, 2, 3)
	done, consumed := st.ConsumeServiceInto(0, 4, nil)
	if consumed != 4 {
		t.Fatalf("consumed = %v", consumed)
	}
	if len(done) != 1 || st.ID(done[0]) != 1 {
		t.Fatalf("done = %v", done)
	}
	if q.Len() != 1 || math.Abs(q.Total()-1) > 1e-12 {
		t.Fatalf("queue after service: len=%d total=%v", q.Len(), q.Total())
	}
	// Remaining task partially consumed.
	if rest := st.Load(st.AppendHandles(nil, 0)[0]); math.Abs(rest-1) > 1e-12 {
		t.Fatalf("partial consumption wrong: %v", rest)
	}
}

func TestQueueConsumeMoreThanAvailable(t *testing.T) {
	st, q := newTestQueue()
	addTask(st, 1, 2)
	done, consumed := st.ConsumeServiceInto(0, 10, nil)
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
				addTask(st, nextID, float64(op%7)+0.5)
				nextID++
			case 1:
				if q.Len() > 0 {
					victim := st.ID(st.AppendHandles(nil, 0)[r.Intn(q.Len())])
					st.Release(st.Remove(0, victim))
				}
			case 2:
				done, _ := st.ConsumeServiceInto(0, float64(op%5), nil)
				for _, h := range done {
					st.Release(h)
				}
			}
			want := 0.0
			for _, h := range st.AppendHandles(nil, 0) {
				want += st.Load(h)
			}
			if math.Abs(q.Total()-want) > 1e-9 {
				return false
			}
			if q.Len() != len(st.AppendHandles(nil, 0)) {
				return false
			}
			if err := st.CheckQueue(0); err != nil {
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
		addTask(st, ID(i), 1)
		if q.Len() > 64 {
			h := st.AppendHandles(nil, 0)[0]
			st.Release(st.Remove(0, st.ID(h)))
		}
	}
}

func TestWeightToQueue(t *testing.T) {
	g := NewGraph()
	g.SetDep(1, 2, 2)
	g.SetDep(1, 3, 3)
	g.SetDep(1, 4, 5)
	g.SetDep(2, 3, 7)
	st, _ := newTestQueue()
	addTask(st, 2, 1)
	addTask(st, 4, 1)
	// Tasks 2 and 4 are resident: only their edges count.
	for id, want := range map[ID]float64{1: 7, 2: 0, 3: 7, 99: 0} {
		if got := g.WeightToQueue(id, st, 0); got != want {
			t.Fatalf("task %d: WeightToQueue=%v, want %v", id, got, want)
		}
	}
	if got := g.WeightToQueue(1, nil, 0); got != 0 {
		t.Fatalf("nil store: got %v", got)
	}
	if got := (*Graph)(nil).WeightToQueue(1, st, 0); got != 0 {
		t.Fatalf("nil graph: got %v", got)
	}
}

func TestGraphLazyRebuildAfterMutation(t *testing.T) {
	g := NewGraph()
	g.SetDep(1, 2, 2)
	if w := g.Weight(1, 2); w != 2 {
		t.Fatalf("Weight = %v, want 2", w)
	}
	// Mutate after a read: the flat adjacency must refresh.
	g.SetDep(1, 3, 5)
	if d := g.Deps(1); !slices.Equal(d, []ID{2, 3}) || g.Weight(1, 3) != 5 {
		t.Fatalf("after mutation: Deps = %v, Weight(1,3) = %v", d, g.Weight(1, 3))
	}
	g.SetDep(1, 2, 0)
	if d := g.Deps(1); !slices.Equal(d, []ID{3}) || g.Weight(1, 2) != 0 {
		t.Fatalf("after removal: Deps = %v, Weight(1,2) = %v", d, g.Weight(1, 2))
	}
	if n := g.NumDeps(); n != 1 {
		t.Fatalf("NumDeps = %d, want 1", n)
	}
}

// Interleaved Enqueue/Remove/ConsumeServiceInto must preserve FIFO order and
// keep the id index, total and Len consistent.
func TestQueueInterleavedOps(t *testing.T) {
	st, q := newTestQueue()
	for i := 0; i < 40; i++ {
		addTask(st, ID(i), 1)
	}
	// Consume a long prefix one task at a time.
	for i := 0; i < 25; i++ {
		done, consumed := st.ConsumeServiceInto(0, 1, nil)
		if len(done) != 1 || st.ID(done[0]) != ID(i) || consumed != 1 {
			t.Fatalf("consume %d: done=%v consumed=%v", i, done, consumed)
		}
		st.Release(done[0])
	}
	if q.Len() != 15 {
		t.Fatalf("Len = %d, want 15", q.Len())
	}
	// Remove from the middle of the surviving window.
	if got := st.Remove(0, 30); got < 0 || st.ID(got) != 30 {
		t.Fatalf("Remove(30) = %v", got)
	} else {
		st.Release(got)
	}
	if st.Has(0, 30) {
		t.Fatal("removed id still reported resident")
	}
	// FIFO order intact, index consistent.
	want := []ID{25, 26, 27, 28, 29, 31, 32, 33, 34, 35, 36, 37, 38, 39}
	hs := st.AppendHandles(nil, 0)
	if len(hs) != len(want) {
		t.Fatalf("Len = %d, want %d", len(hs), len(want))
	}
	for i, id := range want {
		if st.ID(hs[i]) != id {
			t.Fatalf("slot %d: got id %d, want %d", i, st.ID(hs[i]), id)
		}
		if !st.Has(0, id) {
			t.Fatalf("Has(%d) = false for resident task", id)
		}
	}
	if err := st.CheckQueue(0); err != nil {
		t.Fatal(err)
	}
	// Remove/re-add every task: the index must stay consistent throughout,
	// and released slots recycle through the free-list.
	for _, id := range want {
		got := st.Remove(0, id)
		if got < 0 || st.ID(got) != id {
			t.Fatalf("Remove(%d) = %v", id, got)
		}
		if st.Has(0, id) {
			t.Fatalf("Has(%d) = true after removal", id)
		}
		st.Release(got)
		addTask(st, id, 1)
		if !st.Has(0, id) {
			t.Fatalf("Has(%d) = false after re-add", id)
		}
	}
	if q.Total() != float64(len(want)) {
		t.Fatalf("Total = %v, want %v", q.Total(), len(want))
	}
	if q.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", q.Len(), len(want))
	}
	if err := st.CheckQueue(0); err != nil {
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
		addTask(st, ID(i), 1)
	}
	marker := st.Create(100, 1, 0, 0) // never enqueued
	buf := make([]Handle, 0, 8)
	buf = append(buf, marker) // pre-existing entries survive
	done, consumed := st.ConsumeServiceInto(0, 2.5, buf)
	if consumed != 2.5 {
		t.Fatalf("consumed = %v, want 2.5", consumed)
	}
	if len(done) != 3 || st.ID(done[0]) != 100 || st.ID(done[1]) != 0 || st.ID(done[2]) != 1 {
		t.Fatalf("done = %v, want ids [100 0 1] appended in FIFO order", done)
	}
	if q.Len() != 2 || q.Total() != 1.5 {
		t.Fatalf("queue after partial service: len=%d total=%v, want 2, 1.5", q.Len(), q.Total())
	}
	// A nil buffer allocates a fresh one.
	done2, consumed2 := st.ConsumeServiceInto(0, 10, nil)
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

// T and R against a plain-map oracle, on a compact id set and on ids spread
// to ±10¹². Every step mutates — set, overwrite, remove or re-add — and then
// reads every entry back.
func TestSparseMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		name     string
		ids      []ID // ascending
		resident []ID
	}{
		{"compact", []ID{0, 1, 2, 3, 5, 8, 13}, []ID{1, 3, 8}},
		{"spread", []ID{-1_000_000_000_000, -3, 5000, 1_000_000, 1_000_000_000_000}, []ID{5000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := []int{-2, 0, 3, 1 << 20}
			absent := ID(4)
			g, res := NewGraph(), NewResources()
			wantT := map[[2]ID]float64{}
			wantR := map[ID]map[int]float64{}
			st, _ := newTestQueue()
			for _, id := range tc.resident {
				addTask(st, id, 1)
			}
			r := rng.New(7)
			weights := []float64{0, 0.5, 1.25, 3}
			for step := 0; step < 300; step++ {
				x, y := tc.ids[r.Intn(len(tc.ids))], tc.ids[r.Intn(len(tc.ids))]
				w := weights[r.Intn(len(weights))]
				g.SetDep(x, y, w)
				if x != y {
					wantT[[2]ID{x, y}], wantT[[2]ID{y, x}] = w, w
				}
				v := nodes[r.Intn(len(nodes))]
				res.SetAffinity(x, v, w)
				if wantR[x] == nil {
					wantR[x] = map[int]float64{}
				}
				wantR[x][v] = w

				edges := 0
				for _, a := range append([]ID{absent}, tc.ids...) {
					var deps []ID
					toQueue := 0.0
					for _, b := range tc.ids { // ascending: the summation order
						want := wantT[[2]ID{a, b}]
						if got := g.Weight(a, b); got != want {
							t.Fatalf("step %d: Weight(%d,%d) = %v, want %v", step, a, b, got, want)
						}
						if want != 0 {
							deps = append(deps, b)
							if st.Has(0, b) {
								toQueue += want
							}
						}
					}
					edges += len(deps)
					if got := g.Deps(a); !slices.Equal(got, deps) {
						t.Fatalf("step %d: Deps(%d) = %v, want %v", step, a, got, deps)
					}
					if got := g.WeightToQueue(a, st, 0); got != toQueue {
						t.Fatalf("step %d: WeightToQueue(%d) = %v, want %v", step, a, got, toQueue)
					}
					for _, v := range append([]int{1}, nodes...) {
						if got, want := res.Affinity(a, v), wantR[a][v]; got != want {
							t.Fatalf("step %d: Affinity(%d,%d) = %v, want %v", step, a, v, got, want)
						}
					}
				}
				if got := g.NumDeps(); got != edges/2 {
					t.Fatalf("step %d: NumDeps = %d, want %d", step, got, edges/2)
				}
			}
		})
	}
}

// Concurrent reads after a batch of mutations must each see the answers a
// sequential read gives: reads never write.
func TestSparseParallelFirstRead(t *testing.T) {
	const tasks, readers = 64, 8
	g, res := NewGraph(), NewResources()
	st, _ := newTestQueue()
	for id := ID(0); id < tasks; id += 3 {
		addTask(st, id, 1)
	}
	readAll := func() []float64 {
		out := []float64{float64(g.NumDeps())}
		for a := ID(0); a < tasks; a++ {
			out = append(out, g.WeightToQueue(a, st, 0), g.Weight(a, (a+1)%tasks), res.Affinity(a, int(a%5)))
			for _, b := range g.Deps(a) {
				out = append(out, float64(b))
			}
		}
		return out
	}
	r := rng.New(11)
	for round := 0; round < 20; round++ {
		for i := 0; i < 50; i++ {
			a, b := ID(r.Intn(tasks)), ID(r.Intn(tasks))
			g.SetDep(a, b, float64(r.Intn(4)))
			res.SetAffinity(a, r.Intn(5), float64(r.Intn(4)))
		}
		got := make([][]float64, readers)
		var start, wg sync.WaitGroup
		start.Add(1)
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				start.Wait()
				got[i] = readAll()
			}()
		}
		start.Done()
		wg.Wait()
		want := readAll()
		for i := range got {
			if !slices.Equal(got[i], want) {
				t.Fatalf("round %d: reader %d saw %v, sequential read %v", round, i, got[i], want)
			}
		}
	}
}

// The per-node queue header is the whole per-node cost of residency: head,
// tail and count handles plus the cached total.
func TestQueueHeaderSize(t *testing.T) {
	if got := unsafe.Sizeof(Queue{}); got != 24 {
		t.Fatalf("Queue header is %d bytes, want 24", got)
	}
}

// CheckQueue must report every way the link lanes can be corrupted, and
// return rather than follow a cyclic list forever.
func TestCheckQueueDetectsCorruptLinks(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(st *Store, hs []Handle)
	}{
		{"cycle", func(st *Store, hs []Handle) { st.next[hs[3]] = hs[1] }},
		{"self-loop", func(st *Store, hs []Handle) {
			st.next[hs[2]], st.prev[hs[2]] = hs[2], hs[2]
		}},
		{"wrong prev", func(st *Store, hs []Handle) { st.prev[hs[2]] = hs[0] }},
		{"head with a prev", func(st *Store, hs []Handle) { st.prev[hs[0]] = hs[3] }},
		{"stale tail", func(st *Store, hs []Handle) { st.queues[0].tail = hs[2] }},
		{"count too high", func(st *Store, hs []Handle) { st.queues[0].n++ }},
		{"count too low", func(st *Store, hs []Handle) { st.queues[0].n-- }},
		{"negative count", func(st *Store, hs []Handle) { st.queues[0].n = -1 }},
		{"truncated list", func(st *Store, hs []Handle) { st.next[hs[1]] = NoHandle }},
		{"link out of range", func(st *Store, hs []Handle) { st.next[hs[1]] = Handle(st.Cap() + 5) }},
		{"link to a dead slot", func(st *Store, hs []Handle) {
			st.Release(hs[4])
			st.next[hs[1]], st.prev[hs[4]] = hs[4], hs[1]
		}},
		{"node lane elsewhere", func(st *Store, hs []Handle) { st.node[hs[1]] = 1 }},
		{"total drift", func(st *Store, hs []Handle) { st.queues[0].total += 1 }},
		{"NaN total", func(st *Store, hs []Handle) { st.queues[0].total = math.NaN() }},
		{"negative total", func(st *Store, hs []Handle) { st.queues[0].total = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewStore()
			st.GrowNodes(2)
			var hs []Handle
			for id := ID(0); id < 4; id++ {
				hs = append(hs, addTask(st, id, 1))
			}
			hs = append(hs, st.Create(4, 1, 0, 0)) // live, never enqueued
			if err := st.CheckQueue(0); err != nil {
				t.Fatalf("intact queue: %v", err)
			}
			tc.corrupt(st, hs)
			done := make(chan error, 1)
			go func() { done <- st.CheckQueue(0) }()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("corruption not reported")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("CheckQueue did not return")
			}
		})
	}
}
