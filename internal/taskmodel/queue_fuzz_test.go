package taskmodel

import (
	"math"
	"slices"
	"testing"
)

// queueModel is the reference a threaded queue is checked against: a plain
// slice in insertion order with the cached total accumulated exactly as the
// buffer-backed queue did (add on enqueue, subtract on removal and service,
// clamp sub-nanoscale negative drift, overwrite on restore).
type queueModel struct {
	hs    []Handle
	total float64
}

func (m *queueModel) clampDrift() {
	if m.total < 0 && m.total > -1e-9 {
		m.total = 0
	}
}

// fuzzLoads mixes dyadic and non-dyadic loads so totals drift in the last
// ulp and the clamp gets exercised.
var fuzzLoads = []float64{1, 0.1, 0.3, 2.5, 1e-3, 7}

// FuzzQueue drives several queues on one store through random interleavings
// of Create/Release recycling, Enqueue, Remove (front, middle, tail and
// absent ids), Has, ConsumeServiceInto (partial and whole-task) and a full
// snapshot-style Restore (RestoreSnapshot, re-enqueue front to back,
// RestoreTotal), and after every operation compares each queue's order,
// length, total bits and membership with the reference model.
func FuzzQueue(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0, 0, 0, 10, 10, 10, 20, 20, 20, 40, 41, 42},
		{0, 1, 2, 3, 4, 5, 10, 11, 12, 13, 14, 15, 22, 23, 24, 25, 26, 27},
		{0, 8, 16, 24, 32, 40, 48, 56, 1, 9, 17, 25, 33, 41, 49, 57},
		{0, 0, 0, 0, 0, 0, 10, 10, 10, 10, 10, 10, 30, 31, 32, 60, 61, 62, 0, 0, 10, 10, 70, 71},
		{0, 10, 0, 10, 0, 10, 0, 10, 50, 51, 52, 53, 20, 21, 22, 0, 10, 7, 15, 23},
		{0, 0, 10, 11, 0, 12, 0, 0, 13, 14, 35, 36, 37, 38, 39, 62, 5, 13, 21, 29, 37, 45, 53, 61, 69, 77},
		{0, 10, 0, 10, 0, 10, 0, 10, 0, 10, 60, 0, 10, 33, 34, 35, 36, 60, 41, 42, 43, 44, 45, 46},
		// Remove the tail, then enqueue behind it; remove the middle, then serve.
		{0, 0, 0, 2, 2, 2, 4, 2, 2, 4, 1, 6, 5, 7, 4, 1, 2, 2},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		const nodes = 3
		if len(ops) > 1024 {
			ops = ops[:1024] // every op audits the whole arena
		}
		st := NewStore()
		st.GrowNodes(nodes)
		model := make([]queueModel, nodes)
		load := map[Handle]float64{} // expected load lane of every live task
		var floating []Handle        // live, not enqueued
		nextID := ID(0)
		arg := func(i int) int { // the byte after op i, 0 past the end
			if i+1 < len(ops) {
				return int(ops[i+1])
			}
			return 0
		}
		for i, op := range ops {
			k := int(op/8) % nodes
			m := &model[k]
			switch op % 8 {
			case 0: // create a task
				l := fuzzLoads[arg(i)%len(fuzzLoads)]
				h := st.Create(nextID, l, k, 0)
				nextID++
				load[h] = l
				floating = append(floating, h)
			case 1: // release a floating task (its slot recycles LIFO)
				if len(floating) > 0 {
					j := arg(i) % len(floating)
					h := floating[j]
					floating = slices.Delete(floating, j, j+1)
					delete(load, h)
					st.Release(h)
				}
			case 2, 3: // enqueue a floating task at k
				if len(floating) > 0 {
					j := arg(i) % len(floating)
					h := floating[j]
					floating = slices.Delete(floating, j, j+1)
					st.Enqueue(k, h)
					m.hs = append(m.hs, h)
					m.total += load[h]
				}
			case 4: // remove from the front, middle or tail of k
				if len(m.hs) == 0 {
					break
				}
				var j int
				switch arg(i) % 3 {
				case 1:
					j = len(m.hs) / 2
				case 2:
					j = len(m.hs) - 1
				}
				h := m.hs[j]
				if got := st.Remove(k, st.ID(h)); got != h {
					t.Fatalf("op %d: Remove(%d, %d) = %d, want %d", i, k, st.ID(h), got, h)
				}
				m.hs = slices.Delete(m.hs, j, j+1)
				m.total -= load[h]
				m.clampDrift()
				floating = append(floating, h)
			case 5: // remove an id that is not resident at k
				id := ID(arg(i)) % (nextID + 2)
				if h := st.HandleOf(id); h >= 0 && slices.Contains(m.hs, h) {
					break
				}
				if got := st.Remove(k, id); got != NoHandle {
					t.Fatalf("op %d: Remove(%d, %d) of a non-resident = %d", i, k, id, got)
				}
			case 6: // serve k: whole tasks and a partial one
				amount := float64(arg(i)%9) * 0.35
				done, consumed := st.ConsumeServiceInto(k, amount, int64(i), nil)
				var wantDone []Handle
				wantConsumed := 0.0
				for amount > 0 && len(m.hs) > 0 {
					h := m.hs[0]
					if l := load[h]; l <= amount {
						amount -= l
						wantConsumed += l
						m.total -= l
						wantDone = append(wantDone, h)
						m.hs = m.hs[1:]
					} else {
						load[h] = l - amount
						m.total -= amount
						wantConsumed += amount
						amount = 0
					}
				}
				m.clampDrift()
				if !slices.Equal(done, wantDone) || math.Float64bits(consumed) != math.Float64bits(wantConsumed) {
					t.Fatalf("op %d: service at %d: done %v consumed %v, want %v and %v", i, k, done, consumed, wantDone, wantConsumed)
				}
				for _, h := range done {
					if st.Done(h) != int64(i) || st.Node(h) != -1 {
						t.Fatalf("op %d: completed handle %d: done tick %d, node %d", i, h, st.Done(h), st.Node(h))
					}
					delete(load, h)
					st.Release(h)
				}
			case 7: // snapshot-style restore of the whole store
				slots := make([]SlotState, st.Cap())
				for h := range slots {
					slots[h] = st.SlotStateAt(Handle(h))
				}
				if err := st.RestoreSnapshot(slots, slices.Clone(st.FreeList()), st.IDBound()); err != nil {
					t.Fatalf("op %d: RestoreSnapshot: %v", i, err)
				}
				for v := range model {
					for _, h := range model[v].hs {
						st.Enqueue(v, h)
					}
					st.RestoreTotal(v, model[v].total)
				}
			}
			checkAgainstModel(t, i, st, model)
		}
	})
}

// checkAgainstModel asserts that every queue matches its model: a sound
// list (the bounded audit runs first, so a broken list fails rather than
// hangs the walk), order, length, exact total bits, and the membership of
// every live task at every node.
func checkAgainstModel(t *testing.T, op int, st *Store, model []queueModel) {
	t.Helper()
	where := map[Handle]int{}
	for v := range model {
		m := &model[v]
		if err := st.CheckQueue(v); err != nil {
			t.Fatalf("op %d: queue %d: %v", op, v, err)
		}
		if got := st.AppendHandles(nil, v); !slices.Equal(got, m.hs) {
			t.Fatalf("op %d: queue %d holds %v, want %v", op, v, got, m.hs)
		}
		q := st.Queue(v)
		if q.Len() != len(m.hs) {
			t.Fatalf("op %d: queue %d Len %d, want %d", op, v, q.Len(), len(m.hs))
		}
		if math.Float64bits(q.Total()) != math.Float64bits(m.total) {
			t.Fatalf("op %d: queue %d Total %v, want %v", op, v, q.Total(), m.total)
		}
		for _, h := range m.hs {
			where[h] = v
		}
	}
	for h := Handle(0); int(h) < st.Cap(); h++ {
		if !st.Alive(h) {
			continue
		}
		v, resident := where[h]
		if !resident {
			v = -1
		}
		if st.Node(h) != v {
			t.Fatalf("op %d: handle %d has node lane %d, want %d", op, h, st.Node(h), v)
		}
		for w := range model {
			if got := st.Has(w, st.ID(h)); got != (w == v) {
				t.Fatalf("op %d: Has(%d, %d) = %t, resident at %d", op, w, st.ID(h), got, v)
			}
		}
	}
}
