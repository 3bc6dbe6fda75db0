package topology

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"pplb/internal/rng"
)

// refDynamic is the original Dynamic: one map entry per staged link, Leave
// scanning the whole map, Commit rebuilding from the map. Dynamic's overlay
// must agree with it on every observable, which TestDynamicMatchesReference
// checks on random operation sequences.
type refState uint8

const (
	refUp refState = iota
	refFailed
)

type refDynamic struct {
	name   string
	alive  []bool
	aliveN int
	coords []Point2
	links  map[uint64]refState
	epoch  int64
	cur    *Graph
	dirty  bool
}

// newRefDynamic is the map-based NewDynamic.
func newRefDynamic(g *Graph) *refDynamic {
	n := g.N()
	d := &refDynamic{
		name:   g.Name(),
		alive:  make([]bool, n),
		aliveN: n,
		coords: make([]Point2, n),
		links:  make(map[uint64]refState, g.NumEdges()),
		cur:    g,
	}
	for v := 0; v < n; v++ {
		d.alive[v] = true
		d.coords[v] = g.Coord(v)
	}
	for _, e := range g.Edges() {
		d.links[linkKey(e.U, e.V)] = refUp
	}
	return d
}

func (d *refDynamic) Epoch() int64 { return d.epoch }

func (d *refDynamic) Alive(v int) bool { return v >= 0 && v < len(d.alive) && d.alive[v] }

func (d *refDynamic) AliveCount() int { return d.aliveN }

func (d *refDynamic) Join(p Point2) int {
	v := len(d.alive)
	d.alive = append(d.alive, true)
	d.coords = append(d.coords, p)
	d.aliveN++
	d.dirty = true
	return v
}

func (d *refDynamic) Leave(v int) bool {
	if !d.Alive(v) {
		return false
	}
	d.alive[v] = false
	d.aliveN--
	for k := range d.links {
		if int(k>>32) == v || int(k&0xffffffff) == v {
			delete(d.links, k)
		}
	}
	d.dirty = true
	return true
}

func (d *refDynamic) AddLink(u, v int) bool {
	if u == v || !d.Alive(u) || !d.Alive(v) {
		return false
	}
	k := linkKey(u, v)
	if _, ok := d.links[k]; ok {
		return false
	}
	d.links[k] = refUp
	d.dirty = true
	return true
}

func (d *refDynamic) RemoveLink(u, v int) bool {
	k := linkKey(u, v)
	if _, ok := d.links[k]; !ok {
		return false
	}
	delete(d.links, k)
	d.dirty = true
	return true
}

func (d *refDynamic) FailLink(u, v int) bool {
	k := linkKey(u, v)
	if st, ok := d.links[k]; !ok || st != refUp {
		return false
	}
	d.links[k] = refFailed
	d.dirty = true
	return true
}

func (d *refDynamic) RepairLink(u, v int) bool {
	k := linkKey(u, v)
	if st, ok := d.links[k]; !ok || st != refFailed {
		return false
	}
	d.links[k] = refUp
	d.dirty = true
	return true
}

func (d *refDynamic) HasLink(u, v int) bool {
	st, ok := d.links[linkKey(u, v)]
	return ok && st == refUp
}

func (d *refDynamic) FailedLinks() []Edge {
	var out []Edge
	for k, st := range d.links {
		if st == refFailed {
			out = append(out, Edge{U: int(k >> 32), V: int(k & 0xffffffff)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

func (d *refDynamic) Commit() (*Graph, int64) {
	if !d.dirty {
		return d.cur, d.epoch
	}
	n := len(d.alive)
	s := newEdgeList(n, 0)
	for k, st := range d.links {
		if st == refUp {
			addEdge(s, int(k>>32), int(k&0xffffffff))
		}
	}
	coords := make([]Point2, n)
	copy(coords, d.coords)
	d.epoch++
	d.cur = build(fmt.Sprintf("%s@e%d", d.name, d.epoch), s, coords)
	d.dirty = false
	return d.cur, d.epoch
}

// TestDynamicMatchesReference drives Dynamic and the map-based reference
// with the same seeded random operation sequences and compares every
// observable after each operation, and the committed graphs after each
// Commit.
func TestDynamicMatchesReference(t *testing.T) {
	graphs := []func() *Graph{
		func() *Graph { return NewMesh(4, 5) },
		func() *Graph { return NewTorus(4, 4) },
		func() *Graph { return NewRing(9) },
		func() *Graph { return NewStar(8) },
	}
	for gi, mk := range graphs {
		for seed := uint64(1); seed <= 25; seed++ {
			name := fmt.Sprintf("%s/seed%d", mk().Name(), seed)
			t.Run(name, func(t *testing.T) {
				runDifferential(t, mk(), rng.New(seed*100+uint64(gi)), 300)
			})
		}
	}
}

func runDifferential(t *testing.T, g *Graph, r *rng.RNG, ops int) {
	t.Helper()
	d, ref := NewDynamic(g), newRefDynamic(g)
	// pair picks endpoints: mostly a staged or failed link of the reference,
	// so link operations hit real links, otherwise any pair including
	// out-of-range and self pairs.
	pair := func() (int, int) {
		if r.Intn(2) == 0 {
			var keys []uint64
			for k := range ref.links {
				keys = append(keys, k)
			}
			if len(keys) > 0 {
				slices.Sort(keys)
				k := keys[r.Intn(len(keys))]
				u, v := int(k>>32), int(k&0xffffffff)
				if r.Intn(2) == 0 {
					u, v = v, u
				}
				return u, v
			}
		}
		n := len(ref.alive)
		return r.Intn(n+2) - 1, r.Intn(n+2) - 1
	}
	for step := 0; step < ops; step++ {
		var op string
		switch x := r.Intn(100); {
		case x < 5:
			p := Point2{X: float64(step), Y: -1}
			op = "Join"
			if a, b := d.Join(p), ref.Join(p); a != b {
				t.Fatalf("step %d Join = %d, reference %d", step, a, b)
			}
		case x < 15:
			v := r.Intn(len(ref.alive)+2) - 1
			op = fmt.Sprintf("Leave(%d)", v)
			if a, b := d.Leave(v), ref.Leave(v); a != b {
				t.Fatalf("step %d %s = %v, reference %v", step, op, a, b)
			}
		case x < 85:
			u, v := pair()
			type linkOp struct {
				name     string
				got, ref func(u, v int) bool
			}
			lo := []linkOp{
				{"AddLink", d.AddLink, ref.AddLink},
				{"RemoveLink", d.RemoveLink, ref.RemoveLink},
				{"FailLink", d.FailLink, ref.FailLink},
				{"RepairLink", d.RepairLink, ref.RepairLink},
			}[r.Intn(4)]
			op = fmt.Sprintf("%s(%d,%d)", lo.name, u, v)
			if a, b := lo.got(u, v), lo.ref(u, v); a != b {
				t.Fatalf("step %d %s = %v, reference %v", step, op, a, b)
			}
		default:
			op = "Commit"
			cg, ce := d.Commit()
			rg, re := ref.Commit()
			if ce != re || d.Epoch() != ref.Epoch() {
				t.Fatalf("step %d Commit epoch %d (Epoch %d), reference %d (Epoch %d)", step, ce, d.Epoch(), re, ref.Epoch())
			}
			if cg != d.Graph() {
				t.Fatalf("step %d Commit returned a graph other than Graph()", step)
			}
			assertSameGraph(t, step, cg, rg)
		}
		assertSameStaged(t, step, op, d, ref)
	}
}

func assertSameStaged(t *testing.T, step int, op string, d *Dynamic, ref *refDynamic) {
	t.Helper()
	if d.N() != len(ref.alive) || d.AliveCount() != ref.AliveCount() {
		t.Fatalf("step %d after %s: N %d alive %d, reference N %d alive %d",
			step, op, d.N(), d.AliveCount(), len(ref.alive), ref.AliveCount())
	}
	for u := -1; u <= d.N(); u++ {
		if d.Alive(u) != ref.Alive(u) {
			t.Fatalf("step %d after %s: Alive(%d) = %v, reference %v", step, op, u, d.Alive(u), ref.Alive(u))
		}
		for v := -1; v <= d.N(); v++ {
			if d.HasLink(u, v) != ref.HasLink(u, v) {
				t.Fatalf("step %d after %s: HasLink(%d,%d) = %v, reference %v",
					step, op, u, v, d.HasLink(u, v), ref.HasLink(u, v))
			}
		}
	}
	if a, b := d.FailedLinks(), ref.FailedLinks(); !slices.Equal(a, b) {
		t.Fatalf("step %d after %s: FailedLinks = %v, reference %v", step, op, a, b)
	}
}

func assertSameGraph(t *testing.T, step int, g, ref *Graph) {
	t.Helper()
	if g.Name() != ref.Name() || g.N() != ref.N() {
		t.Fatalf("step %d: committed %s (N %d), reference %s (N %d)", step, g.Name(), g.N(), ref.Name(), ref.N())
	}
	if !slices.Equal(g.Edges(), ref.Edges()) {
		t.Fatalf("step %d: Edges = %v, reference %v", step, g.Edges(), ref.Edges())
	}
	for v := 0; v < g.N(); v++ {
		if !slices.Equal(g.Neighbors(v), ref.Neighbors(v)) ||
			!slices.Equal(g.IncidentEdgeIDs(v), ref.IncidentEdgeIDs(v)) ||
			g.Coord(v) != ref.Coord(v) {
			t.Fatalf("step %d node %d: neighbours %v ids %v at %v, reference %v ids %v at %v", step, v,
				g.Neighbors(v), g.IncidentEdgeIDs(v), g.Coord(v),
				ref.Neighbors(v), ref.IncidentEdgeIDs(v), ref.Coord(v))
		}
	}
}
