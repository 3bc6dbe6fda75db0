package topology

import (
	"fmt"
	"slices"
)

// Dynamic is the versioned, mutable counterpart of Graph: a staging area for
// topology reconfiguration. Mutations (node join/leave, link
// add/remove/fail/repair) accumulate without touching the last committed
// Graph; Commit rebuilds the CSR adjacency from the staged state and bumps
// the topology epoch. Engines keep running against the old immutable Graph
// until the caller hands them the committed successor (sim.Engine.Reconfigure).
//
// The staged link set is the committed graph's edge set overridden by a small
// overlay of per-link states, so no operation touches every edge except
// Commit: NewDynamic is O(N), Leave(v) is O(deg(v) + |overlay|), the
// per-link operations are a binary search plus a map probe, and Commit is
// one pass over the committed edges plus a near-sorted build.
//
// Node ids are stable and never recycled: Leave marks an id dead forever and
// Join always appends a fresh id at N. Dead nodes stay in the id space as
// degree-0 nodes of every committed graph, so task origins, shard layouts and
// snapshots never need renumbering. The id space only grows.
//
// Dynamic is not safe for concurrent use; it is a single-writer control-plane
// object. Committed Graphs are immutable and freely shareable as always.
type Dynamic struct {
	name   string
	alive  []bool
	aliveN int
	coords []Point2
	// over overrides cur's edge set: a key present here has the stated
	// state, any other key is up exactly when it is an edge of cur.
	over  map[uint64]linkState
	epoch int64
	cur   *Graph
	dirty bool
}

type linkState uint8

const (
	linkUp linkState = iota
	// linkFailed keeps the link in the staged set but out of committed
	// graphs, so RepairLink can restore it without the caller remembering
	// the endpoint pair.
	linkFailed
	// linkGone hides an edge of the committed graph from the staged set.
	linkGone
)

func linkKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// NewDynamic seeds a Dynamic from an existing graph: every node alive, every
// edge up, epoch 0, and g itself as the committed snapshot — so an engine
// built against g can later be reconfigured with commits of this Dynamic.
func NewDynamic(g *Graph) *Dynamic {
	n := g.N()
	d := &Dynamic{
		name:   g.Name(),
		alive:  make([]bool, n),
		aliveN: n,
		coords: make([]Point2, n),
		over:   make(map[uint64]linkState),
		cur:    g,
	}
	for v := range d.alive {
		d.alive[v] = true
	}
	copy(d.coords, g.coords)
	return d
}

// link returns the staged state of {u,v} and whether the link exists at all.
func (d *Dynamic) link(u, v int) (linkState, bool) {
	if st, ok := d.over[linkKey(u, v)]; ok {
		return st, st != linkGone
	}
	_, ok := d.cur.EdgeID(u, v)
	return linkUp, ok
}

// N returns the size of the id space (alive + dead nodes). Grows on Join,
// never shrinks.
func (d *Dynamic) N() int { return len(d.alive) }

// Graph returns the last committed immutable graph.
func (d *Dynamic) Graph() *Graph { return d.cur }

// Epoch returns the topology epoch of the last committed graph. Epoch 0 is
// the seed graph; every Commit with staged changes bumps it by one.
func (d *Dynamic) Epoch() int64 { return d.epoch }

// Alive reports whether node v exists and has not left.
func (d *Dynamic) Alive(v int) bool { return v >= 0 && v < len(d.alive) && d.alive[v] }

// AliveCount returns the number of alive nodes.
func (d *Dynamic) AliveCount() int { return d.aliveN }

// DeadNodes returns the ascending ids of all departed nodes. The slice is
// freshly allocated and exactly the Dead field a sim.Reconfig wants.
func (d *Dynamic) DeadNodes() []int {
	var out []int
	for v, a := range d.alive {
		if !a {
			out = append(out, v)
		}
	}
	return out
}

// Join adds a fresh node at coordinate p and returns its id (always the
// current N: ids are append-only). The node starts isolated; follow with
// AddLink to wire it in.
func (d *Dynamic) Join(p Point2) int {
	v := len(d.alive)
	d.alive = append(d.alive, true)
	d.coords = append(d.coords, p)
	d.aliveN++
	d.dirty = true
	return v
}

// Leave marks node v dead and drops all its links (failed ones included —
// a departed node's links cannot be repaired). Reports whether anything
// changed; leaving a dead or out-of-range node is a no-op.
func (d *Dynamic) Leave(v int) bool {
	if !d.Alive(v) {
		return false
	}
	d.alive[v] = false
	d.aliveN--
	for k := range d.over {
		if int(k>>32) == v || int(k&0xffffffff) == v {
			d.over[k] = linkGone
		}
	}
	if v < d.cur.N() {
		for _, u := range d.cur.Neighbors(v) {
			d.over[linkKey(u, v)] = linkGone
		}
	}
	d.dirty = true
	return true
}

// AddLink stages a new link between two alive nodes. Reports whether it was
// added; self-loops, dead endpoints and already-present links are no-ops.
func (d *Dynamic) AddLink(u, v int) bool {
	if u == v || !d.Alive(u) || !d.Alive(v) {
		return false
	}
	if _, ok := d.link(u, v); ok {
		return false
	}
	d.over[linkKey(u, v)] = linkUp
	d.dirty = true
	return true
}

// RemoveLink deletes a link permanently (up or failed). Reports whether it
// existed.
func (d *Dynamic) RemoveLink(u, v int) bool {
	if _, ok := d.link(u, v); !ok {
		return false
	}
	d.over[linkKey(u, v)] = linkGone
	d.dirty = true
	return true
}

// FailLink takes a link down without forgetting it, so RepairLink can bring
// it back. Reports whether the link existed and was up.
func (d *Dynamic) FailLink(u, v int) bool {
	if st, ok := d.link(u, v); !ok || st != linkUp {
		return false
	}
	d.over[linkKey(u, v)] = linkFailed
	d.dirty = true
	return true
}

// RepairLink restores a failed link. Reports whether the link existed and
// was failed.
func (d *Dynamic) RepairLink(u, v int) bool {
	if st, ok := d.link(u, v); !ok || st != linkFailed {
		return false
	}
	d.over[linkKey(u, v)] = linkUp
	d.dirty = true
	return true
}

// HasLink reports whether a link is staged and up.
func (d *Dynamic) HasLink(u, v int) bool {
	st, ok := d.link(u, v)
	return ok && st == linkUp
}

// FailedLinks returns the currently failed links in canonical ascending
// order — the candidate set for RepairLink.
func (d *Dynamic) FailedLinks() []Edge {
	var keys []uint64
	for k, st := range d.over {
		if st == linkFailed {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	var out []Edge
	for _, k := range keys {
		out = append(out, Edge{U: int(k >> 32), V: int(k & 0xffffffff)})
	}
	return out
}

// Commit rebuilds the CSR graph from the staged state, bumps the epoch and
// returns the new immutable snapshot. With no staged changes it returns the
// current graph and epoch unchanged — committing is idempotent. The committed
// graph's name carries the epoch ("torus-8x8@e3") so fingerprints and error
// messages identify which topology version an engine is running.
//
// The edge list is the committed edges not in the overlay, still in canonical
// order, followed by the overlay's few up links, so build sorts nearly sorted
// input. Up and gone entries are then part of the new graph; failed entries
// stay in the overlay so RepairLink works across commits.
func (d *Dynamic) Commit() (*Graph, int64) {
	if !d.dirty {
		return d.cur, d.epoch
	}
	s := newEdgeList(len(d.alive), d.cur.NumEdges()+len(d.over))
	for _, e := range d.cur.Edges() {
		k := linkKey(e.U, e.V)
		if _, ok := d.over[k]; !ok {
			s.pairs = append(s.pairs, k)
		}
	}
	for k, st := range d.over {
		if st == linkUp {
			s.pairs = append(s.pairs, k)
		}
		if st != linkFailed {
			delete(d.over, k)
		}
	}
	coords := make([]Point2, len(d.coords))
	copy(coords, d.coords)
	d.epoch++
	d.cur = build(fmt.Sprintf("%s@e%d", d.name, d.epoch), s, coords)
	d.dirty = false
	return d.cur, d.epoch
}
