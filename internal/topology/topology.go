// Package topology models the interconnection network G(V,E) of §4.2 of the
// paper: the set of processing nodes, their links, and the 2-D embedding M2
// that places each node on the plane (the "yard" of the physical analogy).
//
// The paper's algorithm only ever consults the neighbourhood structure and
// per-link parameters, but the experiments sweep over the standard topologies
// of the dynamic-load-balancing literature — mesh, torus, hypercube, ring —
// plus a few extras (star, complete, random-regular, tree) used for edge
// cases and scalability runs.
package topology

import (
	"fmt"
	"math"
	"slices"

	"pplb/internal/rng"
)

// Point2 is a position of a node under the M2 embedding of §4.1. The paper
// only requires that such an embedding exists; experiments use it for
// visualisation and for geometric link lengths.
type Point2 struct {
	X, Y float64
}

// Edge is an undirected link between two node ids with U < V.
type Edge struct {
	U, V int
}

// Graph is an undirected interconnection network with a fixed node set
// {0..N-1}, sorted adjacency lists, and a 2-D embedding. Adjacency is a flat
// CSR layout: node v's neighbours are nbr[off[v]:off[v+1]] and the aligned
// canonical edge ids are nbrEdge[off[v]:off[v+1]]. A graph therefore costs a
// handful of allocations whatever its size, and no per-node slice headers.
type Graph struct {
	name    string
	off     []int32 // len N+1; off[v]..off[v+1] indexes nbr and nbrEdge
	nbr     []int
	nbrEdge []int // nbrEdge[k] = EdgeID(v, nbr[k]) for off[v] <= k < off[v+1]
	coords  []Point2
	edges   []Edge
}

// edgeList accumulates undirected edges as normalised (u<<32 | v, u < v)
// pairs. Duplicates and self-loops are tolerated; build sorts and compacts.
type edgeList struct {
	n     int
	pairs []uint64
}

// build finalises a graph from the accumulated edge list: sort + dedup the
// normalised pairs (their order IS the canonical edge order — lexicographic
// (U,V)), then fill the CSR adjacency in one pass. Because pairs are
// processed in sorted order, every neighbour list comes out ascending: all
// neighbours u < v arrive first (from pairs (u,v), ascending in u), then all
// neighbours w > v (from pairs (v,w), ascending in w). The structured
// generators and Dynamic.Commit emit pairs nearly sorted, on which pdqsort
// runs close to linear.
func build(name string, s *edgeList, coords []Point2) *Graph {
	n := s.n
	slices.Sort(s.pairs)
	pairs := slices.Compact(s.pairs)
	g := &Graph{name: name, coords: coords}
	g.edges = make([]Edge, len(pairs))
	// Count degrees into off[v+1], then prefix-sum into CSR offsets.
	off := make([]int32, n+1)
	for i, p := range pairs {
		u, v := int(p>>32), int(p&0xffffffff)
		g.edges[i] = Edge{U: u, V: v}
		off[u+1]++
		off[v+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	// fill[v] is the running write cursor of node v's neighbour window.
	fill := make([]int32, n)
	copy(fill, off)
	g.off = off
	g.nbr = make([]int, off[n])
	g.nbrEdge = make([]int, off[n])
	for i, p := range pairs {
		u, v := int(p>>32), int(p&0xffffffff)
		g.nbr[fill[u]], g.nbrEdge[fill[u]] = v, i
		fill[u]++
		g.nbr[fill[v]], g.nbrEdge[fill[v]] = u, i
		fill[v]++
	}
	if g.coords == nil {
		g.coords = circleLayout(n)
	}
	return g
}

// newEdgeList starts an edge list over n nodes with room for hint addEdge
// calls, so generators whose edge count is known append without regrowing.
func newEdgeList(n, hint int) *edgeList {
	return &edgeList{n: n, pairs: make([]uint64, 0, hint)}
}

func addEdge(s *edgeList, u, v int) {
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	s.pairs = append(s.pairs, uint64(u)<<32|uint64(v))
}

func circleLayout(n int) []Point2 {
	pts := make([]Point2, n)
	r := float64(n) / (2 * math.Pi)
	if r < 1 {
		r = 1
	}
	for i := range pts {
		a := 2 * math.Pi * float64(i) / float64(max(n, 1))
		pts[i] = Point2{X: r * math.Cos(a), Y: r * math.Sin(a)}
	}
	return pts
}

// Name returns a human-readable topology name, e.g. "torus8x8".
func (g *Graph) Name() string { return g.name }

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.off) - 1 }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// MaxDegree returns the maximum degree over all nodes (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.N(); v++ {
		d = max(d, g.Degree(v))
	}
	return d
}

// Neighbors returns the sorted neighbour list of v. The slice is shared and
// capacity-capped; callers must not modify it.
func (g *Graph) Neighbors(v int) []int {
	lo, hi := g.off[v], g.off[v+1]
	return g.nbr[lo:hi:hi]
}

// IncidentEdgeIDs returns the canonical edge ids of v's links, aligned with
// Neighbors(v): IncidentEdgeIDs(v)[k] is the edge id of {v, Neighbors(v)[k]}.
// Hot paths use it to index per-edge state (costs, busy flags) without a map
// lookup. The slice is shared and capacity-capped; callers must not modify it.
func (g *Graph) IncidentEdgeIDs(v int) []int {
	lo, hi := g.off[v], g.off[v+1]
	return g.nbrEdge[lo:hi:hi]
}

// Edges returns all undirected edges with U < V in canonical order. The
// slice is shared; callers must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// EdgeID returns the canonical index of the undirected edge {u,v} in
// Edges(), and whether the edge exists. Orientation is ignored. The lookup is
// a binary search on the sorted adjacency of the lower-degree endpoint —
// O(log degree), no map — so it stays cheap on hubs (stars, complete graphs)
// and allocation-free everywhere.
func (g *Graph) EdgeID(u, v int) (int, bool) {
	if u < 0 || v < 0 || u >= g.N() || v >= g.N() || u == v {
		return 0, false
	}
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	if i, ok := slices.BinarySearch(g.Neighbors(u), v); ok {
		return g.IncidentEdgeIDs(u)[i], true
	}
	return 0, false
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Coord returns the M2 embedding of node v.
func (g *Graph) Coord(v int) Point2 { return g.coords[v] }

// BFSDistances returns the hop distance from src to every node (-1 when
// unreachable).
func (g *Graph) BFSDistances(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// IsConnected reports whether the graph is connected (true for N<=1).
func (g *Graph) IsConnected() bool {
	if g.N() <= 1 {
		return true
	}
	for _, d := range g.BFSDistances(0) {
		if d < 0 {
			return false
		}
	}
	return true
}

// Diameter returns the largest hop distance between any two nodes, or -1 for
// a disconnected graph.
func (g *Graph) Diameter() int {
	diam := 0
	for v := 0; v < g.N(); v++ {
		for _, d := range g.BFSDistances(v) {
			if d < 0 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// EdgeColoring partitions the edge set into matchings ("colors"): no two
// edges of one color share an endpoint. The dimension-exchange baseline
// sweeps one color per phase so that every node balances with at most one
// neighbour at a time, exactly as on the hypercube where colors coincide
// with dimensions. Greedy coloring uses at most 2*maxDegree-1 colors
// (Vizing guarantees maxDegree+1 exists; greedy is good enough here and
// deterministic).
func (g *Graph) EdgeColoring() [][]Edge {
	var colors [][]Edge
	// used[c][v] == true when node v already has a c-colored edge.
	var used []map[int]bool
	for _, e := range g.edges {
		placed := false
		for c := range colors {
			if !used[c][e.U] && !used[c][e.V] {
				colors[c] = append(colors[c], e)
				used[c][e.U] = true
				used[c][e.V] = true
				placed = true
				break
			}
		}
		if !placed {
			colors = append(colors, []Edge{e})
			used = append(used, map[int]bool{e.U: true, e.V: true})
		}
	}
	return colors
}

// NewMesh returns a rows x cols 2-D mesh (grid) with 4-neighbourhood.
func NewMesh(rows, cols int) *Graph {
	n := rows * cols
	s := newEdgeList(n, rows*max(cols-1, 0)+cols*max(rows-1, 0))
	coords := make([]Point2, n)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			coords[id(r, c)] = Point2{X: float64(c), Y: float64(r)}
			if c+1 < cols {
				addEdge(s, id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				addEdge(s, id(r, c), id(r+1, c))
			}
		}
	}
	return build(fmt.Sprintf("mesh%dx%d", rows, cols), s, coords)
}

// NewTorus returns a rows x cols 2-D torus (mesh with wraparound links).
func NewTorus(rows, cols int) *Graph {
	n := rows * cols
	s := newEdgeList(n, 2*n)
	coords := make([]Point2, n)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			coords[id(r, c)] = Point2{X: float64(c), Y: float64(r)}
			addEdge(s, id(r, c), id(r, (c+1)%cols))
			addEdge(s, id(r, c), id((r+1)%rows, c))
		}
	}
	return build(fmt.Sprintf("torus%dx%d", rows, cols), s, coords)
}

// NewHypercube returns the n-dimensional hypercube Q_dim with 2^dim nodes.
func NewHypercube(dim int) *Graph {
	n := 1 << uint(dim)
	s := newEdgeList(n, n*dim)
	coords := make([]Point2, n)
	for v := 0; v < n; v++ {
		// Lay nodes on a circle ordered by Gray code for a tidy drawing.
		gray := v ^ (v >> 1)
		a := 2 * math.Pi * float64(gray) / float64(n)
		r := float64(dim)
		coords[v] = Point2{X: r * math.Cos(a), Y: r * math.Sin(a)}
		for d := 0; d < dim; d++ {
			addEdge(s, v, v^(1<<uint(d)))
		}
	}
	return build(fmt.Sprintf("hypercube%d", dim), s, coords)
}

// NewRing returns a cycle of n nodes (n >= 3 for a proper ring; smaller n
// degenerate to a path/point).
func NewRing(n int) *Graph {
	s := newEdgeList(n, n)
	for v := 0; v < n; v++ {
		if n > 1 {
			addEdge(s, v, (v+1)%n)
		}
	}
	return build(fmt.Sprintf("ring%d", n), s, circleLayout(n))
}

// NewStar returns a star: node 0 is the hub connected to all others.
func NewStar(n int) *Graph {
	s := newEdgeList(n, max(n-1, 0))
	for v := 1; v < n; v++ {
		addEdge(s, 0, v)
	}
	coords := circleLayout(n)
	if n > 0 {
		coords[0] = Point2{}
	}
	return build(fmt.Sprintf("star%d", n), s, coords)
}

// NewComplete returns the complete graph K_n. With every pair adjacent the
// system behaves like the LAN scenario of the related-work section, where
// all processors are mutually "neighbours".
func NewComplete(n int) *Graph {
	s := newEdgeList(n, max(n*(n-1)/2, 0))
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			addEdge(s, u, v)
		}
	}
	return build(fmt.Sprintf("complete%d", n), s, circleLayout(n))
}

// NewTree returns a complete k-ary tree of the given depth (depth 0 is a
// single root).
func NewTree(arity, depth int) *Graph {
	if arity < 1 {
		arity = 1
	}
	// Count nodes.
	n := 1
	level := 1
	for d := 0; d < depth; d++ {
		level *= arity
		n += level
	}
	s := newEdgeList(n, n-1)
	coords := make([]Point2, n)
	// BFS order: children of node v are arity*v+1 .. arity*v+arity.
	type item struct{ id, depth, slot, width int }
	queue := []item{{0, 0, 0, 1}}
	next := 1
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		coords[it.id] = Point2{
			X: (float64(it.slot) + 0.5) / float64(it.width) * math.Pow(float64(arity), float64(depth)),
			Y: float64(it.depth),
		}
		if it.depth == depth {
			continue
		}
		for c := 0; c < arity; c++ {
			child := next
			next++
			addEdge(s, it.id, child)
			queue = append(queue, item{child, it.depth + 1, it.slot*arity + c, it.width * arity})
		}
	}
	return build(fmt.Sprintf("tree%d^%d", arity, depth), s, coords)
}

// NewRandomRegular returns a connected random d-regular multigraph-free graph
// on n nodes via the pairing model with retries, deterministically from seed.
// n*d must be even and d < n. Used for scalability sweeps where structured
// topologies would conflate size with diameter effects.
func NewRandomRegular(n, d int, seed uint64) *Graph {
	if n*d%2 != 0 {
		panic("topology: NewRandomRegular requires n*d even")
	}
	if d >= n {
		panic("topology: NewRandomRegular requires d < n")
	}
	r := rng.New(seed)
	for attempt := 0; ; attempt++ {
		if g, ok := tryPairing(n, d, r); ok && g.IsConnected() {
			g.name = fmt.Sprintf("rr%d-d%d", n, d)
			return g
		}
		if attempt > 200 {
			// Fall back to a circulant graph, which is d-regular and
			// connected; determinism matters more than randomness here.
			return circulant(n, d)
		}
	}
}

func tryPairing(n, d int, r *rng.RNG) (*Graph, bool) {
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for k := 0; k < d; k++ {
			stubs = append(stubs, v)
		}
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	s := newEdgeList(n, len(stubs)/2)
	seen := make(map[uint64]bool, len(stubs)/2)
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u > v {
			u, v = v, u
		}
		// The pairing model must reject self-loops and parallel edges, so
		// duplicates are detected here rather than silently compacted away.
		if u == v || seen[uint64(u)<<32|uint64(v)] {
			return nil, false
		}
		seen[uint64(u)<<32|uint64(v)] = true
		addEdge(s, u, v)
	}
	return build("rr", s, nil), true
}

func circulant(n, d int) *Graph {
	s := newEdgeList(n, n*(d/2+1))
	for v := 0; v < n; v++ {
		for k := 1; k <= d/2; k++ {
			addEdge(s, v, (v+k)%n)
		}
		if d%2 == 1 && n%2 == 0 {
			addEdge(s, v, (v+n/2)%n)
		}
	}
	return build(fmt.Sprintf("circ%d-d%d", n, d), s, circleLayout(n))
}

// NewCCC returns the cube-connected-cycles network CCC(d): each corner of a
// d-dimensional hypercube is replaced by a cycle of d nodes, and node p of
// corner w connects across dimension p. The result is 3-regular (for d >= 3)
// with d·2^d nodes — the classic bounded-degree substitute for the
// hypercube in multiprocessor designs. Node ids are w·d + p.
func NewCCC(d int) *Graph {
	if d < 1 {
		panic("topology: NewCCC requires d >= 1")
	}
	corners := 1 << uint(d)
	n := corners * d
	s := newEdgeList(n, 2*n)
	id := func(w, p int) int { return w*d + p }
	coords := make([]Point2, n)
	for w := 0; w < corners; w++ {
		gray := w ^ (w >> 1)
		base := 2 * math.Pi * float64(gray) / float64(corners)
		r := float64(d) * 2
		for p := 0; p < d; p++ {
			// Small per-cycle offset so cycle members do not overlap.
			a := base + 0.2*float64(p)/float64(d)
			coords[id(w, p)] = Point2{X: r * math.Cos(a), Y: r * math.Sin(a)}
			if d > 1 {
				addEdge(s, id(w, p), id(w, (p+1)%d))
			}
			addEdge(s, id(w, p), id(w^(1<<uint(p)), p))
		}
	}
	return build(fmt.Sprintf("ccc%d", d), s, coords)
}
