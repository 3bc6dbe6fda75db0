package topology

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestMeshBasics(t *testing.T) {
	g := NewMesh(3, 4)
	if g.N() != 12 {
		t.Fatalf("N = %d", g.N())
	}
	// Corner, edge, interior degrees.
	if g.Degree(0) != 2 {
		t.Fatalf("corner degree = %d", g.Degree(0))
	}
	if g.Degree(1) != 3 {
		t.Fatalf("border degree = %d", g.Degree(1))
	}
	if g.Degree(5) != 4 { // row1,col1 interior
		t.Fatalf("interior degree = %d", g.Degree(5))
	}
	// Edge count: rows*(cols-1) + cols*(rows-1) = 3*3 + 4*2 = 17.
	if g.NumEdges() != 17 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if !g.IsConnected() {
		t.Fatal("mesh must be connected")
	}
	if d := g.Diameter(); d != 5 { // (3-1)+(4-1)
		t.Fatalf("mesh diameter = %d, want 5", d)
	}
}

func TestTorusBasics(t *testing.T) {
	g := NewTorus(4, 4)
	if g.N() != 16 {
		t.Fatalf("N = %d", g.N())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("torus node %d degree = %d, want 4", v, g.Degree(v))
		}
	}
	if g.NumEdges() != 32 {
		t.Fatalf("edges = %d, want 32", g.NumEdges())
	}
	if d := g.Diameter(); d != 4 { // 2+2
		t.Fatalf("torus diameter = %d, want 4", d)
	}
	// Wraparound exists.
	if !slices.Contains(g.Neighbors(0), 3) {
		t.Fatal("row wraparound missing")
	}
	if !slices.Contains(g.Neighbors(0), 12) {
		t.Fatal("column wraparound missing")
	}
}

func TestSmallTorusNoDuplicateEdges(t *testing.T) {
	// 2x2 torus: wraparound coincides with direct link; adjacency sets must
	// dedupe.
	g := NewTorus(2, 2)
	if g.NumEdges() != 4 {
		t.Fatalf("2x2 torus edges = %d, want 4", g.NumEdges())
	}
	for v := 0; v < 4; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("2x2 torus degree = %d", g.Degree(v))
		}
	}
}

func TestHypercube(t *testing.T) {
	for dim := 1; dim <= 6; dim++ {
		g := NewHypercube(dim)
		n := 1 << uint(dim)
		if g.N() != n {
			t.Fatalf("Q%d N = %d", dim, g.N())
		}
		for v := 0; v < n; v++ {
			if g.Degree(v) != dim {
				t.Fatalf("Q%d degree(%d) = %d", dim, v, g.Degree(v))
			}
		}
		if g.NumEdges() != n*dim/2 {
			t.Fatalf("Q%d edges = %d", dim, g.NumEdges())
		}
		if d := g.Diameter(); d != dim {
			t.Fatalf("Q%d diameter = %d", dim, d)
		}
	}
}

func TestRing(t *testing.T) {
	g := NewRing(7)
	if g.NumEdges() != 7 {
		t.Fatalf("ring edges = %d", g.NumEdges())
	}
	for v := 0; v < 7; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("ring degree = %d", g.Degree(v))
		}
	}
	if d := g.Diameter(); d != 3 {
		t.Fatalf("ring7 diameter = %d", d)
	}
}

func TestStar(t *testing.T) {
	g := NewStar(6)
	if g.Degree(0) != 5 {
		t.Fatalf("hub degree = %d", g.Degree(0))
	}
	for v := 1; v < 6; v++ {
		if g.Degree(v) != 1 {
			t.Fatalf("leaf degree = %d", g.Degree(v))
		}
	}
	if g.Diameter() != 2 {
		t.Fatalf("star diameter = %d", g.Diameter())
	}
}

func TestComplete(t *testing.T) {
	g := NewComplete(5)
	if g.NumEdges() != 10 {
		t.Fatalf("K5 edges = %d", g.NumEdges())
	}
	if g.Diameter() != 1 {
		t.Fatalf("K5 diameter = %d", g.Diameter())
	}
}

func TestTree(t *testing.T) {
	g := NewTree(2, 3) // 1+2+4+8 = 15 nodes
	if g.N() != 15 {
		t.Fatalf("tree N = %d", g.N())
	}
	if g.NumEdges() != 14 {
		t.Fatalf("tree edges = %d", g.NumEdges())
	}
	if !g.IsConnected() {
		t.Fatal("tree must be connected")
	}
	if g.Diameter() != 6 {
		t.Fatalf("tree diameter = %d, want 6", g.Diameter())
	}
}

func TestRandomRegular(t *testing.T) {
	g := NewRandomRegular(32, 4, 42)
	if g.N() != 32 {
		t.Fatalf("rr N = %d", g.N())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("rr degree(%d) = %d", v, g.Degree(v))
		}
	}
	if !g.IsConnected() {
		t.Fatal("rr must be connected")
	}
	// Determinism.
	g2 := NewRandomRegular(32, 4, 42)
	if g.NumEdges() != g2.NumEdges() {
		t.Fatal("rr not deterministic")
	}
	for i, e := range g.Edges() {
		if g2.Edges()[i] != e {
			t.Fatal("rr edges not deterministic")
		}
	}
}

func TestRandomRegularPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewRandomRegular(5, 3, 1) }, // odd n*d
		func() { NewRandomRegular(4, 4, 1) }, // d >= n
		func() { NewRandomRegular(3, 3, 1) }, // both
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestBFSDistances(t *testing.T) {
	g := NewMesh(3, 3)
	d := g.BFSDistances(0)
	if d[0] != 0 || d[8] != 4 || d[4] != 2 {
		t.Fatalf("bfs distances wrong: %v", d)
	}
}

func TestNeighborsSortedAndSymmetric(t *testing.T) {
	graphs := []*Graph{
		NewMesh(3, 5), NewTorus(4, 3), NewHypercube(4), NewRing(9),
		NewStar(7), NewComplete(6), NewTree(3, 2), NewRandomRegular(16, 3, 7),
	}
	for _, g := range graphs {
		for v := 0; v < g.N(); v++ {
			ns := g.Neighbors(v)
			for i := 1; i < len(ns); i++ {
				if ns[i-1] >= ns[i] {
					t.Fatalf("%s: neighbours of %d not sorted/unique: %v", g.Name(), v, ns)
				}
			}
			for _, u := range ns {
				if !slices.Contains(g.Neighbors(u), v) {
					t.Fatalf("%s: asymmetric edge %d-%d", g.Name(), v, u)
				}
			}
		}
	}
}

func TestEdgeColoringIsMatching(t *testing.T) {
	graphs := []*Graph{
		NewMesh(4, 4), NewTorus(4, 4), NewHypercube(4), NewRing(8),
		NewComplete(6), NewRandomRegular(16, 4, 3),
	}
	for _, g := range graphs {
		colors := g.EdgeColoring()
		total := 0
		for ci, edges := range colors {
			seen := make(map[int]bool)
			for _, e := range edges {
				if seen[e.U] || seen[e.V] {
					t.Fatalf("%s: color %d is not a matching", g.Name(), ci)
				}
				seen[e.U] = true
				seen[e.V] = true
				total++
			}
		}
		if total != g.NumEdges() {
			t.Fatalf("%s: coloring covers %d of %d edges", g.Name(), total, g.NumEdges())
		}
		if len(colors) > 2*g.MaxDegree() {
			t.Fatalf("%s: %d colors exceed greedy bound %d", g.Name(), len(colors), 2*g.MaxDegree())
		}
	}
}

func TestHypercubeColoringIsDimensions(t *testing.T) {
	g := NewHypercube(3)
	colors := g.EdgeColoring()
	if len(colors) != 3 {
		t.Fatalf("Q3 should color in exactly 3 matchings, got %d", len(colors))
	}
}

func TestCCC(t *testing.T) {
	g := NewCCC(3)
	if g.N() != 24 { // 3 * 2^3
		t.Fatalf("CCC(3) N = %d, want 24", g.N())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 3 {
			t.Fatalf("CCC(3) degree(%d) = %d, want 3", v, g.Degree(v))
		}
	}
	if !g.IsConnected() {
		t.Fatal("CCC must be connected")
	}
	// Cycle edge within corner 0 and cross edge along dimension 0.
	if !slices.Contains(g.Neighbors(0), 1) {
		t.Fatal("cycle edge missing")
	}
	if !slices.Contains(g.Neighbors(0), 3) { // (w=0,p=0) - (w=1,p=0): id 1*3+0 = 3
		t.Fatal("cross edge missing")
	}
	// Known diameter-ish sanity: CCC(3) diameter is 6.
	if d := g.Diameter(); d != 6 {
		t.Fatalf("CCC(3) diameter = %d, want 6", d)
	}
}

func TestCCCDegreeBound(t *testing.T) {
	for d := 3; d <= 5; d++ {
		g := NewCCC(d)
		if g.N() != d*(1<<uint(d)) {
			t.Fatalf("CCC(%d) N = %d", d, g.N())
		}
		if g.MaxDegree() != 3 {
			t.Fatalf("CCC(%d) max degree = %d, want 3", d, g.MaxDegree())
		}
		if !g.IsConnected() {
			t.Fatalf("CCC(%d) disconnected", d)
		}
	}
}

func TestCCCPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCCC(0)
}

func TestEdgeID(t *testing.T) {
	g := NewMesh(2, 3)
	for i, e := range g.Edges() {
		if id, ok := g.EdgeID(e.U, e.V); !ok || id != i {
			t.Fatalf("EdgeID(%d,%d) = %d,%v want %d", e.U, e.V, id, ok, i)
		}
		// Orientation ignored.
		if id, ok := g.EdgeID(e.V, e.U); !ok || id != i {
			t.Fatalf("EdgeID reversed (%d,%d) = %d,%v want %d", e.V, e.U, id, ok, i)
		}
	}
	if _, ok := g.EdgeID(0, 5); ok {
		t.Fatal("non-edge must report !ok")
	}
}

// Property: in any generated torus, every node has degree 4 (rows, cols >= 3)
// and diameter = floor(r/2)+floor(c/2).
func TestTorusPropertiesQuick(t *testing.T) {
	f := func(a, b uint8) bool {
		rows := int(a%5) + 3
		cols := int(b%5) + 3
		g := NewTorus(rows, cols)
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != 4 {
				return false
			}
		}
		return g.Diameter() == rows/2+cols/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS distance satisfies the triangle inequality over edges.
func TestBFSTrianglePropertyQuick(t *testing.T) {
	f := func(seed uint16) bool {
		g := NewRandomRegular(20, 3, uint64(seed)+1)
		d := g.BFSDistances(0)
		for _, e := range g.Edges() {
			diff := d[e.U] - d[e.V]
			if diff < -1 || diff > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBFSDistances(b *testing.B) {
	g := NewTorus(32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.BFSDistances(i % g.N())
	}
}

func BenchmarkEdgeColoring(b *testing.B) {
	g := NewTorus(16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.EdgeColoring()
	}
}

func TestIncidentEdgeIDsAligned(t *testing.T) {
	for _, g := range []*Graph{NewTorus(4, 4), NewMesh(3, 5), NewHypercube(4), NewStar(7), NewCCC(3)} {
		for v := 0; v < g.N(); v++ {
			ns := g.Neighbors(v)
			ids := g.IncidentEdgeIDs(v)
			if len(ns) != len(ids) {
				t.Fatalf("%s node %d: %d neighbors but %d incident edge ids", g.Name(), v, len(ns), len(ids))
			}
			for k, u := range ns {
				want, ok := g.EdgeID(v, u)
				if !ok || ids[k] != want {
					t.Fatalf("%s edge {%d,%d}: IncidentEdgeIDs gives %d, EdgeID gives %d (ok=%v)",
						g.Name(), v, u, ids[k], want, ok)
				}
			}
		}
	}
}
