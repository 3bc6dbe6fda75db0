package main

import (
	"math"
	"testing"
)

func TestParseTopology(t *testing.T) {
	cases := []struct {
		spec string
		n    int
	}{
		{"mesh:2x3", 6},
		{"torus:3x3", 9},
		{"hypercube:3", 8},
		{"hypercube:0", 1},
		{"ring:7", 7},
		{"star:5", 5},
		{"complete:4", 4},
		{"rr:10", 10},
		{"rr:5", 5},
		{"ccc:3", 24},
	}
	for _, c := range cases {
		g, err := parseTopology(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if g.N() != c.n {
			t.Fatalf("%s: N=%d want %d", c.spec, g.N(), c.n)
		}
	}
}

func TestParseTopologyErrors(t *testing.T) {
	for _, spec := range []string{
		"blob:3", "mesh:3", "mesh:axb", "torus:", "hypercube:x", "nope",
		// Degenerate sizes: no nodes, or too few for the family.
		"torus:3x0", "torus:0x0", "mesh:-1x4", "ring:0", "star:0", "complete:0",
		"hypercube:-1", "rr:4", "ccc:0",
		// Node or neighbour counts past the int32 CSR offsets.
		"hypercube:27", "hypercube:40", "ccc:25",
	} {
		if _, err := parseTopology(spec); err == nil {
			t.Fatalf("%s: expected error", spec)
		}
	}
}

func TestCheckFaults(t *testing.T) {
	for _, p := range []float64{0, 0.2, 1} {
		if err := checkFaults(p); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
	}
	for _, p := range []float64{math.NaN(), -0.1, 2, math.Inf(1)} {
		if err := checkFaults(p); err == nil {
			t.Fatalf("%v: expected error", p)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	g, _ := parseTopology("torus:3x3")
	for _, name := range []string{
		"pplb", "pplb-greedy", "diffusion", "dimexchange", "gm", "cwn", "random", "none",
	} {
		p, err := parsePolicy(name, g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p == nil {
			t.Fatalf("%s: nil policy", name)
		}
	}
	if _, err := parsePolicy("bogus", g); err == nil {
		t.Fatal("bogus policy must error")
	}
}

func TestParseLoad(t *testing.T) {
	for _, name := range []string{
		"hotspot", "multihotspot", "random", "staircase", "bimodal", "equal",
	} {
		init, err := parseLoad(name, 8, 16, 0.5, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(init) != 8 {
			t.Fatalf("%s: wrong node count", name)
		}
	}
	if _, err := parseLoad("bogus", 8, 16, 0.5, 1); err == nil {
		t.Fatal("bogus load must error")
	}
}

func TestMinMaxHelpers(t *testing.T) {
	xs := []float64{3, -1, 7}
	if maxOf(xs) != 7 || minOf(xs) != -1 {
		t.Fatal("helpers wrong")
	}
}
