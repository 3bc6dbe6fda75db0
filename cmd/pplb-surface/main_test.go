package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseGridTopology(t *testing.T) {
	for _, c := range []struct {
		spec       string
		n, r, cols int
	}{
		{"mesh:2x3", 6, 2, 3},
		{"torus:4x4", 16, 4, 4},
	} {
		g, rows, cols, err := parseGridTopology(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if g.N() != c.n || rows != c.r || cols != c.cols {
			t.Fatalf("%s: N=%d rows=%d cols=%d want %d/%d/%d", c.spec, g.N(), rows, cols, c.n, c.r, c.cols)
		}
	}
	for _, spec := range []string{
		"ring:8", "mesh:3", "mesh:axb", "torus:", "torus:0x4", "hypercube:3", "nope",
	} {
		if _, _, _, err := parseGridTopology(spec); err == nil {
			t.Fatalf("%s: expected error", spec)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	g, _, _, err := parseGridTopology("torus:3x3")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"pplb", "diffusion", "dimexchange", "gm", "cwn", "random", "none"} {
		p, err := parsePolicy(name, g)
		if err != nil || p == nil {
			t.Fatalf("%s: policy=%v err=%v", name, p, err)
		}
	}
	if _, err := parsePolicy("bogus", g); err == nil {
		t.Fatal("bogus policy must error")
	}
}

// TestRunTiny is the end-to-end smoke: a small torus for a handful of
// ticks, asserting frames and the final summary come out.
func TestRunTiny(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-topology", "torus:4x4", "-tasks", "32", "-ticks", "6", "-frames", "2", "-seed", "7"}, &out, &errb)
	if err != nil {
		t.Fatalf("%v\nstderr:\n%s", err, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "tick 0") {
		t.Fatalf("missing initial frame:\n%s", s)
	}
	if !strings.Contains(s, "tick 6") {
		t.Fatalf("missing final frame:\n%s", s)
	}
	if !strings.Contains(s, "final: cv=") {
		t.Fatalf("missing summary line:\n%s", s)
	}
}

func TestRunErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-topology", "ring:9"}, &out, &errb); err == nil {
		t.Fatal("non-grid topology must error")
	}
	if err := run([]string{"-topology", "torus:4x4", "-policy", "bogus"}, &out, &errb); err == nil {
		t.Fatal("unknown policy must error")
	}
	if err := run([]string{"-bogusflag"}, &out, &errb); err == nil {
		t.Fatal("bad flag must error")
	}
}

// TestRunGridLayout: node r*cols+c is drawn at row r, column c. On a
// non-square mesh the tick-0 frame shows the peak glyph at the hotspot,
// (rows/2, cols/2), and nowhere else; a column-major layout would put node
// 2*5+2 at row 0, column 3.
func TestRunGridLayout(t *testing.T) {
	const rows, cols = 4, 5
	var out, errb bytes.Buffer
	if err := run([]string{"-topology", "mesh:4x5", "-ticks", "0"}, &out, &errb); err != nil {
		t.Fatalf("%v\nstderr:\n%s", err, errb.String())
	}
	lines := strings.Split(out.String(), "\n")
	if len(lines) < rows+1 || !strings.HasPrefix(lines[0], "tick 0") {
		t.Fatalf("missing tick-0 frame:\n%s", out.String())
	}
	for r, line := range lines[1 : rows+1] {
		if len(line) != cols {
			t.Fatalf("row %d is %q, want %d cells:\n%s", r, line, cols, out.String())
		}
		for c := range cols {
			if peak := line[c] == '@'; peak != (r == rows/2 && c == cols/2) {
				t.Fatalf("peak glyph at row %d, column %d is %t:\n%s", r, c, peak, out.String())
			}
		}
	}
}
