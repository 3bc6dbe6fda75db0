package ascii

import (
	"math"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 42)
	out := tb.String()
	if !strings.Contains(out, "demo") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.5") {
		t.Fatalf("missing cells:\n%s", out)
	}
	if !strings.Contains(out, "42") {
		t.Fatalf("missing int cell:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title + header + separator + 2 rows
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "a", "bbbb")
	tb.AddRow("xxxxxx", "y")
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines[0]) != len(lines[1]) || len(lines[1]) != len(lines[2]) {
		t.Fatalf("rows not aligned:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{3, "3"},
		{-2, "-2"},
		{0.5, "0.5"},
		{1.23456, "1.235"},
		{math.NaN(), "NaN"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.in); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestChartRender(t *testing.T) {
	ch := &Chart{
		Title:  "t",
		Width:  20,
		Height: 5,
		Series: []Series{
			{Name: "up", Values: []float64{0, 1, 2, 3, 4, 5}},
			{Name: "down", Values: []float64{5, 4, 3, 2, 1, 0}},
		},
	}
	out := ch.String()
	if !strings.Contains(out, "up") || !strings.Contains(out, "down") {
		t.Fatalf("missing legend:\n%s", out)
	}
	if !strings.Contains(out, "5") || !strings.Contains(out, "0") {
		t.Fatalf("missing scale:\n%s", out)
	}
	if strings.Count(out, "|") < 10 {
		t.Fatalf("plot body missing:\n%s", out)
	}
}

func TestChartEmpty(t *testing.T) {
	ch := &Chart{Title: "e"}
	if !strings.Contains(ch.String(), "empty chart") {
		t.Fatal("empty chart must say so")
	}
	ch2 := &Chart{Series: []Series{{Name: "n", Values: nil}}}
	if !strings.Contains(ch2.String(), "empty chart") {
		t.Fatal("chart with empty series must say so")
	}
}

func TestChartConstantSeries(t *testing.T) {
	ch := &Chart{Series: []Series{{Name: "c", Values: []float64{2, 2, 2}}}}
	out := ch.String()
	if out == "" || strings.Contains(out, "NaN") {
		t.Fatalf("constant series must render without NaN:\n%s", out)
	}
}

func TestSampleAt(t *testing.T) {
	// Downsampling averages.
	v, ok := sampleAt([]float64{1, 1, 3, 3}, 0, 2)
	if !ok || v != 1 {
		t.Fatalf("downsample col0 = %v", v)
	}
	v, _ = sampleAt([]float64{1, 1, 3, 3}, 1, 2)
	if v != 3 {
		t.Fatalf("downsample col1 = %v", v)
	}
	// Upsampling nearest-neighbour keeps endpoints.
	v, _ = sampleAt([]float64{10, 20}, 0, 10)
	if v != 10 {
		t.Fatalf("upsample first = %v", v)
	}
	v, _ = sampleAt([]float64{10, 20}, 9, 10)
	if v != 20 {
		t.Fatalf("upsample last = %v", v)
	}
	if _, ok := sampleAt(nil, 0, 10); ok {
		t.Fatal("empty series must report !ok")
	}
}

func TestHeatmap(t *testing.T) {
	var b strings.Builder
	Heatmap(&b, "hm", [][]float64{{0, 1}, {2, 3}})
	out := b.String()
	if !strings.Contains(out, "hm") || !strings.Contains(out, "scale") {
		t.Fatalf("bad heatmap:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title + 2 rows + scale
		t.Fatalf("heatmap lines = %d:\n%s", len(lines), out)
	}
}

func TestHeatmapEmpty(t *testing.T) {
	var b strings.Builder
	Heatmap(&b, "", nil)
	if !strings.Contains(b.String(), "empty heatmap") {
		t.Fatal("empty heatmap must say so")
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3})
	if len(s) != 4 {
		t.Fatalf("sparkline length = %d", len(s))
	}
	if s[0] == s[3] {
		t.Fatalf("sparkline endpoints should differ: %q", s)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline must be empty string")
	}
	if len(Sparkline([]float64{5, 5})) != 2 {
		t.Fatal("constant sparkline must still render")
	}
}
