// Package ascii renders tables, line charts and heatmaps as plain text.
//
// The benchmark harness regenerates every table and figure of the paper on a
// terminal; this package is the only "plotting" backend, keeping the module
// stdlib-only. All renderers write through io.Writer so they compose with
// files, buffers and testing logs.
package ascii

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row. Cells are formatted with %v; float64 cells are
// formatted compactly with 4 significant digits.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	cols := len(t.Headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	for i, h := range t.Headers {
		if len(h) > widths[i] {
			widths[i] = len(h)
		}
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, cols)
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(t.Headers)
	fmt.Fprintf(w, "|-%s-|\n", strings.Join(sep, "-|-"))
	for _, r := range t.rows {
		line(r)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// FormatFloat formats a float compactly: integers render without a fraction,
// others with four significant digits.
func FormatFloat(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e12 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}

// Series is one named line of a chart.
type Series struct {
	Name   string
	Values []float64
}

// Chart renders one or more series as an ASCII line chart. X is the sample
// index; Y is auto-scaled over all series.
type Chart struct {
	Title  string
	Width  int // plot columns; default 72
	Height int // plot rows; default 16
	Series []Series
}

// markers used to distinguish up to 8 series.
var markers = []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}

// Render writes the chart to w. Series longer than Width are downsampled by
// averaging; shorter series are stretched by nearest-neighbour.
func (c *Chart) Render(w io.Writer) {
	width, height := c.Width, c.Height
	if width <= 0 {
		width = 72
	}
	if height <= 0 {
		height = 16
	}
	if len(c.Series) == 0 {
		fmt.Fprintf(w, "%s\n(empty chart)\n", c.Title)
		return
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	maxLen := 0
	for _, s := range c.Series {
		for _, v := range s.Values {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if len(s.Values) > maxLen {
			maxLen = len(s.Values)
		}
	}
	if maxLen == 0 {
		fmt.Fprintf(w, "%s\n(empty chart)\n", c.Title)
		return
	}
	if lo == hi {
		lo, hi = lo-1, hi+1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range c.Series {
		m := markers[si%len(markers)]
		for col := 0; col < width; col++ {
			v, ok := sampleAt(s.Values, col, width)
			if !ok {
				continue
			}
			row := int(math.Round((hi - v) / (hi - lo) * float64(height-1)))
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			grid[row][col] = m
		}
	}
	if c.Title != "" {
		fmt.Fprintf(w, "%s\n", c.Title)
	}
	fmt.Fprintf(w, "%s  <- max\n", FormatFloat(hi))
	for _, row := range grid {
		fmt.Fprintf(w, "|%s|\n", string(row))
	}
	fmt.Fprintf(w, "%s  <- min   (x: 0..%d)\n", FormatFloat(lo), maxLen-1)
	for si, s := range c.Series {
		fmt.Fprintf(w, "  %c %s\n", markers[si%len(markers)], s.Name)
	}
}

// String renders the chart to a string.
func (c *Chart) String() string {
	var b strings.Builder
	c.Render(&b)
	return b.String()
}

// sampleAt maps plot column col of width to a value of vs. For series longer
// than the plot it averages the covered window; for shorter series it uses
// nearest-neighbour. Returns ok=false when vs is empty.
func sampleAt(vs []float64, col, width int) (float64, bool) {
	n := len(vs)
	if n == 0 {
		return 0, false
	}
	if n == 1 {
		return vs[0], true
	}
	if n <= width {
		idx := int(math.Round(float64(col) / float64(width-1) * float64(n-1)))
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		return vs[idx], true
	}
	lo := col * n / width
	hi := (col + 1) * n / width
	if hi <= lo {
		hi = lo + 1
	}
	s := 0.0
	for i := lo; i < hi && i < n; i++ {
		s += vs[i]
	}
	return s / float64(hi-lo), true
}

// Heatmap renders a 2-D grid of values as a character-density map, used by
// cmd/pplb-surface to show the load surface. Larger values map to denser
// glyphs.
func Heatmap(w io.Writer, title string, grid [][]float64) {
	glyphs := []byte(" .:-=+*#%@")
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, row := range grid {
		for _, v := range row {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if title != "" {
		fmt.Fprintf(w, "%s\n", title)
	}
	if len(grid) == 0 || hi < lo {
		fmt.Fprintln(w, "(empty heatmap)")
		return
	}
	if lo == hi {
		hi = lo + 1
	}
	for _, row := range grid {
		line := make([]byte, len(row))
		for i, v := range row {
			g := int((v - lo) / (hi - lo) * float64(len(glyphs)-1))
			if g < 0 {
				g = 0
			}
			if g >= len(glyphs) {
				g = len(glyphs) - 1
			}
			line[i] = glyphs[g]
		}
		fmt.Fprintf(w, "%s\n", string(line))
	}
	fmt.Fprintf(w, "scale: '%c'=%s .. '%c'=%s\n", glyphs[0], FormatFloat(lo), glyphs[len(glyphs)-1], FormatFloat(hi))
}

// Sparkline returns a one-line summary of vs using eighth-block-free ASCII
// ramp characters, handy for compact progress logs.
func Sparkline(vs []float64) string {
	if len(vs) == 0 {
		return ""
	}
	ramp := []byte("_.-=+*#@")
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo == hi {
		hi = lo + 1
	}
	out := make([]byte, len(vs))
	for i, v := range vs {
		g := int((v - lo) / (hi - lo) * float64(len(ramp)-1))
		if g < 0 {
			g = 0
		}
		if g >= len(ramp) {
			g = len(ramp) - 1
		}
		out[i] = ramp[g]
	}
	return string(out)
}
