// Package trace exports recorded simulation series as CSV, so experiment
// output can be fed to external plotting or analysis tools.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Frame is a named collection of equal-length columns (a tiny dataframe).
type Frame struct {
	order []string
	cols  map[string][]float64
}

// NewFrame returns an empty frame.
func NewFrame() *Frame { return &Frame{cols: make(map[string][]float64)} }

// Add appends a column. Re-adding a name replaces the column but keeps its
// original position.
func (f *Frame) Add(name string, values []float64) *Frame {
	if _, exists := f.cols[name]; !exists {
		f.order = append(f.order, name)
	}
	f.cols[name] = values
	return f
}

// Rows returns the length of the longest column.
func (f *Frame) Rows() int {
	n := 0
	for _, c := range f.cols {
		if len(c) > n {
			n = len(c)
		}
	}
	return n
}

// WriteCSV writes the frame with a header row; ragged columns pad with
// empty cells.
func (f *Frame) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(f.order); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	rows := f.Rows()
	rec := make([]string, len(f.order))
	for r := 0; r < rows; r++ {
		for i, name := range f.order {
			col := f.cols[name]
			if r < len(col) {
				rec[i] = strconv.FormatFloat(col[r], 'g', -1, 64)
			} else {
				rec[i] = ""
			}
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write row %d: %w", r, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
