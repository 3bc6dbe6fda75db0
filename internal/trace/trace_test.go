package trace

import (
	"bytes"
	"encoding/csv"
	"testing"
)

// csvOf returns the records f writes as CSV.
func csvOf(t *testing.T, f *Frame) [][]string {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return records
}

func TestFrameBasics(t *testing.T) {
	f := NewFrame().
		Add("tick", []float64{0, 1, 2}).
		Add("cv", []float64{1, 0.5, 0.2})
	if f.Rows() != 3 {
		t.Fatalf("rows = %d", f.Rows())
	}
	records := csvOf(t, f)
	if h := records[0]; len(h) != 2 || h[0] != "tick" || h[1] != "cv" {
		t.Fatalf("columns = %v", h)
	}
	if records[2][1] != "0.5" {
		t.Fatal("column values wrong")
	}
}

func TestFrameReplaceKeepsOrder(t *testing.T) {
	f := NewFrame().Add("a", []float64{1}).Add("b", []float64{2})
	f.Add("a", []float64{9})
	records := csvOf(t, f)
	if records[0][0] != "a" || records[0][1] != "b" || records[1][0] != "9" {
		t.Fatalf("replace must keep position and update values: %v", records)
	}
}

func TestWriteCSV(t *testing.T) {
	f := NewFrame().
		Add("x", []float64{1, 2}).
		Add("y", []float64{0.5, 1.5, 2.5}) // ragged: x pads
	records := csvOf(t, f)
	if len(records) != 4 { // header + 3 rows
		t.Fatalf("rows = %d", len(records))
	}
	if records[0][0] != "x" || records[0][1] != "y" {
		t.Fatalf("header = %v", records[0])
	}
	if records[3][0] != "" || records[3][1] != "2.5" {
		t.Fatalf("ragged padding wrong: %v", records[3])
	}
}

func TestEmptyFrame(t *testing.T) {
	f := NewFrame()
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if f.Rows() != 0 {
		t.Fatal("empty frame must have 0 rows")
	}
}
