package metrics

import (
	"bytes"
	"encoding/csv"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pplb/internal/baselines"
	"pplb/internal/sim"
	"pplb/internal/topology"
)

func TestImbalanceIndices(t *testing.T) {
	if L1Imbalance([]float64{4, 4, 4, 4}) != 0 {
		t.Fatal("balanced vector must have zero imbalance")
	}
	loads := []float64{8, 0, 4, 4}
	if L1Imbalance(loads) != 8 { // |8-4|+|0-4| = 8
		t.Fatalf("l1 = %v", L1Imbalance(loads))
	}
	if L1Imbalance(nil) != 0 {
		t.Fatal("empty input defaults wrong")
	}
}

func collectorRun(t *testing.T, every, ticks int) *Collector {
	t.Helper()
	c := NewCollector(every)
	g := topology.NewRing(4)
	init := [][]float64{{1, 1, 1, 1, 1, 1, 1, 1}, {}, {}, {}}
	e, err := sim.New(sim.Config{Graph: g, Policy: baselines.Diffusion{}, Seed: 1,
		Initial: init, OnTick: c.OnTick})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(ticks)
	return c
}

func TestCollectorSamplesEveryTick(t *testing.T) {
	c := collectorRun(t, 1, 50)
	if c.Len() != 50 {
		t.Fatalf("samples = %d, want 50", c.Len())
	}
	// CV must decrease overall as diffusion balances.
	if !(c.CV[len(c.CV)-1] < c.CV[0]) {
		t.Fatalf("CV did not improve: %v -> %v", c.CV[0], c.CV[len(c.CV)-1])
	}
	// Cumulative series are non-decreasing.
	for i := 1; i < c.Len(); i++ {
		if c.Migrations[i] < c.Migrations[i-1] || c.Traffic[i] < c.Traffic[i-1] {
			t.Fatal("cumulative series must be non-decreasing")
		}
	}
}

func TestCollectorSubsampling(t *testing.T) {
	c := collectorRun(t, 10, 100)
	if c.Len() != 10 {
		t.Fatalf("samples = %d, want 10", c.Len())
	}
}

func TestConvergenceTick(t *testing.T) {
	c := &Collector{
		Ticks: []float64{0, 10, 20, 30, 40},
		CV:    []float64{1.0, 0.5, 0.05, 0.04, 0.03},
	}
	tick, ok := c.ConvergenceTick(0.1)
	if !ok || tick != 20 {
		t.Fatalf("convergence = %v,%v want 20,true", tick, ok)
	}
	// A transient dip that bounces back does not count.
	c2 := &Collector{
		Ticks: []float64{0, 10, 20, 30},
		CV:    []float64{1.0, 0.05, 0.5, 0.4},
	}
	if _, ok := c2.ConvergenceTick(0.1); ok {
		t.Fatal("non-sustained dip must not count as convergence")
	}
	empty := &Collector{}
	if _, ok := empty.ConvergenceTick(0.1); ok {
		t.Fatal("empty collector cannot have converged")
	}
}

// The CSV export carries every series, one full row per sample.
func TestFrameExport(t *testing.T) {
	c := collectorRun(t, 1, 20)
	var buf bytes.Buffer
	if err := c.Frame().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(recs[0], ","); got != "tick,cv,max,min,l1,inflight,migrations,traffic,faults" {
		t.Fatalf("frame columns = %s", got)
	}
	if len(recs) != 21 {
		t.Fatalf("frame rows = %d, want 20", len(recs)-1)
	}
	for i, rec := range recs[1:] {
		if slices.Contains(rec, "") {
			t.Fatalf("row %d has an empty cell: %v", i, rec)
		}
	}
	if recs[1][1] != strconv.FormatFloat(c.CV[0], 'g', -1, 64) {
		t.Fatalf("frame cv %s, collector %v", recs[1][1], c.CV[0])
	}
}

func TestFinalCVAndSummary(t *testing.T) {
	c := collectorRun(t, 1, 30)
	if math.Abs(c.FinalCV()-c.CV[len(c.CV)-1]) > 1e-15 {
		t.Fatal("FinalCV mismatch")
	}
	s := c.Summary()
	if !strings.Contains(s, "cv=") || !strings.Contains(s, "migrations=") {
		t.Fatalf("summary missing fields: %s", s)
	}
	if (&Collector{}).Summary() != "no samples" {
		t.Fatal("empty summary wrong")
	}
	if (&Collector{}).FinalCV() != 0 {
		t.Fatal("empty FinalCV must be 0")
	}
}
