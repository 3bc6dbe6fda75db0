// Package metrics measures balance quality and cost over a simulation run:
// imbalance indices over the load vector, per-tick time series collection
// via the engine's OnTick hook, and convergence detection.
package metrics

import (
	"fmt"

	"pplb/internal/sim"
	"pplb/internal/stats"
	"pplb/internal/trace"
)

// L1Imbalance returns Σ|l_v − mean| — twice the total load that would have
// to move to reach perfect balance.
func L1Imbalance(loads []float64) float64 {
	m := stats.Mean(loads)
	s := 0.0
	for _, l := range loads {
		d := l - m
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}

// Collector records per-tick series through sim.Config.OnTick.
type Collector struct {
	// Every records one sample each Every ticks (0 = every tick).
	Every int

	Ticks      []float64
	CV         []float64
	MaxLoad    []float64
	MinLoad    []float64
	L1         []float64
	InFlight   []float64
	Migrations []float64 // cumulative
	Traffic    []float64 // cumulative
	Faults     []float64 // cumulative

	scratch []float64 // reusable height-vector sample buffer
}

// NewCollector returns a collector sampling every `every` ticks.
func NewCollector(every int) *Collector { return &Collector{Every: every} }

// OnTick implements the engine observation hook.
func (c *Collector) OnTick(s *sim.State) {
	every := c.Every
	if every <= 0 {
		every = 1
	}
	if s.Tick()%int64(every) != 0 {
		return
	}
	// Heights (load/speed) rather than raw loads: on homogeneous systems
	// they coincide; on heterogeneous ones height balance is what matters.
	// Sampled into a reusable scratch buffer: collection must not allocate
	// per tick, or dense sampling distorts the engine benchmarks it reports.
	c.scratch = s.HeightsInto(c.scratch)
	loads := c.scratch
	cnt := s.Counters()
	c.Ticks = append(c.Ticks, float64(s.Tick()))
	c.CV = append(c.CV, stats.CV(loads))
	c.MaxLoad = append(c.MaxLoad, stats.Max(loads))
	c.MinLoad = append(c.MinLoad, stats.Min(loads))
	c.L1 = append(c.L1, L1Imbalance(loads))
	c.InFlight = append(c.InFlight, s.InFlightLoad())
	c.Migrations = append(c.Migrations, float64(cnt.Migrations))
	c.Traffic = append(c.Traffic, cnt.Traffic)
	c.Faults = append(c.Faults, float64(cnt.Faults))
}

// Len returns the number of recorded samples.
func (c *Collector) Len() int { return len(c.Ticks) }

// ConvergenceTick returns the first recorded tick at which the CV series
// drops below eps and stays below it for the remainder of the run (a
// sustained-convergence criterion robust to transient dips), or ok=false.
func (c *Collector) ConvergenceTick(eps float64) (float64, bool) {
	idx := -1
	for i := len(c.CV) - 1; i >= 0; i-- {
		if c.CV[i] >= eps {
			break
		}
		idx = i
	}
	if idx < 0 {
		return 0, false
	}
	return c.Ticks[idx], true
}

// FinalCV returns the last recorded CV (0 if nothing was recorded).
func (c *Collector) FinalCV() float64 {
	if len(c.CV) == 0 {
		return 0
	}
	return c.CV[len(c.CV)-1]
}

// Frame exports all recorded series as a trace.Frame for CSV output.
func (c *Collector) Frame() *trace.Frame {
	return trace.NewFrame().
		Add("tick", c.Ticks).
		Add("cv", c.CV).
		Add("max", c.MaxLoad).
		Add("min", c.MinLoad).
		Add("l1", c.L1).
		Add("inflight", c.InFlight).
		Add("migrations", c.Migrations).
		Add("traffic", c.Traffic).
		Add("faults", c.Faults)
}

// Summary formats the headline numbers of a finished run.
func (c *Collector) Summary() string {
	if c.Len() == 0 {
		return "no samples"
	}
	last := c.Len() - 1
	return fmt.Sprintf("tick=%v cv=%.4f max=%.3g l1=%.3g migrations=%v traffic=%.3g faults=%v",
		c.Ticks[last], c.CV[last], c.MaxLoad[last], c.L1[last],
		c.Migrations[last], c.Traffic[last], c.Faults[last])
}
