package sim

import (
	"bytes"
	"math"
	"testing"

	"pplb/internal/rng"
	"pplb/internal/topology"
)

// New must reject every non-finite or out-of-range number at the boundary
// instead of letting it poison heights, queue totals or service.
func TestNewRejectsNonFiniteInput(t *testing.T) {
	g := topology.NewRing(4)
	nan, inf := math.NaN(), math.Inf(1)
	speeds := func(sp float64) []float64 { return []float64{1, sp, 1, 1} }
	initial := func(load float64) [][]float64 { return [][]float64{{1}, {2, load}, {}, {}} }
	cases := []struct {
		name string
		cfg  Config
	}{
		{"speed NaN", Config{Speeds: speeds(nan)}},
		{"speed +Inf", Config{Speeds: speeds(inf)}},
		{"speed -Inf", Config{Speeds: speeds(-inf)}},
		{"speed 0", Config{Speeds: speeds(0)}},
		{"speed -1", Config{Speeds: speeds(-1)}},
		{"initial NaN", Config{Initial: initial(nan)}},
		{"initial +Inf", Config{Initial: initial(inf)}},
		{"initial -Inf", Config{Initial: initial(-inf)}},
		{"service NaN", Config{ServiceRate: nan}},
		{"service +Inf", Config{ServiceRate: inf}},
		{"service -Inf", Config{ServiceRate: -inf}},
		{"service -0.5", Config{ServiceRate: -0.5}},
	}
	for _, tc := range cases {
		tc.cfg.Graph, tc.cfg.Policy = g, nopPolicy{}
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted the config", tc.name)
		}
	}
	// Zero and negative initial loads stay skipped, not rejected.
	e, err := New(Config{Graph: g, Policy: nopPolicy{}, Initial: initial(0), ServiceRate: 0})
	if err != nil {
		t.Fatalf("zero initial load must be skipped, got %v", err)
	}
	if got := e.State().Counters().Injected; got != 3 {
		t.Fatalf("Injected = %v, want 3", got)
	}
	if _, err := New(Config{Graph: g, Policy: nopPolicy{}, Initial: initial(-1)}); err != nil {
		t.Fatalf("negative initial load must be skipped, got %v", err)
	}
}

// Arrival loads that are NaN, infinite, zero or negative are dropped by the
// one arrival filter before id assignment and the Injected counter, on the
// inline and the fused parallel tick alike.
func TestArrivalFilterDropsNonFiniteLoads(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1}
	load := func(tick int64, i int) float64 {
		if i%5 == 0 {
			return bad[(i/5+int(tick))%len(bad)]
		}
		return 0.25 + float64((i+int(tick))%7)/8
	}
	const batch = 96
	arr := func(tick int64, _ *rng.RNG) []Arrival {
		out := make([]Arrival, batch)
		for i := range out {
			out[i] = Arrival{Node: int(tick*11+int64(i)*7) % 40, Load: load(tick, i)}
		}
		return out
	}
	const ticks = 40
	wantInjected := 0.0
	for tick := int64(0); tick < ticks; tick++ {
		for i := 0; i < batch; i++ {
			if l := load(tick, i); i%5 != 0 {
				wantInjected += l
			}
		}
	}
	run := func(workers int) []byte {
		e, err := New(Config{
			Graph:         topology.NewTorus(5, 8),
			Policy:        greedyPolicy{},
			Seed:          3,
			Arrivals:      arr,
			ServiceRate:   0.5,
			Workers:       workers,
			SerialCutover: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.Run(ticks)
		s := e.State()
		for v := 0; v < s.Graph().N(); v++ {
			if tot := s.Queue(v).Total(); math.IsNaN(tot) || math.IsInf(tot, 0) {
				t.Fatalf("W%d: node %d queue total %v", workers, v, tot)
			}
		}
		c := s.Counters()
		if c.Injected != wantInjected {
			t.Fatalf("W%d: Injected = %v, want %v (valid loads only)", workers, c.Injected, wantInjected)
		}
		if got := s.TotalLoad() + c.Consumed; math.Abs(got-c.Injected) > 1e-6 {
			t.Fatalf("W%d: conservation broken: resident+inflight+consumed=%v injected=%v", workers, got, c.Injected)
		}
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	if w1, w2 := run(1), run(2); !bytes.Equal(w1, w2) {
		t.Fatal("W1 and W2 snapshots differ")
	}
}
