// Command pplb-sim runs one load-balancing scenario and reports balance
// quality, cost counters and (optionally) a CSV of the per-tick series.
//
// Usage examples:
//
//	pplb-sim -topology torus:8x8 -policy pplb -load hotspot -tasks 256 -ticks 1000
//	pplb-sim -topology hypercube:6 -policy diffusion -load random -seed 7
//	pplb-sim -topology mesh:8x8 -policy pplb -faults 0.2 -csv run.csv
//	pplb-sim -topology torus:8x8 -ticks 500 -checkpoint state.snap
//	pplb-sim -topology torus:8x8 -ticks 500 -resume state.snap   # ticks 500..1000
//
// -checkpoint writes the engine snapshot after the run; -resume starts from
// a snapshot instead of the initial load (the topology, policy, seed, fault
// and service flags must match the checkpointing run — mismatches are
// rejected). Resume is bit-identical: checkpointing at tick K and resuming
// for the remaining ticks lands on exactly the state of an uninterrupted
// run.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"pplb"
	"pplb/internal/ascii"
)

// parseTopology builds the graph a -topology spec names. It rejects sizes
// that would build an empty or malformed graph, or one too large for the
// graph's int32 CSR offsets.
func parseTopology(spec string) (*pplb.Graph, error) {
	name, arg, _ := strings.Cut(spec, ":")
	switch name {
	case "mesh", "torus":
		var r, c int
		if _, err := fmt.Sscanf(arg, "%dx%d", &r, &c); err != nil {
			return nil, fmt.Errorf("bad dimensions %q (want RxC)", arg)
		}
		if r < 1 || c < 1 {
			return nil, fmt.Errorf("%s dimensions %q must be at least 1x1", name, arg)
		}
		if name == "mesh" {
			return pplb.Mesh(r, c), nil
		}
		return pplb.Torus(r, c), nil
	}
	f, ok := sizedTopologies[name]
	if !ok {
		return nil, fmt.Errorf("unknown topology %q (mesh|torus|hypercube|ring|star|complete|rr|ccc)", name)
	}
	var n int
	if _, err := fmt.Sscanf(arg, "%d", &n); err != nil {
		return nil, fmt.Errorf("bad size %q", arg)
	}
	if n < f.least {
		return nil, fmt.Errorf("%s size %d must be at least %d", name, n, f.least)
	}
	if f.cube > 0 && (n > 30 || f.cube*n<<n > math.MaxInt32) {
		return nil, fmt.Errorf("%s dimension %d is too large", name, n)
	}
	return f.build(n), nil
}

// sizedTopologies are the -topology families with one size argument: the
// smallest valid size and the constructor. A hypercube-like family of
// dimension d also sets cube = k for its k·d·2^d neighbour slots, which must
// fit the graph's int32 CSR offsets.
var sizedTopologies = map[string]struct {
	least, cube int
	build       func(n int) *pplb.Graph
}{
	"hypercube": {0, 1, pplb.Hypercube},
	"ring":      {1, 0, pplb.Ring},
	"star":      {1, 0, pplb.Star},
	"complete":  {1, 0, pplb.Complete},
	// Degree 4 must be less than n.
	"rr":  {5, 0, func(n int) *pplb.Graph { return pplb.RandomRegular(n, 4, 99) }},
	"ccc": {1, 3, pplb.CCC},
}

// checkFaults rejects a -faults value that is not a probability, NaN
// included, rather than letting the link model ignore or clamp it.
func checkFaults(p float64) error {
	if !(p >= 0 && p <= 1) {
		return fmt.Errorf("-faults %v is not a probability in [0, 1]", p)
	}
	return nil
}

func parsePolicy(name string, g *pplb.Graph) (pplb.Policy, error) {
	switch name {
	case "pplb":
		return pplb.NewBalancer(pplb.DefaultBalancerConfig()), nil
	case "pplb-greedy":
		cfg := pplb.DefaultBalancerConfig()
		cfg.Arbiter = pplb.GreedyArbiter{}
		return pplb.NewBalancer(cfg), nil
	case "diffusion":
		return pplb.DiffusionPolicy(0), nil
	case "dimexchange":
		return pplb.DimensionExchangePolicy(g), nil
	case "gm":
		return pplb.GradientModelPolicy(), nil
	case "cwn":
		return pplb.CWNPolicy(0), nil
	case "random":
		return pplb.RandomSenderPolicy(), nil
	case "none":
		return pplb.NoPolicy(), nil
	}
	return nil, fmt.Errorf("unknown policy %q", name)
}

func parseLoad(name string, n, tasks int, size float64, seed uint64) ([][]float64, error) {
	switch name {
	case "hotspot":
		return pplb.HotspotLoad(n, 0, tasks, size), nil
	case "multihotspot":
		return pplb.MultiHotspotLoad(n, 4, tasks, size), nil
	case "random":
		return pplb.UniformRandomLoad(n, tasks, size, seed), nil
	case "staircase":
		return pplb.StaircaseLoad(n, size), nil
	case "bimodal":
		return pplb.BimodalLoad(n, tasks, size, size*8, 0.2, seed), nil
	case "equal":
		return pplb.EqualLoad(n, tasks/n, size), nil
	}
	return nil, fmt.Errorf("unknown load %q", name)
}

func main() {
	topoFlag := flag.String("topology", "torus:8x8", "topology spec: mesh:RxC torus:RxC hypercube:D ring:N star:N complete:N rr:N ccc:D")
	policyFlag := flag.String("policy", "pplb", "pplb|pplb-greedy|diffusion|dimexchange|gm|cwn|random|none")
	loadFlag := flag.String("load", "hotspot", "hotspot|multihotspot|random|staircase|bimodal|equal")
	tasks := flag.Int("tasks", 256, "number of initial tasks")
	taskSize := flag.Float64("size", 0.5, "load per task")
	ticks := flag.Int("ticks", 1000, "simulation ticks")
	seed := flag.Uint64("seed", 1, "run seed")
	faults := flag.Float64("faults", 0, "uniform link fault probability")
	service := flag.Float64("service", 0, "per-node service rate (0 = quiescent)")
	workers := flag.Int("workers", 1, "planning goroutines")
	csvPath := flag.String("csv", "", "write per-tick series to this CSV file")
	checkpointPath := flag.String("checkpoint", "", "write the engine snapshot to this file after the run")
	resumePath := flag.String("resume", "", "resume from a snapshot file instead of the initial load (other flags must match the checkpointing run)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "pplb-sim: %v\n", err)
		os.Exit(1)
	}

	if err := checkFaults(*faults); err != nil {
		fail(err)
	}
	g, err := parseTopology(*topoFlag)
	if err != nil {
		fail(err)
	}
	policy, err := parsePolicy(*policyFlag, g)
	if err != nil {
		fail(err)
	}
	opts := []pplb.Option{
		pplb.WithSeed(*seed),
		pplb.WithWorkers(*workers),
		pplb.WithServiceRate(*service),
	}
	if *faults > 0 {
		opts = append(opts, pplb.WithLinks(pplb.Links(g, pplb.WithUniformFault(*faults))))
	}
	var sys *pplb.System
	if *resumePath != "" {
		// The snapshot carries the full task population; -load/-tasks/-size
		// apply only to fresh runs.
		snap, err := os.ReadFile(*resumePath)
		if err != nil {
			fail(err)
		}
		sys, err = pplb.RestoreSystem(g, policy, snap, opts...)
		if err != nil {
			fail(err)
		}
	} else {
		init, err := parseLoad(*loadFlag, g.N(), *tasks, *taskSize, *seed)
		if err != nil {
			fail(err)
		}
		sys, err = pplb.NewSystem(g, policy, append(opts, pplb.WithInitial(init))...)
		if err != nil {
			fail(err)
		}
	}
	cv0 := sys.CV()
	sys.Run(*ticks)

	c := sys.Counters()
	tb := ascii.NewTable(fmt.Sprintf("pplb-sim: %s / %s / %s (%d ticks, seed %d)",
		g.Name(), policy.Name(), *loadFlag, *ticks, *seed),
		"metric", "value")
	tb.AddRow("CV start", cv0)
	tb.AddRow("CV final", sys.CV())
	tb.AddRow("max load", maxOf(sys.Loads()))
	tb.AddRow("min load", minOf(sys.Loads()))
	tb.AddRow("migrations", c.Migrations)
	tb.AddRow("traffic", c.Traffic)
	tb.AddRow("faults", c.Faults)
	tb.AddRow("bounced traffic", c.BouncedTraffic)
	tb.AddRow("rejected proposals", c.Rejected)
	if *service > 0 {
		rt := sys.State().ResponseTimes()
		tb.AddRow("tasks completed", c.TasksCompleted)
		tb.AddRow("mean response", rt.Mean())
	}
	tb.Render(os.Stdout)
	fmt.Printf("cv trend: %s\n", ascii.Sparkline(sys.Metrics().CV))

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := sys.Metrics().Frame().WriteCSV(f); err != nil {
			fail(err)
		}
		fmt.Printf("series written to %s\n", *csvPath)
	}

	if *checkpointPath != "" {
		snap, err := sys.Snapshot()
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*checkpointPath, snap, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("checkpoint written to %s (%d bytes)\n", *checkpointPath, len(snap))
	}
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}
