// Command pplb-surface renders the load surface (the M3 manifold of §4.1)
// of a mesh/torus simulation as ASCII heatmap frames, making the
// particle-and-plane analogy visible: the hotspot is a hill that erodes as
// tasks slide into the surrounding valleys.
//
// Usage:
//
//	pplb-surface [-topology torus:16x16] [-policy pplb] [-ticks 600] [-frames 8]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pplb"
	"pplb/internal/ascii"
)

// parseGridTopology parses the mesh:RxC / torus:RxC specs this renderer is
// restricted to (only grids have a 2-D heatmap layout), returning the graph
// together with its grid dimensions.
func parseGridTopology(spec string) (g *pplb.Graph, rows, cols int, err error) {
	var mk func(int, int) *pplb.Graph
	switch {
	case strings.HasPrefix(spec, "mesh:"):
		mk = pplb.Mesh
		if _, err := fmt.Sscanf(spec, "mesh:%dx%d", &rows, &cols); err != nil {
			return nil, 0, 0, fmt.Errorf("bad topology %q", spec)
		}
	case strings.HasPrefix(spec, "torus:"):
		mk = pplb.Torus
		if _, err := fmt.Sscanf(spec, "torus:%dx%d", &rows, &cols); err != nil {
			return nil, 0, 0, fmt.Errorf("bad topology %q", spec)
		}
	default:
		return nil, 0, 0, fmt.Errorf("surface rendering needs a mesh or torus, got %q", spec)
	}
	if rows < 1 || cols < 1 {
		return nil, 0, 0, fmt.Errorf("bad dimensions in %q", spec)
	}
	return mk(rows, cols), rows, cols, nil
}

// parsePolicy builds the named policy for g.
func parsePolicy(name string, g *pplb.Graph) (pplb.Policy, error) {
	switch name {
	case "pplb":
		return pplb.NewBalancer(pplb.DefaultBalancerConfig()), nil
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

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "pplb-surface: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable face.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pplb-surface", flag.ContinueOnError)
	fs.SetOutput(stderr)
	topoFlag := fs.String("topology", "torus:16x16", "mesh:RxC or torus:RxC")
	policyFlag := fs.String("policy", "pplb", "pplb|diffusion|dimexchange|gm|cwn|random|none")
	tasks := fs.Int("tasks", 512, "initial tasks at the hotspot")
	ticks := fs.Int("ticks", 600, "total simulation ticks")
	frames := fs.Int("frames", 8, "number of heatmap frames to print")
	seed := fs.Uint64("seed", 1, "run seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h prints usage and succeeds, as under flag.ExitOnError
		}
		return err
	}

	g, rows, cols, err := parseGridTopology(*topoFlag)
	if err != nil {
		return err
	}
	policy, err := parsePolicy(*policyFlag, g)
	if err != nil {
		return err
	}

	// Hotspot in the middle of the grid.
	centre := (rows/2)*cols + cols/2
	sys, err := pplb.NewSystem(g, policy,
		pplb.WithInitial(pplb.HotspotLoad(g.N(), centre, *tasks, 0.5)),
		pplb.WithSeed(*seed),
	)
	if err != nil {
		return err
	}

	if *frames < 1 {
		*frames = 1
	}
	step := *ticks / *frames
	if step < 1 {
		step = 1
	}
	// The M3 manifold view (§4.1): node r*cols+c of a mesh or torus sits at
	// row r, column c, so the heights slice row-major into the grid.
	printFrame := func() {
		h := sys.Heights()
		grid := make([][]float64, rows)
		for r := range grid {
			grid[r] = h[r*cols : (r+1)*cols]
		}
		ascii.Heatmap(stdout, fmt.Sprintf("tick %d  cv=%.3f", sys.State().Tick(), sys.CV()), grid)
		fmt.Fprintln(stdout)
	}
	printFrame()
	for done := 0; done < *ticks; done += step {
		n := step
		if done+n > *ticks {
			n = *ticks - done
		}
		sys.Run(n)
		printFrame()
	}
	fmt.Fprintf(stdout, "final: %s\n", summaryLine(sys))
	return nil
}

func summaryLine(sys *pplb.System) string {
	c := sys.Counters()
	return fmt.Sprintf("cv=%.4f migrations=%d traffic=%.4g faults=%d",
		sys.CV(), c.Migrations, c.Traffic, c.Faults)
}
