// Package experiments regenerates every table- and figure-equivalent of the
// paper (see the README's "Experiment index (E1–E14)"). Each experiment
// returns a Report with the tables/series it produced and a set of
// programmatic Checks encoding the "shape claims" the paper makes; the
// go-test benchmarks and cmd/pplb-bench both run through this package, so
// every paper-scale result is reproducible from one entry point,
// `pplb-bench -full`.
package experiments

import (
	"fmt"
	"io"

	"pplb/internal/ascii"
	"pplb/internal/core"
	"pplb/internal/linkmodel"
	"pplb/internal/metrics"
	"pplb/internal/sim"
	"pplb/internal/stats"
	"pplb/internal/taskmodel"
	"pplb/internal/topology"
)

// Size selects the scale of an experiment: Small for benchmarks and CI,
// Full for the paper-scale numbers of `pplb-bench -full`.
type Size int

// Experiment scales.
const (
	Small Size = iota
	Full
)

// Check is one programmatically verified shape claim.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Report is the rendered output of one experiment.
type Report struct {
	ID       string
	Title    string
	Artifact string // which paper artifact this regenerates
	Tables   []*ascii.Table
	Charts   []*ascii.Chart
	Notes    []string
	Checks   []Check
}

func (r *Report) addCheck(name string, pass bool, detail string, args ...interface{}) {
	r.Checks = append(r.Checks, Check{Name: name, Pass: pass, Detail: fmt.Sprintf(detail, args...)})
}

// AllPassed reports whether every check succeeded.
func (r *Report) AllPassed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// FailedChecks lists the names of failed checks.
func (r *Report) FailedChecks() []string {
	var out []string
	for _, c := range r.Checks {
		if !c.Pass {
			out = append(out, c.Name)
		}
	}
	return out
}

// Render writes the full report as text.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	fmt.Fprintf(w, "reproduces: %s\n\n", r.Artifact)
	for _, t := range r.Tables {
		t.Render(w)
		fmt.Fprintln(w)
	}
	for _, c := range r.Charts {
		c.Render(w)
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check [%s] %s: %s\n", status, c.Name, c.Detail)
	}
	fmt.Fprintln(w)
}

// Runner is an experiment entry point.
type Runner func(Size) *Report

// Registry maps experiment ids (and aliases) to runners, in presentation
// order.
var registry = []struct {
	ID     string
	Alias  string
	Run    Runner
	Remark string
}{
	{"E1", "fig1", Fig1Statics, "Eq. (1)/Fig. 1: movement threshold"},
	{"E2", "fig2", Fig2Energy, "Fig. 2: energy ledger"},
	{"E3", "fig3", Fig3Trapping, "Fig. 3/Thm 1: trapping bounds"},
	{"E4", "table1", Table1Sensitivity, "Table 1: parameter mapping"},
	{"E5", "thm2", Thm2Convergence, "Thm 2: convergence"},
	{"E6", "compare", BaselineComparison, "baseline comparison"},
	{"E7", "faults", FaultTolerance, "fault-probability sweep"},
	{"E8", "deps", DependencyAffinity, "dependency affinity sweep"},
	{"E9", "anneal", Annealing, "arbiter cooling sweep"},
	{"E10", "dynamic", DynamicArrivals, "non-quiescent response times"},
	{"E11", "scale", Scalability, "engine scalability"},
	{"E12", "ablate", Ablations, "design-choice ablations"},
	{"E13", "hetero", Heterogeneity, "extension: heterogeneous processor speeds"},
	{"E14", "static", StaticVsDynamic, "static SA mapping vs dynamic balancing"},
}

// IDs returns the experiment ids in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.ID
	}
	return out
}

// Lookup finds a runner by id or alias (case-sensitive), or nil.
func Lookup(name string) Runner {
	for _, r := range registry {
		if r.ID == name || r.Alias == name {
			return r.Run
		}
	}
	return nil
}

// Describe returns "id (alias): remark" lines for help output.
func Describe() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = fmt.Sprintf("%-4s %-8s %s", r.ID, r.Alias, r.Remark)
	}
	return out
}

// RunAll executes every experiment at the given size in order.
func RunAll(size Size) []*Report {
	out := make([]*Report, len(registry))
	for i, r := range registry {
		out[i] = r.Run(size)
	}
	return out
}

// ---- shared simulation helpers ----

// runSpec bundles one simulation run's configuration.
type runSpec struct {
	graph    *topology.Graph
	links    *linkmodel.Params
	policy   sim.Policy
	initial  [][]float64
	seed     uint64
	ticks    int
	service  float64
	arrivals sim.ArrivalFunc
	workers  int
	every    int
}

// simConfig carries the optional dependency matrices into a run.
func simConfig(res *taskmodel.Resources, tg *taskmodel.Graph) sim.Config {
	return sim.Config{Resources: res, TaskGraph: tg}
}

// runResult is what an experiment needs back from a run.
type runResult struct {
	col   *metrics.Collector
	state *sim.State
	cv0   float64
}

func run(spec runSpec, cfg sim.Config) runResult {
	every := spec.every
	if every <= 0 {
		every = 1
	}
	col := metrics.NewCollector(every)
	cfg.Graph = spec.graph
	cfg.Links = spec.links
	cfg.Policy = spec.policy
	cfg.Seed = spec.seed
	cfg.Initial = spec.initial
	cfg.ServiceRate = spec.service
	cfg.Arrivals = spec.arrivals
	cfg.Workers = spec.workers
	cfg.OnTick = col.OnTick
	e, err := sim.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: bad run spec: %v", err))
	}
	cv0 := stats.CV(e.State().Loads())
	e.Run(spec.ticks)
	return runResult{col: col, state: e.State(), cv0: cv0}
}

// meanHops returns the average hop count over all resident tasks.
func meanHops(s *sim.State) float64 {
	st := s.TaskStore()
	total, count := 0, 0
	for v := 0; v < s.Graph().N(); v++ {
		for h := s.Queue(v).Front(); h != taskmodel.NoHandle; h = st.Next(h) {
			total += st.Hops(h)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}

// defaultPPLB returns the standard experiment configuration of the core
// balancer (greedy arbiter for deterministic experiments unless noted).
func defaultPPLB() *core.Balancer {
	return core.New(core.DefaultConfig())
}
