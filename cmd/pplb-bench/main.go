// Command pplb-bench regenerates the paper's tables and figures (experiments
// E1–E14; see the README's "Experiment index (E1–E14)") and prints them with
// their shape checks.
//
// Usage:
//
//	pplb-bench [-full] [-list] [-out FILE] [-checks FILE] [-benchjson FILE] [experiment ...]
//
// With no arguments it runs the whole registry. Experiments are named by id
// (E1..E14) or alias (fig1, fig2, fig3, table1, thm2, compare, faults, deps,
// anneal, dynamic, scale, ablate, hetero, static). -full selects the
// paper-scale parameters (slower); the default is the quick variant.
// -checks writes a machine-readable JSON summary of all shape checks (a CI
// gate). -benchjson runs the engine tick micro-benchmarks instead of the
// experiment registry and writes a machine-readable record of ns/op,
// allocs/op and heap/GC deltas per scenario, plus the worker sweeps'
// parallel speedup. It is one sample per scenario: performance claims come
// from the repeated, bounded runs of the end-to-end benchmark under
// benchmark/. -cpuprofile/-memprofile write pprof profiles of whatever the
// invocation ran (experiments or benchmarks).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"

	"pplb"
)

// benchRecord is the machine-readable output of -benchjson. GOMAXPROCS and
// NumCPU pin the host parallelism the numbers were measured under — the
// parallel scenarios scale with both.
type benchRecord struct {
	Schema     string           `json:"schema"` // "pplb-bench/7"
	GoVersion  string           `json:"go_version"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"num_cpu"`
	Benchmarks []benchmarkEntry `json:"benchmarks"`

	// ParallelSweeps (since schema pplb-bench/5) summarises the worker-count scans
	// of pplb.ParallelSweeps into per-count ns/op and the headline W8-vs-W1
	// ratio. The numbers are only meaningful on a host whose GOMAXPROCS
	// covers the swept counts — a single-core machine measures fused dispatch
	// overhead, not scaling — which is why the multi-core CI bench job, not
	// the merge gate, reads parallel_speedup.
	ParallelSweeps []sweepEntry `json:"parallel_sweeps,omitempty"`
}

// sweepEntry is one computed worker sweep. NsPerOpByWorkers keys are decimal
// worker counts ("1", "2", "4", "8"); ParallelSpeedup is W1 ns / W8 ns,
// omitted (0) when a sweep scenario is missing from the run.
type sweepEntry struct {
	Sweep            string             `json:"sweep"`
	NsPerOpByWorkers map[string]float64 `json:"ns_per_op_by_workers"`
	ParallelSpeedup  float64            `json:"parallel_speedup,omitempty"`
}

type benchmarkEntry struct {
	Name        string  `json:"name"` // as `go test -bench` prints it, e.g. "BenchmarkTick/PPLBTorus256"
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`

	// Memory observability (schema pplb-bench/4): heap in use when the
	// benchmark finished, and the GC cycles and stop-the-world pause time
	// the whole measurement (setup + timed iterations) incurred. A
	// steady-state scenario at 0 allocs/op should hold GCCycles at or near
	// zero no matter how long the benchmark loop spins — growth here means
	// the scan set or allocation rate regressed even if ns/op did not.
	HeapInuseBytes uint64 `json:"heap_inuse_bytes"`
	GCCycles       uint32 `json:"gc_cycles"`
	GCPauseTotalNs uint64 `json:"gc_pause_total_ns"`

	// TopologyEpochs (schema pplb-bench/6) is the topology epoch the system
	// reached when the measurement finished: 0 for static scenarios, >0 for
	// churn scenarios, where it records how many reconfigurations the
	// benchmark loop amortised into its ns/op.
	TopologyEpochs int64 `json:"topology_epochs,omitempty"`
}

// benchName is the name `go test -bench` prints for a tick scenario: the
// sub-benchmark of BenchmarkTick named after the scenario minus its "Tick"
// prefix.
func benchName(scenario string) string {
	return "BenchmarkTick/" + strings.TrimPrefix(scenario, "Tick")
}

func runBenchJSON(path string, scenarios []pplb.TickBenchScenario, stdout io.Writer) error {
	rec := benchRecord{
		Schema:     "pplb-bench/7",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	// Open the output before spending minutes benchmarking, so a bad path
	// fails immediately.
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// The scenario table is shared with the go-test BenchmarkTick
	// benchmark, so -benchjson numbers are directly comparable to its
	// sub-benchmarks and carry the same names.
	for _, bm := range scenarios {
		sys, err := bm.New()
		if err != nil {
			f.Close()
			os.Remove(path) // don't leave a truncated record behind
			return fmt.Errorf("%s: %w", bm.Name, err)
		}
		step := func(int) error { sys.Step(); return nil }
		if bm.NewTick != nil {
			step = bm.NewTick(sys)
		}
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		var stepErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := step(i); err != nil {
					stepErr = err
					b.FailNow()
				}
			}
		})
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		epochs := sys.Epoch()
		sys.Close()
		if stepErr != nil {
			f.Close()
			os.Remove(path)
			return fmt.Errorf("%s: %w", bm.Name, stepErr)
		}
		name := benchName(bm.Name)
		entry := benchmarkEntry{
			Name:           name,
			Iterations:     r.N,
			NsPerOp:        float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:     r.AllocedBytesPerOp(),
			AllocsPerOp:    r.AllocsPerOp(),
			HeapInuseBytes: after.HeapInuse,
			GCCycles:       after.NumGC - before.NumGC,
			GCPauseTotalNs: after.PauseTotalNs - before.PauseTotalNs,
			TopologyEpochs: epochs,
		}
		rec.Benchmarks = append(rec.Benchmarks, entry)
		fmt.Fprintf(stdout, "%-46s %12.0f ns/op %8d B/op %6d allocs/op %3d GCs %8.2f MiB heap\n",
			name, entry.NsPerOp, entry.BytesPerOp, entry.AllocsPerOp,
			entry.GCCycles, float64(entry.HeapInuseBytes)/(1<<20))
	}
	nsByName := make(map[string]float64, len(rec.Benchmarks))
	for _, e := range rec.Benchmarks {
		nsByName[e.Name] = e.NsPerOp
	}
	for _, sw := range pplb.ParallelSweeps() {
		e := sweepEntry{Sweep: sw.Name, NsPerOpByWorkers: make(map[string]float64, len(sw.Scenarios))}
		for w, scen := range sw.Scenarios {
			if ns, ok := nsByName[benchName(scen)]; ok {
				e.NsPerOpByWorkers[strconv.Itoa(w)] = ns
			}
		}
		if len(e.NsPerOpByWorkers) == 0 {
			continue // sweep not covered by this run (e.g. a filtered scenario list)
		}
		if w1, w8 := e.NsPerOpByWorkers["1"], e.NsPerOpByWorkers["8"]; w1 > 0 && w8 > 0 {
			e.ParallelSpeedup = w1 / w8
			fmt.Fprintf(stdout, "sweep %-40s %12.2fx W8-vs-W1 speedup (GOMAXPROCS=%d)\n",
				sw.Name, e.ParallelSpeedup, rec.GOMAXPROCS)
		}
		rec.ParallelSweeps = append(rec.ParallelSweeps, e)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	// A close error means a short write: the record on disk is not trustworthy.
	if err := f.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind a testable face: flags in, exit code out
// (0 ok, 1 failed checks or I/O errors, 2 usage errors).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pplb-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	full := fs.Bool("full", false, "run the paper-scale (slow) variants")
	out := fs.String("out", "", "also write the reports to this file")
	checksPath := fs.String("checks", "", "write a machine-readable JSON summary of all checks to this file")
	benchJSON := fs.String("benchjson", "", "run the engine tick micro-benchmarks and write a machine-readable record to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken at exit to this file")
	list := fs.Bool("list", false, "list available experiments and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: pplb-bench [-full] [-list] [-out FILE] [-checks FILE] [-benchjson FILE] [-cpuprofile FILE] [-memprofile FILE] [experiment ...]\n\nexperiments:\n")
		for _, d := range pplb.ExperimentDescriptions() {
			fmt.Fprintf(stderr, "  %s\n", d)
		}
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h prints usage and succeeds, as under flag.ExitOnError
		}
		return 2
	}

	if *list {
		for _, d := range pplb.ExperimentDescriptions() {
			fmt.Fprintln(stdout, d)
		}
		return 0
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "pplb-bench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "pplb-bench: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "pplb-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush pending frees so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "pplb-bench: %v\n", err)
			}
		}()
	}

	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON, pplb.TickBenchScenarios(), stdout); err != nil {
			fmt.Fprintf(stderr, "pplb-bench: %v\n", err)
			return 1
		}
		return 0
	}

	var w io.Writer = stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "pplb-bench: %v\n", err)
			return 1
		}
		defer f.Close()
		w = io.MultiWriter(stdout, f)
	}

	names := fs.Args()
	if len(names) == 0 {
		names = pplb.ExperimentIDs()
	}
	type checkJSON struct {
		Experiment string `json:"experiment"`
		Check      string `json:"check"`
		Pass       bool   `json:"pass"`
		Detail     string `json:"detail"`
	}
	var allChecks []checkJSON
	failed := 0
	for _, name := range names {
		r := pplb.RunExperiment(name, *full)
		if r == nil {
			fmt.Fprintf(stderr, "pplb-bench: unknown experiment %q (try -list)\n", name)
			return 2
		}
		r.Render(w)
		for _, c := range r.Checks {
			allChecks = append(allChecks, checkJSON{Experiment: r.ID, Check: c.Name, Pass: c.Pass, Detail: c.Detail})
		}
		if !r.AllPassed() {
			failed++
			fmt.Fprintf(stderr, "pplb-bench: %s failed checks: %v\n", r.ID, r.FailedChecks())
		}
	}
	if *checksPath != "" {
		f, err := os.Create(*checksPath)
		if err != nil {
			fmt.Fprintf(stderr, "pplb-bench: %v\n", err)
			return 1
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(allChecks); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "pplb-bench: %v\n", err)
			return 1
		}
		f.Close()
	}
	if failed > 0 {
		return 1
	}
	return 0
}
