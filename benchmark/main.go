// Command benchmark is the repository's end-to-end benchmark. It drives the
// engine through the pplb facade on four workloads, prints every
// end-to-end metric with its unit, checks the results, and with -trace 1
// repeats each workload traced to attribute its time to layers. -compare
// judges two sets of recorded runs against the metrics' bounds. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is one workload run, as printed and as appended to -out.
type result struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    int               `json:"seconds"`
	Reps       int               `json:"reps"`
	Workers    int               `json:"workers"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	Traced     bool              `json:"traced"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Digest     string            `json:"digest"`
	Metrics    map[string]metric `json:"metrics"`
	Checks     []*tally          `json:"checks"`
	Errors     []string          `json:"errors,omitempty"` // operations that failed
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed the workload inputs are made from")
	seconds := fs.Int("seconds", 10, "time budget of each workload: reps repeat while another fits")
	trace := fs.Int("trace", 0, "1 also runs each workload traced and reports the per-layer metrics")
	out := fs.String("out", "", "append one JSON result line per workload to this file")
	spansPath := fs.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
	cmp := fs.Bool("compare", false, "compare two -out files: -compare BASE NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare BASE.jsonl NEW.jsonl")
			return 2
		}
		if err := compare(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fs.Usage()
		return 2
	}
	selected := workloads
	if *name != "all" {
		i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
		if i < 0 {
			fmt.Fprintf(stderr, "unknown workload %q\n", *name)
			return 2
		}
		selected = workloads[i : i+1]
	}
	cfg := config{seed: *seed, budget: time.Duration(*seconds) * time.Second}
	var results []result
	traces := map[string][]span{}
	for _, w := range selected {
		res, spans := runWorkload(w, cfg, *trace == 1)
		printResult(stdout, res)
		results = append(results, res)
		if spans != nil {
			traces[w.name] = spans
		}
	}
	if *out != "" {
		if err := appendResults(*out, results); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if *spansPath != "" {
		if err := writeJSON(*spansPath, traces); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	line, err := summaryLine(results, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// execute runs w once and checks that its final state matches the pinned
// digest, when it ran at full size from the default seed.
func execute(w workload, cfg config, tr *tracer) *runner {
	r := newRunner(cfg, tr)
	w.run(r, w.workers)
	if cfg.seed == 1 && !cfg.smoke && r.digest != "" {
		var mismatch error
		if r.digest != w.pinned {
			mismatch = fmt.Errorf("digest %s, pinned %s", r.digest, w.pinned)
		}
		r.check("digest matches pin", mismatch)
	}
	return r
}

// runWorkload runs w untraced and, when traced is set, again with tracing
// on; the per-layer metrics and the traced run's checks join the result.
// The two runs share the time budget, so a traced run takes no longer.
func runWorkload(w workload, cfg config, traced bool) (result, []span) {
	seconds := int(cfg.budget / time.Second)
	if traced {
		cfg.budget /= 2
	}
	r := execute(w, cfg, nil)
	res := result{
		Workload: w.name, Seed: cfg.seed, Seconds: seconds, Reps: r.reps, Workers: w.workers,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Traced: traced, Metrics: r.endToEnd(), Checks: r.checks, Errors: r.errs, Digest: r.digest,
		Attempted: r.attempted(), Failed: r.failed(),
	}
	var spans []span
	if traced {
		tr := newTracer()
		rt := execute(w, cfg, tr)
		var differ error
		if rt.digest != r.digest {
			differ = fmt.Errorf("traced %s, untraced %s", rt.digest, r.digest)
		}
		rt.check("digest equals untraced", differ)
		base := median(r.samples["tick_ms"])
		overhead := 100 * ratio(median(rt.samples["tick_ms"])-base, base)
		for name, v := range tr.layers(overhead) {
			d, _ := lookupDef(name)
			res.Metrics[name] = metric{Value: v, Unit: d.unit}
		}
		for _, t := range rt.checks {
			t.Name = "traced: " + t.Name
		}
		res.Checks = append(res.Checks, rt.checks...)
		for _, e := range rt.errs {
			res.Errors = append(res.Errors, "traced: "+e)
		}
		res.Attempted += rt.attempted()
		res.Failed += rt.failed()
		spans = tr.spans
	}
	res.Correct = res.Failed == 0
	return res, spans
}

func printResult(w io.Writer, res result) {
	fmt.Fprintf(w, "%s  seed=%d seconds=%d reps=%d workers=%d GOMAXPROCS=%d NumCPU=%d %s\n",
		res.Workload, res.Seed, res.Seconds, res.Reps, res.Workers, res.GOMAXPROCS, res.NumCPU, res.GoVersion)
	for _, d := range slices.Concat(endToEnd, perLayer) {
		m, ok := res.Metrics[d.name]
		if !ok {
			continue
		}
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-6s %s\n", d.name, m.Value, m.Unit, n)
	}
	for _, c := range res.Checks {
		status := "ok"
		if c.Failed > 0 {
			status = "FAIL " + c.Detail
		}
		fmt.Fprintf(w, "  check %-40s %d/%d %s\n", c.Name, c.Passed, c.Passed+c.Failed, status)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  error %s\n", e)
	}
	fmt.Fprintf(w, "  digest %s\n", res.Digest)
}

// summaryLine is the one-line JSON verdict printed last: correctness, the
// operation counts, and the metrics BENCHMARK.json declares — end-to-end
// ones untraced, per-layer ones with -trace 1. With several workloads the
// metric names are prefixed with the workload's.
func summaryLine(results []result, traced bool, stderr io.Writer) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	var missing []string
	for _, res := range results {
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for _, name := range declaredNames(traced) {
			key := name
			if len(results) > 1 {
				key = res.Workload + "/" + name
			}
			m, ok := res.Metrics[name]
			if !ok {
				missing = append(missing, key)
				continue
			}
			line.Metrics[key] = value{m.Value, m.Unit}
		}
	}
	if len(missing) > 0 {
		line.Correct = false
		fmt.Fprintf(stderr, "declared metrics not produced: %s\n", strings.Join(missing, ", "))
	}
	b, err := json.Marshal(line)
	return string(b), err
}

func appendResults(path string, results []result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, res := range results {
		if err := enc.Encode(res); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
