package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pplb"
)

func TestRunList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	for _, want := range []string{"E1", "E14", "compare"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-bogusflag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	if code := run([]string{"E999"}, &out, &errb); code != 2 {
		t.Fatalf("unknown experiment: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown experiment") {
		t.Fatalf("missing diagnostic:\n%s", errb.String())
	}
}

// TestRunTinyExperiment runs the quickest registered experiment end to end
// with -checks and -out, and validates both output files.
func TestRunTinyExperiment(t *testing.T) {
	dir := t.TempDir()
	checks := filepath.Join(dir, "checks.json")
	outFile := filepath.Join(dir, "report.txt")
	var out, errb bytes.Buffer
	if code := run([]string{"-checks", checks, "-out", outFile, "E1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	data, err := os.ReadFile(checks)
	if err != nil {
		t.Fatal(err)
	}
	var parsed []struct {
		Experiment string `json:"experiment"`
		Check      string `json:"check"`
		Pass       bool   `json:"pass"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("checks file: %v", err)
	}
	if len(parsed) == 0 {
		t.Fatal("no checks recorded")
	}
	for _, c := range parsed {
		if c.Experiment != "E1" {
			t.Fatalf("check from wrong experiment: %+v", c)
		}
		if !c.Pass {
			t.Fatalf("E1 check failed: %+v", c)
		}
	}
	if report, err := os.ReadFile(outFile); err != nil || len(report) == 0 {
		t.Fatalf("-out report missing or empty (err=%v)", err)
	}
}

// tinyScenario is a fast stand-in for the production scenario table so the
// -benchjson path is testable without multi-minute benchmark runs.
func tinyScenario(name string) pplb.TickBenchScenario {
	return pplb.TickBenchScenario{
		Name: name,
		New: func() (*pplb.System, error) {
			g := pplb.Ring(4)
			return pplb.NewSystem(g, pplb.NoPolicy(),
				pplb.WithInitial(pplb.EqualLoad(g.N(), 1, 0.5)),
				pplb.WithSeed(1),
				pplb.WithMetricsEvery(1<<30),
			)
		},
	}
}

// TestBenchJSONDelta checks the -benchjson record: schema, host metadata
// and one entry per scenario under its go-test benchmark name, with no
// baseline or per-entry delta left in it.
func TestBenchJSONDelta(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "bench.json")
	var stdout bytes.Buffer
	scenarios := []pplb.TickBenchScenario{tinyScenario("TickTiny"), tinyScenario("TickTinyTwo")}
	if err := runBenchJSON(outPath, scenarios, &stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rec benchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Schema != "pplb-bench/7" {
		t.Fatalf("schema %q", rec.Schema)
	}
	if rec.GoVersion == "" || rec.GOOS == "" || rec.GOARCH == "" || rec.GOMAXPROCS <= 0 || rec.NumCPU <= 0 {
		t.Fatalf("host metadata missing: %+v", rec)
	}
	if len(rec.ParallelSweeps) != 0 {
		t.Fatalf("tiny scenarios cover no sweep, got %+v", rec.ParallelSweeps)
	}
	if len(rec.Benchmarks) != len(scenarios) {
		t.Fatalf("%d benchmarks recorded, want %d", len(rec.Benchmarks), len(scenarios))
	}
	for i, want := range []string{"BenchmarkTick/Tiny", "BenchmarkTick/TinyTwo"} {
		e := rec.Benchmarks[i]
		if e.Name != want || e.NsPerOp <= 0 || e.Iterations <= 0 {
			t.Fatalf("entry %d: %+v, want name %s with positive ns/op and iterations", i, e, want)
		}
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("%s not printed:\n%s", want, stdout.String())
		}
	}
	for _, gone := range []string{`"baseline"`, `"delta_ns_pct"`} {
		if bytes.Contains(data, []byte(gone)) {
			t.Fatalf("record still carries %s:\n%s", gone, data)
		}
	}
	if strings.Contains(stdout.String(), "% vs ") {
		t.Fatalf("delta still printed:\n%s", stdout.String())
	}
}

// TestBenchJSONBaselineErrors pins the error contract: -baseline is no
// longer a flag, and a scenario that cannot be built fails the run while
// the already created output is removed rather than left looking like a
// result.
func TestBenchJSONBaselineErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-baseline", "x"}, &out, &errb); code != 2 {
		t.Fatalf("removed -baseline flag: exit %d, want 2", code)
	}
	dir := t.TempDir()
	var stdout bytes.Buffer
	broken := pplb.TickBenchScenario{
		Name: "TickBroken",
		New:  func() (*pplb.System, error) { return nil, errors.New("no system") },
	}
	failPath := filepath.Join(dir, "failed.json")
	if err := runBenchJSON(failPath, []pplb.TickBenchScenario{broken}, &stdout); err == nil || !strings.Contains(err.Error(), "TickBroken") {
		t.Fatalf("broken scenario: err = %v, want one naming TickBroken", err)
	}
	if _, err := os.Stat(failPath); !os.IsNotExist(err) {
		t.Fatalf("failed run left a record behind (stat err = %v)", err)
	}
}

// TestBenchJSONParallelSweeps runs scenarios named after a real worker sweep
// (tiny systems — the names, not the workloads, drive the sweep section) and
// checks the computed parallel_speedup record.
func TestBenchJSONParallelSweeps(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "bench.json")
	var stdout bytes.Buffer
	sweep := pplb.ParallelSweeps()[0] // Torus16384
	var scenarios []pplb.TickBenchScenario
	for _, name := range sweep.Scenarios {
		scenarios = append(scenarios, tinyScenario(name))
	}
	if err := runBenchJSON(outPath, scenarios, &stdout); err != nil {
		t.Fatal(err)
	}
	var rec benchRecord
	data, _ := os.ReadFile(outPath)
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.ParallelSweeps) != 1 {
		t.Fatalf("%d sweeps recorded, want 1 (only %s is covered): %+v",
			len(rec.ParallelSweeps), sweep.Name, rec.ParallelSweeps)
	}
	got := rec.ParallelSweeps[0]
	if got.Sweep != sweep.Name {
		t.Fatalf("sweep %q, want %q", got.Sweep, sweep.Name)
	}
	if len(got.NsPerOpByWorkers) != len(sweep.Scenarios) {
		t.Fatalf("ns_per_op_by_workers covers %d counts, want %d: %+v",
			len(got.NsPerOpByWorkers), len(sweep.Scenarios), got)
	}
	for w, ns := range got.NsPerOpByWorkers {
		if ns <= 0 {
			t.Fatalf("W%s recorded non-positive ns/op: %+v", w, got)
		}
	}
	if want := got.NsPerOpByWorkers["1"] / got.NsPerOpByWorkers["8"]; got.ParallelSpeedup != want {
		t.Fatalf("parallel_speedup = %v, want W1/W8 = %v", got.ParallelSpeedup, want)
	}
	if !strings.Contains(stdout.String(), "W8-vs-W1 speedup") {
		t.Fatalf("sweep summary not printed:\n%s", stdout.String())
	}
}
