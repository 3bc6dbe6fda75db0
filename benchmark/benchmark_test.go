package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"pplb"
	"pplb/internal/sim"
)

var smoke = config{seed: 1, smoke: true}

func workloadNamed(t *testing.T, name string) workload {
	t.Helper()
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
	if i < 0 {
		t.Fatalf("no workload %q", name)
	}
	return workloads[i]
}

func failedChecks(res result) []string {
	var out []string
	for _, c := range res.Checks {
		if c.Failed > 0 {
			out = append(out, c.Name+": "+c.Detail)
		}
	}
	return out
}

// declaration is the part of BENCHMARK.json the code must agree with.
type declaration struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestDeclarationMatchesCode holds BENCHMARK.json to the metric tables:
// it declares exactly the metrics marked declared, with the code's units,
// directions and bounds.
func TestDeclarationMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declaration
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	var got []def
	for _, m := range decl.EndToEnd {
		got = append(got, def{m.Name, m.Unit, m.Better == "higher", m.Bound, true})
	}
	for _, m := range decl.PerLayer {
		got = append(got, def{m.Name, m.Unit, m.Better == "higher", 0, true})
	}
	var want []def
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if d.declared {
			want = append(want, d)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json declares\n%v\nthe code declares\n%v", got, want)
	}
}

// TestWorkloadsSmoke runs every workload at smoke size, untraced and traced.
// Every check must pass, the traced run must end in the untraced run's
// state, and the output must print every declared metric with its unit and
// every per-layer metric.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		res, spans := runWorkload(w, smoke, true)
		if !res.Correct {
			t.Errorf("%s: failed checks %v, errors %v", w.name, failedChecks(res), res.Errors)
		}
		i := slices.IndexFunc(res.Checks, func(c *tally) bool { return c.Name == "traced: digest equals untraced" })
		if i < 0 || res.Checks[i].Passed != 1 {
			t.Errorf("%s: traced and untraced digests were not compared equal", w.name)
		}
		if len(spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", w.name)
		}
		var out bytes.Buffer
		printResult(&out, res)
		for _, d := range slices.Concat(endToEnd, perLayer) {
			if !d.declared && slices.Contains(endToEnd, d) {
				continue
			}
			line := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(d.name) + `\s+\S+ ` + regexp.QuoteMeta(d.unit) + `\s`)
			if !line.Match(out.Bytes()) {
				t.Errorf("%s: output lacks %s in %s:\n%s", w.name, d.name, d.unit, out.String())
			}
		}
	}
}

// TestTracedPolicyKeepsActiveSet: the wrapper must not move the engine off
// the active set, or the traced run would measure a different engine.
func TestTracedPolicyKeepsActiveSet(t *testing.T) {
	g := pplb.Torus(8, 8)
	p := &tracedPolicy{inner: pplb.NewBalancer(pplb.DefaultBalancerConfig()), tr: newTracer()}
	sys, err := pplb.NewSystem(g, p, pplb.WithInitial(pplb.HotspotLoad(g.N(), 0, 64, 1)))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if !sys.State().ActiveSetEnabled() {
		t.Fatal("active set disabled under the traced policy")
	}
}

func TestConservationLeakIsReported(t *testing.T) {
	sim.SetConservationLeakForTest(3)
	defer sim.SetConservationLeakForTest(0)
	res, _ := runWorkload(workloadNamed(t, "serve-16k"), smoke, false)
	i := slices.IndexFunc(res.Checks, func(c *tally) bool { return c.Name == "load-conservation" })
	if i < 0 || res.Checks[i].Failed == 0 {
		t.Fatalf("conservation check did not fail: %+v", res.Checks)
	}
	if res.Correct || res.Metrics["error_rate"].Value <= 0 {
		t.Fatalf("leak not reflected in the result: correct=%v error_rate=%v", res.Correct, res.Metrics["error_rate"].Value)
	}
}

func TestCorruptSnapshotIsReported(t *testing.T) {
	r := newRunner(smoke, nil)
	s, err := r.setup(scenario{side: 8, workers: 1,
		initial: func(n int) [][]float64 { return pplb.UniformRandomLoad(n, 4*n, 0.5, 3) }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		r.step(s)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{0, 40, len(snap) / 2, len(snap) - 1} {
		bad := bytes.Clone(snap)
		bad[at] ^= 0x5a
		before := r.failed()
		r.restore(s, snap, bad)
		if r.failed() == before {
			t.Errorf("corrupting byte %d of %d went unreported", at, len(snap))
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10, 10.05}
	scale := func(k float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = k * x
		}
		return out
	}
	for _, c := range []struct {
		next   []float64
		higher bool
		bound  float64
		gated  bool
		want   string
	}{
		{scale(1.001), false, 0.1, true, "no change"},
		{scale(0.8), false, 0.1, true, "better"},
		{scale(1.2), false, 0.1, true, "worse"},
		{scale(1.05), false, 0.1, true, "no change"}, // worse, but within the bound
		{scale(1.05), false, 0, false, "worse"},      // no bound: any change past the spread counts
		{scale(1.2), true, 0.1, true, "better"},
		{[]float64{8, 12, 9, 11, 10}, false, 0.05, true, "unresolved"},
	} {
		if _, got := verdict(base, c.next, c.higher, c.bound, c.gated); got != c.want {
			t.Errorf("verdict(%v, higher=%v, bound=%v, gated=%v) = %q, want %q", c.next, c.higher, c.bound, c.gated, got, c.want)
		}
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	rec := func(ms float64) result {
		return result{Workload: "churn-16k", Metrics: map[string]metric{"tick_ms_p50": {Value: ms, Unit: "ms"}}}
	}
	basePath, newPath := filepath.Join(dir, "base.jsonl"), filepath.Join(dir, "new.jsonl")
	if err := appendResults(basePath, []result{rec(1), rec(1.01), rec(0.99)}); err != nil {
		t.Fatal(err)
	}
	if err := appendResults(newPath, []result{rec(2), rec(2.02), rec(1.98)}); err != nil {
		t.Fatal(err)
	}
	var out, errs bytes.Buffer
	if code := run([]string{"-compare", basePath, newPath}, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	if !regexp.MustCompile(`churn-16k\s+tick_ms_p50 .* worse`).MatchString(out.String()) {
		t.Fatalf("unexpected compare output:\n%s", out.String())
	}
}
