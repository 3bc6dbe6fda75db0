package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"pplb/internal/stats"
)

// compare prints one row per workload × metric found in both files of -out
// runs: each side's median, quartiles and run count, the relative change of
// the medians, and a verdict. End-to-end metrics are judged against their
// bounds; per-layer ones have none.
func compare(basePath, newPath string, w io.Writer) error {
	base, err := loadRuns(basePath)
	if err != nil {
		return err
	}
	next, err := loadRuns(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-31s %-36s %-36s %9s  %s\n", "workload", "metric", "base median [q1 q3] n", "new median [q1 q3] n", "change", "verdict")
	for _, wl := range workloads {
		for i, d := range slices.Concat(endToEnd, perLayer) {
			b, n := values(base, wl.name, d.name), values(next, wl.name, d.name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			change, v := verdict(b, n, d.higher, d.bound, i < len(endToEnd))
			fmt.Fprintf(w, "%-13s %-31s %-36s %-36s %+8.2f%%  %s\n", wl.name, d.name, quartiles(b), quartiles(n), 100*change, v)
		}
	}
	return nil
}

func loadRuns(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return runs, nil
}

func values(runs []result, wl, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == wl {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func quartiles(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", median(xs), stats.Percentile(xs, 25), stats.Percentile(xs, 75), len(xs))
}

// relSpread is the interquartile range of xs relative to its median.
func relSpread(xs []float64) float64 {
	return rel(stats.Percentile(xs, 75)-stats.Percentile(xs, 25), median(xs))
}

// rel is x relative to ref; a change from 0 is infinite.
func rel(x, ref float64) float64 {
	switch {
	case x == 0:
		return 0
	case ref == 0:
		return math.Inf(int(math.Copysign(1, x)))
	}
	return x / math.Abs(ref)
}

// verdict judges the new runs of one metric against the base runs. change
// is the relative change of the medians. A change within the wider of the
// two relative interquartile spreads is "no change". For a metric with a
// declared bound (gated), a worsening within the bound is also "no change",
// and when the spread itself exceeds the bound the metric is "unresolved"
// unless every new run reads better than every base run.
func verdict(base, next []float64, higher bool, bound float64, gated bool) (change float64, v string) {
	change = rel(median(next)-median(base), median(base))
	worse := change
	if higher {
		worse = -change
	}
	spread := max(relSpread(base), relSpread(next))
	allBetter := slices.Max(next) < slices.Min(base)
	if higher {
		allBetter = slices.Min(next) > slices.Max(base)
	}
	switch {
	case gated && spread > bound && allBetter:
		return change, "better"
	case gated && spread > bound:
		return change, "unresolved"
	case math.Abs(worse) <= spread:
		return change, "no change"
	case worse < 0:
		return change, "better"
	case gated && worse <= bound:
		return change, "no change"
	}
	return change, "worse"
}
