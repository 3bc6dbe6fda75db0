package main

import (
	"slices"

	"pplb/internal/stats"
)

// def describes one reported metric.
type def struct {
	name   string
	unit   string
	higher bool // higher values are better
	// bound is the share by which an end-to-end metric's median may worsen
	// before -compare calls it worse; per-layer metrics have none.
	bound float64
	// declared marks the metrics BENCHMARK.json lists: those every workload
	// reports with a value that is never 0. The summary line carries exactly
	// these, and the test suite holds BENCHMARK.json to this table.
	declared bool
}

// endToEnd lists the user-facing metrics in report order.
var endToEnd = []def{
	{"setup_s", "s", false, 0.25, true},
	{"job_s", "s", false, 0.25, true},
	{"time_to_balance_s", "s", false, 0.25, false},
	{"ticks_to_balance", "ticks", false, 0.05, false},
	{"tick_ms_p50", "ms", false, 0.25, false},
	{"tick_ms_p90", "ms", false, 0.25, false},
	{"tick_ms_p99", "ms", false, 0.25, false},
	{"ticks_per_s", "1/s", true, 0.25, true},
	{"response_ticks_mean", "ticks", false, 0.02, false},
	{"final_cv", "ratio", false, 0.1, true},
	{"snapshot_ms", "ms", false, 0.25, true},
	{"restore_ms", "ms", false, 0.25, true},
	{"reconfigure_ms", "ms", false, 0.25, true},
	{"heap_mb", "MB", false, 0.05, true},
	{"error_rate", "ratio", false, 0, false},
}

// perLayer lists the metrics the traced run derives from its spans.
var perLayer = []def{
	{"topology.build_ms", "ms", false, 0, true},
	{"topology.commit_ms", "ms", false, 0, true},
	{"linkmodel.build_ms", "ms", false, 0, true},
	{"workload.initial_ms", "ms", false, 0, true},
	{"workload.arrivals_ms_per_tick", "ms", false, 0, false},
	{"workload.arrivals_per_tick", "count", false, 0, true},
	{"core.plan_calls_per_tick", "count", false, 0, true},
	{"core.plan_ns_per_call", "ns", false, 0, true},
	{"core.plan_window_ms_per_tick", "ms", false, 0, true},
	{"core.moves_proposed_per_tick", "count", false, 0, true},
	{"core.migrations_per_task", "count", false, 0, true},
	{"sim.self_ms_per_tick", "ms", false, 0, true},
	{"sim.active_nodes_per_tick", "count", false, 0, true},
	{"sim.active_frac", "ratio", false, 0, true},
	{"sim.migrations_per_tick", "count", false, 0, true},
	{"sim.rejected_frac", "ratio", false, 0, true},
	{"sim.inflight_per_tick", "count", false, 0, true},
	{"sim.allocs_per_tick", "count", false, 0, true},
	{"sim.alloc_bytes_per_tick", "bytes", false, 0, true},
	{"sim.gc_cycles", "count", false, 0, true},
	{"sim.post_reconfigure_tick_ms", "ms", false, 0, false},
	{"snapshot.bytes", "bytes", false, 0, true},
	{"snapshot.mb_per_s", "MB/s", true, 0, true},
	{"restore.mb_per_s", "MB/s", true, 0, true},
	{"reconfig.engine_ms", "ms", false, 0, true},
	{"reconfig.drained_tasks", "count", false, 0, true},
	{"reconfig.recalled_transfers", "count", false, 0, true},
	{"stats.balance_check_ms_per_tick", "ms", false, 0, false},
	{"tracing.overhead_pct", "%", false, 0, true},
}

func lookupDef(name string) (def, bool) {
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if d.name == name {
			return d, true
		}
	}
	return def{}, false
}

// declaredNames returns the names BENCHMARK.json lists of one kind: the
// per-layer ones for a traced run, else the end-to-end ones.
func declaredNames(traced bool) []string {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	var out []string
	for _, d := range defs {
		if d.declared {
			out = append(out, d.name)
		}
	}
	return out
}

// metric is one reported value. N is the number of samples behind a timing
// (0 for a single exact value).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
