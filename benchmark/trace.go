package main

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"pplb"
	"pplb/internal/rng"
	"pplb/internal/sim"
	"pplb/internal/stats"
)

type counts map[string]float64

// span is one timed call into a layer. Parent is the ID of the span whose
// call caused it, -1 for a call made by the benchmark itself.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Counts counts `json:"counts,omitempty"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// tracer holds the spans of one traced run in memory. A nil *tracer is the
// untraced run: its methods record nothing, so the runner makes the same
// calls either way. Calls the engine makes per node (PlanNodeInto) are too
// many to keep one span each: they are aggregated per tick into a single
// core.plan span covering the first call's start to the last call's end,
// with the call count, busy time and moves proposed as counts.
type tracer struct {
	base  time.Time
	spans []span

	plan [planStripes]planStripe
	arr  struct { // the arrival call of the tick in progress
		called     bool
		start, end int64
		n          int
	}
	postReconfigure bool // the next tick is the first after a reconfiguration
}

// planStripes spreads the per-call counters of concurrent planning workers
// over separate cache lines; nodes map to stripes in blocks of 256, so the
// workers of a 16-shard engine rarely share one.
const planStripes = 64

type planStripe struct {
	calls, busy, moves, first, last atomic.Int64
	_                               [24]byte
}

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	t.resetPlan()
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.base)) }

// add records a span and returns its ID.
func (t *tracer) add(name string, parent int, start, end time.Time, c counts) int {
	if t == nil {
		return -1
	}
	return t.addNS(name, parent, t.at(start), t.at(end), c)
}

func (t *tracer) addNS(name string, parent int, start, end int64, c counts) int {
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans), Parent: parent, Start: start, End: end, Counts: c})
	return len(t.spans) - 1
}

// resetPlan starts a new tick's planning aggregate. Ticks run without a
// span, such as warm-up ticks, call it to drop their planning calls.
func (t *tracer) resetPlan() {
	if t == nil {
		return
	}
	for i := range t.plan {
		p := &t.plan[i]
		p.calls.Store(0)
		p.busy.Store(0)
		p.moves.Store(0)
		p.first.Store(math.MaxInt64)
		p.last.Store(0)
	}
}

func (t *tracer) recordPlan(v int, start, end int64, moves int) {
	p := &t.plan[(v>>8)%planStripes]
	p.calls.Add(1)
	p.busy.Add(end - start)
	p.moves.Add(int64(moves))
	for cur := p.first.Load(); start < cur && !p.first.CompareAndSwap(cur, start); cur = p.first.Load() {
	}
	for cur := p.last.Load(); end > cur && !p.last.CompareAndSwap(cur, end); cur = p.last.Load() {
	}
}

// tracedPolicy forwards to the balancer and records every planning call. It
// implements exactly the optional engine interfaces the balancer does —
// sim.MovePlanner and sim.LocalityDeclarer, not sim.TickPreparer — so the
// engine keeps planning on the active set.
type tracedPolicy struct {
	inner *pplb.Balancer
	tr    *tracer
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) PlanLocality() sim.Locality { return p.inner.PlanLocality() }

func (p *tracedPolicy) PlanNode(v int, view *pplb.View, r *rng.RNG) []pplb.Move {
	return p.PlanNodeInto(v, view, r, nil)
}

func (p *tracedPolicy) PlanNodeInto(v int, view *pplb.View, r *rng.RNG, buf []pplb.Move) []pplb.Move {
	start := p.tr.now()
	buf = p.inner.PlanNodeInto(v, view, r, buf)
	p.tr.recordPlan(v, start, p.tr.now(), len(buf))
	return buf
}

// arrivals wraps an arrival process so that each call is timed. The engine
// calls it once per tick from the goroutine running Step.
func (t *tracer) arrivals(fn pplb.ArrivalFunc) pplb.ArrivalFunc {
	if t == nil {
		return fn
	}
	return func(tick int64, r *rng.RNG) []pplb.Arrival {
		start := t.now()
		out := fn(tick, r)
		t.arr.called, t.arr.start, t.arr.end, t.arr.n = true, start, t.now(), len(out)
		return out
	}
}

// stepMark is what a traced tick reads before Step.
type stepMark struct {
	counters pplb.Counters
	active   int
	mem      runtime.MemStats
}

func (t *tracer) beforeStep(s *system) (m stepMark) {
	if t == nil {
		return m
	}
	t.arr.called = false
	m.counters = s.Counters()
	m.active = s.State().ActiveNodes()
	runtime.ReadMemStats(&m.mem)
	return m
}

// afterStep records the tick's span with the engine's work counts for it and
// the allocations made during it; the arrival call and the planning window
// become its children.
func (t *tracer) afterStep(s *system, before stepMark, start, end time.Time) {
	if t == nil {
		return
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	st := s.State()
	after := st.Counters()
	c := counts{
		"nodes":        float64(st.Graph().N()),
		"active_nodes": float64(before.active),
		"migrations":   float64(after.Migrations - before.counters.Migrations),
		"rejected":     float64(after.Rejected - before.counters.Rejected),
		"inflight":     float64(st.InFlight()),
		"allocs":       float64(mem.Mallocs - before.mem.Mallocs),
		"alloc_bytes":  float64(mem.TotalAlloc - before.mem.TotalAlloc),
		"gc_cycles":    float64(mem.NumGC - before.mem.NumGC),
	}
	if t.postReconfigure {
		c["post_reconfigure"] = 1
		t.postReconfigure = false
	}
	id := t.add("sim.step", -1, start, end, c)
	if t.arr.called {
		t.addNS("workload.arrivals", id, t.arr.start, t.arr.end, counts{"arrivals": float64(t.arr.n)})
	}
	var calls, busy, moves, first, last int64 = 0, 0, 0, math.MaxInt64, 0
	for i := range t.plan {
		p := &t.plan[i]
		calls += p.calls.Load()
		busy += p.busy.Load()
		moves += p.moves.Load()
		first = min(first, p.first.Load())
		last = max(last, p.last.Load())
	}
	if calls > 0 {
		t.addNS("core.plan", id, first, last, counts{"calls": float64(calls), "busy_ns": float64(busy), "moves": float64(moves)})
		t.resetPlan()
	}
}

// reconfigure records a reconfiguration as its three calls: commit the
// staged topology, build its link parameters, hand both to the engine.
func (t *tracer) reconfigure(t0, t1, t2, t3 time.Time, before, after pplb.Counters) {
	if t == nil {
		return
	}
	id := t.add("reconfigure", -1, t0, t3, nil)
	t.add("topology.commit", id, t0, t1, nil)
	t.add("linkmodel.build", id, t1, t2, nil)
	t.add("reconfig.engine", id, t2, t3, counts{
		"drained_tasks":      float64(after.DrainedTasks - before.DrainedTasks),
		"recalled_transfers": float64(after.RecalledTransfers - before.RecalledTransfers),
	})
	t.postReconfigure = true
}

// summary records the migrations and tasks of a finished rep.
func (t *tracer) summary(s *system) {
	if t == nil {
		return
	}
	now := time.Now()
	t.add("summary", -1, now, now, counts{
		"migrations": float64(s.Counters().Migrations),
		"tasks":      float64(s.State().TaskStore().IDBound()),
	})
}

// layers derives the per-layer metrics from the recorded spans.
// overheadPct is the traced run's tick_ms_p50 over the untraced one's.
func (t *tracer) layers(overheadPct float64) map[string]float64 {
	by := map[string][]span{}
	child := make([]float64, len(t.spans)) // duration covered by each span's children
	for _, s := range t.spans {
		by[s.Name] = append(by[s.Name], s)
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	sum := func(name, key string) float64 {
		v := 0.0
		for _, s := range by[name] {
			if key == "" {
				v += s.dur()
			} else {
				v += s.Counts[key]
			}
		}
		return v
	}
	medianMS := func(name string) float64 {
		var xs []float64
		for _, s := range by[name] {
			xs = append(xs, s.dur()/1e6)
		}
		return median(xs)
	}
	meanCount := func(name, key string) float64 { return ratio(sum(name, key), float64(len(by[name]))) }

	steps := by["sim.step"]
	ticks := float64(len(steps))
	self, post := 0.0, []float64{}
	for _, s := range steps {
		self += s.dur() - child[s.ID]
		if s.Counts["post_reconfigure"] == 1 {
			post = append(post, s.dur()/1e6)
		}
	}
	calls, moves := sum("core.plan", "calls"), sum("core.plan", "moves")
	return map[string]float64{
		"topology.build_ms":               medianMS("topology.build"),
		"topology.commit_ms":              medianMS("topology.commit"),
		"linkmodel.build_ms":              medianMS("linkmodel.build"),
		"workload.initial_ms":             medianMS("workload.initial"),
		"workload.arrivals_ms_per_tick":   ratio(sum("workload.arrivals", "")/1e6, ticks),
		"workload.arrivals_per_tick":      ratio(sum("workload.arrivals", "arrivals"), ticks),
		"core.plan_calls_per_tick":        ratio(calls, ticks),
		"core.plan_ns_per_call":           ratio(sum("core.plan", "busy_ns"), calls),
		"core.plan_window_ms_per_tick":    ratio(sum("core.plan", "")/1e6, ticks),
		"core.moves_proposed_per_tick":    ratio(moves, ticks),
		"core.migrations_per_task":        ratio(sum("summary", "migrations"), sum("summary", "tasks")),
		"sim.self_ms_per_tick":            ratio(self/1e6, ticks),
		"sim.active_nodes_per_tick":       ratio(sum("sim.step", "active_nodes"), ticks),
		"sim.active_frac":                 ratio(sum("sim.step", "active_nodes"), sum("sim.step", "nodes")),
		"sim.migrations_per_tick":         ratio(sum("sim.step", "migrations"), ticks),
		"sim.rejected_frac":               ratio(sum("sim.step", "rejected"), moves),
		"sim.inflight_per_tick":           ratio(sum("sim.step", "inflight"), ticks),
		"sim.allocs_per_tick":             ratio(sum("sim.step", "allocs"), ticks),
		"sim.alloc_bytes_per_tick":        ratio(sum("sim.step", "alloc_bytes"), ticks),
		"sim.gc_cycles":                   sum("sim.step", "gc_cycles"),
		"sim.post_reconfigure_tick_ms":    stats.Mean(post),
		"snapshot.bytes":                  meanCount("snapshot", "bytes"),
		"snapshot.mb_per_s":               ratio(sum("snapshot", "bytes")/1e6, sum("snapshot", "")/1e9),
		"restore.mb_per_s":                ratio(sum("restore.decode", "bytes")/1e6, sum("restore.decode", "")/1e9),
		"reconfig.engine_ms":              medianMS("reconfig.engine"),
		"reconfig.drained_tasks":          meanCount("reconfig.engine", "drained_tasks"),
		"reconfig.recalled_transfers":     meanCount("reconfig.engine", "recalled_transfers"),
		"stats.balance_check_ms_per_tick": ratio(sum("stats.balance_check", "")/1e6, float64(len(by["stats.balance_check"]))),
		"tracing.overhead_pct":            overheadPct,
	}
}
