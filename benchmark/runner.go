package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"pplb"
	"pplb/internal/harness"
	"pplb/internal/stats"
)

// config fixes what one invocation runs.
type config struct {
	seed uint64
	// budget is the time a run may take: reps repeat while one more still
	// fits in it. Every rep is the same fixed work, so the budget changes
	// how many samples a run takes, never what a rep computes.
	budget time.Duration
	smoke  bool // 16×16 tori and a handful of ticks, for the test suite
}

// scenario describes how a workload builds its system.
type scenario struct {
	side     int // torus side
	workers  int
	initial  func(n int) [][]float64
	arrivals func(g *pplb.Graph) pplb.ArrivalFunc // nil: no arrivals
	service  float64
}

// system is one engine under test, with what restoring and reconfiguring it
// needs.
type system struct {
	*pplb.System
	dyn    *pplb.DynamicGraph
	opts   []pplb.Option // NewSystem options except the initial load and the links
	side   int
	victim int // next departure candidate
}

// tally counts the outcomes of one named check.
type tally struct {
	Name   string `json:"name"`
	Passed int    `json:"passed"`
	Failed int    `json:"failed"`
	Detail string `json:"detail,omitempty"` // first failure
}

// runner executes one workload once, untraced (tr == nil) or traced, and
// collects its samples, exact values and check outcomes.
type runner struct {
	cfg     config
	tr      *tracer
	samples map[string][]float64
	exact   map[string]float64
	checks  []*tally
	ops     int      // operations attempted: set-ups, ticks, snapshots, restores, reconfigurations
	errs    []string // operations that returned an error
	reps    int
	digest  string      // final-state digest of the first rep
	repTick [][]float64 // each rep's tick times in ms, in tick order
}

func newRunner(cfg config, tr *tracer) *runner {
	return &runner{cfg: cfg, tr: tr, samples: map[string][]float64{}, exact: map[string]float64{}}
}

// pick returns full, or small in smoke runs.
func (r *runner) pick(full, small int) int {
	if r.cfg.smoke {
		return small
	}
	return full
}

func (r *runner) add(sample string, v float64) { r.samples[sample] = append(r.samples[sample], v) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// check records one outcome of the named check; err nil means it passed.
func (r *runner) check(name string, err error) {
	i := slices.IndexFunc(r.checks, func(t *tally) bool { return t.Name == name })
	if i < 0 {
		r.checks = append(r.checks, &tally{Name: name})
		i = len(r.checks) - 1
	}
	t := r.checks[i]
	if err == nil {
		t.Passed++
		return
	}
	if t.Failed == 0 {
		t.Detail = err.Error()
	}
	t.Failed++
}

func (r *runner) failOp(op string, err error) {
	r.errs = append(r.errs, op+": "+err.Error())
}

// attempted and failed are the operations and checks run and the ones that
// failed; their ratio is error_rate.
func (r *runner) attempted() int {
	n := r.ops
	for _, t := range r.checks {
		n += t.Passed + t.Failed
	}
	return n
}

func (r *runner) failed() int {
	n := len(r.errs)
	for _, t := range r.checks {
		n += t.Failed
	}
	return n
}

func (r *runner) policy() pplb.Policy {
	b := pplb.NewBalancer(pplb.DefaultBalancerConfig())
	if r.tr == nil {
		return b
	}
	return &tracedPolicy{inner: b, tr: r.tr}
}

// setup builds one system, timing graph, initial load, link model and
// NewSystem together as setup_s. It starts from a collected heap so that
// garbage from earlier work is not charged to it.
func (r *runner) setup(sc scenario) (*system, error) {
	runtime.GC()
	r.ops++
	s := &system{side: sc.side}
	t0 := time.Now()
	g := pplb.Torus(sc.side, sc.side)
	t1 := time.Now()
	init := sc.initial(g.N())
	t2 := time.Now()
	links := pplb.Links(g)
	t3 := time.Now()
	s.opts = []pplb.Option{
		pplb.WithSeed(r.cfg.seed),
		pplb.WithWorkers(sc.workers),
		pplb.WithMetricsEvery(1 << 30), // the benchmark samples state itself
		pplb.WithServiceRate(sc.service),
	}
	if sc.arrivals != nil {
		s.opts = append(s.opts, pplb.WithArrivals(r.tr.arrivals(sc.arrivals(g))))
	}
	sys, err := pplb.NewSystem(g, r.policy(), slices.Concat(s.opts, []pplb.Option{pplb.WithInitial(init), pplb.WithLinks(links)})...)
	t4 := time.Now()
	if err != nil {
		r.failOp("setup", err)
		return nil, err
	}
	s.System = sys
	s.dyn = pplb.NewDynamic(g)
	s.victim = 1000 % g.N()
	r.add("setup_s", t4.Sub(t0).Seconds())
	if r.tr != nil {
		tasks := 0
		for _, sizes := range init {
			tasks += len(sizes)
		}
		r.tr.postReconfigure = false // a fresh system's first tick re-plans nothing old
		id := r.tr.add("setup", -1, t0, t4, counts{"tasks": float64(tasks)})
		r.tr.add("topology.build", id, t0, t1, nil)
		r.tr.add("workload.initial", id, t1, t2, nil)
		r.tr.add("linkmodel.build", id, t2, t3, nil)
		r.tr.add("sim.new", id, t3, t4, nil)
	}
	return s, nil
}

// minReps is the fewest reps a run takes, however short its budget: the
// fewest whose median discards a slow outlier (see job).
const minReps = 3

// repeat runs reps of body on fresh systems of sc: minReps, then more while
// the time budget lasts, another starting only if one as long as the last
// still fits. Every rep starts from the same inputs, so every rep must end
// in the same state. A rep first times extra set-ups, closed at once, for a
// workload whose reps alone give too few set-up samples; taking them a few
// a rep spreads them over the run, where a burst at its start would put
// them all in one stretch of the host's speed.
func (r *runner) repeat(sc scenario, extra int, body func(s *system)) {
	start := time.Now()
	for {
		t0 := time.Now()
		for k := extra; k > 0; k-- {
			s, err := r.setup(sc)
			if err != nil {
				return
			}
			s.Close()
		}
		s, err := r.setup(sc)
		if err != nil {
			return
		}
		ticks := len(r.samples["tick_ms"])
		body(s)
		r.repTick = append(r.repTick, slices.Clone(r.samples["tick_ms"][ticks:]))
		r.finish(s)
		r.reps++
		if r.reps >= minReps && time.Since(start)+time.Since(t0) > r.cfg.budget {
			return
		}
	}
}

// job returns the time of one rep's ticks, each tick taken at its median
// over the reps. Every rep runs the same ticks in the same order, so tick i
// is the same work in each; a burst of host load has to slow tick i in half
// the reps to move the result, where it would move a sum over one rep at
// once. It returns nil if the reps ran different numbers of ticks, which the
// same-state check reports.
func (r *runner) job() []float64 {
	if len(r.repTick) == 0 {
		return nil
	}
	out := make([]float64, len(r.repTick[0]))
	at := make([]float64, len(r.repTick))
	for i := range out {
		for j, ticks := range r.repTick {
			if len(ticks) != len(out) {
				return nil
			}
			at[j] = ticks[i]
		}
		out[i] = median(at)
	}
	return out
}

// step advances s by one tick, timing the Step call as a tick_ms sample.
func (r *runner) step(s *system) {
	r.ops++
	mark := r.tr.beforeStep(s)
	t0 := time.Now()
	s.Step()
	t1 := time.Now()
	r.tr.afterStep(s, mark, t0, t1)
	r.add("tick_ms", ms(t1.Sub(t0)))
}

// runUntilBalanced steps s until CV < eps with nothing in flight, as
// RunUntilBalanced does, but times each Step as a tick and the balance check
// apart from it. time_to_balance_s is the whole loop, checks included.
func (r *runner) runUntilBalanced(s *system, eps float64, maxTicks int) (int, bool) {
	t0 := time.Now()
	for i := 0; i < maxTicks; i++ {
		c0 := time.Now()
		balanced := s.CV() < eps && s.State().InFlight() == 0
		r.tr.add("stats.balance_check", -1, c0, time.Now(), nil)
		if balanced {
			r.add("time_to_balance_s", time.Since(t0).Seconds())
			return i, true
		}
		r.step(s)
	}
	return maxTicks, false
}

// checkpoint times a Snapshot of s, then restores it into a second system.
// Each timed operation starts from a collected heap, as a set-up does: a
// 16k operation takes a few ms, and whether a collection cycle overlapped it
// would otherwise depend on the garbage the work before it left.
func (r *runner) checkpoint(s *system) {
	r.ops++
	runtime.GC()
	t0 := time.Now()
	snap, err := s.Snapshot()
	t1 := time.Now()
	if err != nil {
		r.failOp("snapshot", err)
		return
	}
	r.add("snapshot_ms", ms(t1.Sub(t0)))
	r.tr.add("snapshot", -1, t0, t1, counts{"bytes": float64(len(snap))})
	r.restore(s, snap, snap)
}

// restore times restoring blob as a copy of s, link model for the current
// graph included, and checks that the copy snapshots back to want, the
// bytes s produced.
func (r *runner) restore(s *system, want, blob []byte) {
	r.ops++
	g := s.dyn.Graph()
	runtime.GC()
	t0 := time.Now()
	links := pplb.Links(g)
	t1 := time.Now()
	cp, err := pplb.RestoreSystem(g, r.policy(), blob, slices.Concat(s.opts, []pplb.Option{pplb.WithLinks(links)})...)
	t2 := time.Now()
	if err != nil {
		r.failOp("restore", err)
		return
	}
	defer cp.Close()
	r.add("restore_ms", ms(t2.Sub(t0)))
	id := r.tr.add("restore", -1, t0, t2, nil)
	r.tr.add("linkmodel.build", id, t0, t1, nil)
	r.tr.add("restore.decode", id, t1, t2, counts{"bytes": float64(len(blob))})
	again, err := cp.Snapshot()
	if err == nil && !bytes.Equal(again, want) {
		err = errors.New("the restored system's snapshot differs from the original")
	}
	r.check("snapshot round-trip", err)
}

// reconfigure applies the changes staged on s.dyn, timed as reconfigure_ms.
// It makes the three calls System.ReconfigureFrom makes, so that the traced
// run can give each its span.
func (r *runner) reconfigure(s *system) {
	r.ops++
	before := s.Counters()
	runtime.GC()
	t0 := time.Now()
	g, epoch := s.dyn.Commit()
	dead := s.dyn.DeadNodes()
	t1 := time.Now()
	links := pplb.Links(g)
	t2 := time.Now()
	err := s.Reconfigure(pplb.Reconfig{Graph: g, Links: links, Epoch: epoch, Dead: dead})
	t3 := time.Now()
	if err != nil {
		r.failOp("reconfigure", err)
		return
	}
	r.add("reconfigure_ms", ms(t3.Sub(t0)))
	r.tr.reconfigure(t0, t1, t2, t3, before, s.Counters())
}

// leave stages the departure of the next victim: a stride walk over the
// original id range that skips dead nodes and the nodes churn-16k wires
// joins and link faults to.
func (s *system) leave() {
	n := s.side * s.side
	for !s.dyn.Alive(s.victim) || s.victim <= 1 || s.victim == s.side || s.victim == n/2 || s.victim == n-1 {
		s.victim = (s.victim + 997) % n
	}
	s.dyn.Leave(s.victim)
	s.victim = (s.victim + 997) % n
}

// cycle stages a topology change and applies it, runs ticks timed ticks,
// then takes a checkpoint and restores it.
func (r *runner) cycle(s *system, change func(), ticks int) {
	change()
	r.reconfigure(s)
	for ; ticks > 0; ticks-- {
		r.step(s)
	}
	r.checkpoint(s)
}

// finish ends a rep: it records the live heap after a forced collection and
// the final CV, checks the harness's standard invariants (load conservation
// among them), records the state digest and closes s. The first rep's
// digest is the run's; every later rep must match it.
func (r *runner) finish(s *system) {
	defer s.Close()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.add("heap_mb", float64(m.HeapAlloc)/1e6)
	r.tr.summary(s)
	r.exact["final_cv"] = s.CV()
	for _, inv := range harness.StandardInvariants() {
		var violated error
		if detail := inv.Check(s.State()); detail != "" {
			violated = errors.New(detail)
		}
		r.check(inv.Name(), violated)
	}
	snap, err := s.Snapshot()
	if err != nil {
		r.failOp("snapshot", err)
		return
	}
	sum := sha256.Sum256(snap)
	digest := hex.EncodeToString(sum[:])
	if r.digest == "" {
		r.digest = digest
		return
	}
	var differ error
	if digest != r.digest {
		differ = fmt.Errorf("rep %d ended in %s, rep 1 in %s", r.reps+1, digest, r.digest)
	}
	r.check("reps end in the same state", differ)
}

// endToEnd summarises the samples into the end-to-end metrics this run
// supports, keyed by name.
func (r *runner) endToEnd() map[string]metric {
	out := map[string]metric{}
	put := func(name string, v float64, n int) {
		d, _ := lookupDef(name)
		out[name] = metric{Value: v, Unit: d.unit, N: n}
	}
	for _, name := range []string{"setup_s", "time_to_balance_s", "snapshot_ms", "restore_ms", "reconfigure_ms", "heap_mb"} {
		if xs := r.samples[name]; len(xs) > 0 {
			put(name, median(xs), len(xs))
		}
	}
	if job := r.job(); len(job) > 0 {
		put("job_s", stats.Sum(job)/1e3, r.reps)
		put("ticks_per_s", 1e3*float64(len(job))/stats.Sum(job), r.reps)
	}
	if ticks := r.samples["tick_ms"]; len(ticks) > 0 {
		n := len(ticks)
		put("tick_ms_p50", stats.Percentile(ticks, 50), n)
		put("tick_ms_p90", stats.Percentile(ticks, 90), n)
		if n >= 1000 { // at least ten samples above the 99th percentile
			put("tick_ms_p99", stats.Percentile(ticks, 99), n)
		}
	}
	for name, v := range r.exact {
		put(name, v, 0)
	}
	put("error_rate", ratio(float64(r.failed()), float64(r.attempted())), 0)
	return out
}
