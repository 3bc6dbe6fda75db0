//go:build !race

// Allocation-regression gate: the arena conversion's contract is that a
// steady-state engine tick allocates nothing, so the GC scan set stops
// growing with live tasks. This test pins that property in the merge gate —
// a change that reintroduces per-tick allocation (a map rebuilt per plan, a
// forgotten pooled buffer, a snapshot materialised on a hot path) fails
// here long before it shows up as a benchmark regression.
//
// Since the fused worker loop (PR 9) the gate also covers the parallel
// engine at Workers=8: the fused dispatch publishes phases by atomic counter
// with prebuilt closures and parks workers on preallocated channels, so a
// parallel steady-state tick allocates exactly as little as a sequential
// one — on both sides of the adaptive serial cutover. (testing.AllocsPerRun
// counts mallocs across every goroutine, which is fine here: idle fused
// workers allocate nothing, so any count is the engine's own.) The gate is
// excluded under -race because the race runtime itself allocates.
package pplb

import "testing"

// allocGateScenarios are the steady-state tick scenarios pinned to zero
// allocations per Step. The first group runs the full inject/plan/move/
// transfer/service/settle pipeline on one goroutine; the two Workers=8
// scenarios pin the parallel paths: the converged incremental engine runs
// its tiny ticks inline under the serial cutover (zero wakeups, zero
// allocs), while its FullSweep twin estimates N=16,384 work units per tick
// and therefore exercises the fused dispatch itself. warmup is the number of
// ticks run before measuring: enough for every pooled buffer and amortised
// slice to reach its steady-state capacity.
var allocGateScenarios = []struct {
	name   string
	warmup int
}{
	{"TickPPLBTorus256", 1500},
	{"TickPPLBTorus1024", 1500},
	{"TickDiffusionTorus256", 1500},
	{"TickGMTorus256", 1500},
	{"TickPPLBTorus16384W1", 1500},
	{"TickSteadyStateTorus16384", 1500},
	{"TickSteadyStateTorus16384FullSweep", 1500},
	// A reconfigured history must leave no allocation residue: once churn
	// stops, steady-state ticks on the post-churn topology are as alloc-free
	// as on a never-reconfigured engine (Reconfigure itself allocates — it
	// regrows per-node state — but that cost stays off the tick path).
	{"TickSteadyStateTorus16384PostChurn", 1500},
	// The 1M-node active-set regime: the hotspot fronts keep reaching nodes
	// that never held a task, and a first arrival links the task into the
	// arena's queue lanes without growing anything. A shorter warm-up keeps
	// the test affordable at this size.
	{"TickPPLBSparse1MW1", 400},
}

func TestSteadyStateTickZeroAllocs(t *testing.T) {
	for _, gc := range allocGateScenarios {
		name := gc.name
		t.Run(name, func(t *testing.T) {
			sc := tickBenchScenario(name)
			if sc == nil {
				t.Fatalf("unknown tick scenario %q", name)
			}
			sys, err := sc.New()
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			// While load is still spreading, transfer lanes and plan
			// buffers legitimately append past capacity.
			for i := 0; i < gc.warmup; i++ {
				sys.Step()
			}
			if avg := testing.AllocsPerRun(50, func() { sys.Step() }); avg != 0 {
				t.Errorf("%s: %.2f allocs/op in steady state, want 0", name, avg)
			}
		})
	}
}
