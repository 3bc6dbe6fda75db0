package pplb

import (
	"testing"
)

// Golden regression pins: exact end-to-end results for fixed seeds. The
// whole stack (RNG, engine ordering, balancer arithmetic) is deliberately
// deterministic and independent of the Go version, so any change to these
// numbers means an intentional algorithm change — update the constants and
// say why in the commit, or an accidental behaviour change — fix it.
func TestGoldenPPLBTorusRun(t *testing.T) {
	g := Torus(4, 4)
	sys, err := NewSystem(g, NewBalancer(DefaultBalancerConfig()),
		WithInitial(HotspotLoad(g.N(), 0, 64, 0.5)),
		WithSeed(12345),
	)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(200)
	c := sys.Counters()
	if got := sys.State().TotalLoad(); got != 32 {
		t.Errorf("total load = %v, want 32", got)
	}
	// Pinned values (seed 12345, 200 ticks, default config). The PR2 sharded
	// tick pipeline preserved them exactly: its canonical orders (nodes
	// ascending for application, source-shard-then-node ascending for
	// transfer commits) coincide with the historical sequential sweep, and
	// the fault-stream re-keying from a shared sequential RNG to per-transfer
	// (task, tick) streams cannot affect a run with fault probability 0 —
	// zero-probability draws never touched the stream in either scheme.
	const (
		wantMigrations = 1456
		wantRejected   = 51
	)
	if c.Migrations != wantMigrations {
		t.Errorf("migrations = %d, want %d (intentional change? update the pin)", c.Migrations, wantMigrations)
	}
	if c.Rejected != wantRejected {
		t.Errorf("rejected = %d, want %d (intentional change? update the pin)", c.Rejected, wantRejected)
	}
}

func TestGoldenRNGStream(t *testing.T) {
	// The first outputs of the seeded generator are part of the repo's
	// reproducibility contract (`pplb-bench -full` reproduces the
	// experiments' numbers seed-exactly).
	sys, err := NewSystem(Ring(4), NoPolicy(), WithSeed(0))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(1)
	// Nothing to check beyond "runs": the real pin is in internal/rng tests;
	// this guards the seed-plumbing through the facade.
	if sys.State().Tick() != 1 {
		t.Fatal("tick plumbing broken")
	}
}
