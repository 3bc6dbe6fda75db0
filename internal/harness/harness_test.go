package harness

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pplb/internal/rng"
)

// replayFlag selects an artifact for TestHarnessReplay:
//
//	go test -run TestHarnessReplay ./internal/harness -args -replay=<file>
var replayFlag = flag.String("replay", "", "path to a harness replay artifact to reproduce")

// TestHarnessSmoke is the merge-gate soak: a few hundred generated
// scenarios spanning every topology family, each one also verifying
// Workers=1 ≡ Workers=8 bit-identity via the lockstep twin.
func TestHarnessSmoke(t *testing.T) {
	const count = 220
	res, err := Soak(SoakConfig{
		BaseSeed: 0xC0FFEE,
		Count:    count,
		// Persist counterexamples where CI can pick them up before failing.
		ArtifactDir: os.Getenv("PPLB_HARNESS_ARTIFACT_DIR"),
	})
	if err != nil {
		t.Error(err) // e.g. unwritable artifact dir; failures still report below
	}
	for _, f := range res.Failures {
		t.Errorf("scenario failed: %s", f)
	}
	if res.Ran != count {
		t.Errorf("ran %d of %d scenarios", res.Ran, count)
	}
	if len(res.Families) < 6 {
		t.Errorf("only %d topology families covered (%v), want >= 6", len(res.Families), res.Families)
	}
	t.Logf("soak: %d scenarios, families %v, policies %v", res.Ran, res.Families, res.Policies)
}

// TestHarnessChurnSmoke is the recycle-heavy leg of the merge gate: the
// same generated corpus shape as TestHarnessSmoke but with the Churn tweak
// overlaid, so every tick creates and completes tasks and the arena
// free-list, id→handle index and queue link lanes recycle constantly under
// the full invariant suite (including store-consistency's brute-force
// scan) and both bit-identity twins.
func TestHarnessChurnSmoke(t *testing.T) {
	const count = 60
	res, err := Soak(SoakConfig{
		BaseSeed:    0xC0FFEE + 1,
		Count:       count,
		Tweaks:      Tweaks{Churn: true},
		ArtifactDir: os.Getenv("PPLB_HARNESS_ARTIFACT_DIR"),
	})
	if err != nil {
		t.Error(err)
	}
	for _, f := range res.Failures {
		t.Errorf("churn scenario failed: %s", f)
	}
	if res.Ran != count {
		t.Errorf("ran %d of %d scenarios", res.Ran, count)
	}
	t.Logf("churn soak: %d scenarios, families %v, policies %v", res.Ran, res.Families, res.Policies)
}

// TestSnapshotGate is the snapshot/resume merge gate: a 220-scenario smoke
// on a seed base disjoint from TestHarnessSmoke's, so the snapshot twin —
// mid-run snapshot, byte-equal round-trip, Workers=1 restored engine in
// lockstep with the Workers=8 primary, full-state byte comparison at every
// check tick, final-state round-trip — sees a corpus the other gates don't.
// Any encoder omission or decoder rebuild divergence fails here as a
// "snapshot-roundtrip" or "snapshot-resume" violation with a shrunk,
// replayable artifact. Run via `make snapshot-gate`.
func TestSnapshotGate(t *testing.T) {
	const count = 220
	res, err := Soak(SoakConfig{
		BaseSeed:    0x5AA9,
		Count:       count,
		ArtifactDir: os.Getenv("PPLB_HARNESS_ARTIFACT_DIR"),
	})
	if err != nil {
		t.Error(err)
	}
	for _, f := range res.Failures {
		t.Errorf("scenario failed: %s", f)
	}
	if res.Ran != count {
		t.Errorf("ran %d of %d scenarios", res.Ran, count)
	}
	t.Logf("snapshot gate: %d scenarios, families %v, policies %v", res.Ran, res.Families, res.Policies)
}

// TestCheckpointReplay proves the checkpoint path end-to-end on an injected
// bug: a leaking spec's violation must reproduce identically when the replay
// starts from a mid-run checkpoint instead of tick 0, the checkpoint must
// survive a JSON round-trip, and mismatched or stale checkpoints must be
// rejected rather than replayed misleadingly.
func TestCheckpointReplay(t *testing.T) {
	spec, v := findLeakingSpec(t)
	a := NewArtifact(spec, v)
	if v.Tick < 2 {
		t.Skipf("violation at tick %d leaves no room for a checkpoint", v.Tick)
	}
	cpTick := int(v.Tick) / 2
	if cpTick < 1 {
		cpTick = 1
	}
	cp, err := MakeCheckpoint(a, cpTick)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "checkpoint.json")
	if err := cp.Write(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Schema != CheckpointSchema || loaded.Spec != cp.Spec || loaded.Tick != cp.Tick ||
		!bytes.Equal(loaded.Snapshot, cp.Snapshot) {
		t.Fatalf("checkpoint round-trip changed: %+v vs %+v", loaded, cp)
	}

	out, ok, err := ReplayFromCheckpoint(a, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if out.Violation == nil {
		t.Fatalf("checkpoint replay passed; recorded violation: %s", v)
	}
	if !ok {
		t.Fatalf("checkpoint replay diverged:\nrecorded: %s\ngot:      %s", v, out.Violation)
	}

	other := NewArtifact(Spec{Seed: spec.Seed + 1}, v)
	if _, _, err := ReplayFromCheckpoint(other, loaded); err == nil {
		t.Fatal("checkpoint for a different spec was accepted")
	}
	stale := *loaded
	stale.Schema = "pplb-harness-checkpoint/0"
	stalePath := filepath.Join(t.TempDir(), "stale.json")
	if err := stale.Write(stalePath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(stalePath); err == nil {
		t.Fatal("stale checkpoint schema was accepted")
	}
}

// TestHarnessSoak is the nightly long soak, gated behind an env var:
//
//	PPLB_HARNESS_SOAK_COUNT=5000 go test -run TestHarnessSoak -timeout 60m ./internal/harness
func TestHarnessSoak(t *testing.T) {
	countStr := os.Getenv("PPLB_HARNESS_SOAK_COUNT")
	if countStr == "" {
		t.Skip("set PPLB_HARNESS_SOAK_COUNT to run the long soak")
	}
	count, err := strconv.Atoi(countStr)
	if err != nil || count <= 0 {
		t.Fatalf("bad PPLB_HARNESS_SOAK_COUNT %q", countStr)
	}
	cfg := SoakConfig{
		BaseSeed:    0x50AC,
		Count:       count,
		ArtifactDir: os.Getenv("PPLB_HARNESS_ARTIFACT_DIR"),
		Progress: func(done, total int) {
			if done%500 == 0 {
				t.Logf("%d/%d scenarios", done, total)
			}
		},
	}
	res, err := Soak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Failures {
		t.Errorf("scenario failed: %s", f)
	}
	t.Logf("soak: %d scenarios, families %v, policies %v", res.Ran, res.Families, res.Policies)
}

// TestHarnessReplay reproduces a recorded violation from its artifact. With
// no -replay flag it is a no-op (skip); the soak/fuzz jobs and the
// injected-leak test below drive it with real artifacts.
func TestHarnessReplay(t *testing.T) {
	if *replayFlag == "" {
		t.Skip("no -replay artifact given")
	}
	a, err := LoadArtifact(*replayFlag)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := Replay(a)
	if out.Violation == nil {
		t.Fatalf("artifact %s did not reproduce: run passed\nscenario: %s", *replayFlag, out.Scenario.Desc)
	}
	if !ok {
		t.Fatalf("artifact %s reproduced a different violation:\nrecorded: %s\ngot:      %s",
			*replayFlag, &a.Violation, out.Violation)
	}
	t.Logf("violation reproduced bit-identically: %s", out.Violation)
}

// findLeakingSpec returns a spec whose injected conservation leak actually
// fires (the scenario keeps resident tasks long enough to lose one).
func findLeakingSpec(t *testing.T) (Spec, *Violation) {
	t.Helper()
	base := uint64(0xBAD5EED)
	for i := uint64(0); i < 64; i++ {
		spec := Spec{Seed: base + i, Tweaks: Tweaks{LeakEvery: 3}}
		if out := Run(spec); out.Violation != nil {
			if out.Violation.Invariant != "load-conservation" {
				t.Fatalf("leak surfaced as %s, want load-conservation", out.Violation)
			}
			return spec, out.Violation
		}
	}
	t.Fatal("no seed in range triggered the injected leak")
	return Spec{}, nil
}

// TestInjectedLeakCaughtShrunkAndReplayed is the end-to-end proof that the
// harness works: a deliberately injected conservation bug (the engine's
// test-only leak hook) is caught by the invariant engine, shrunk to a
// smaller scenario, and the emitted replay artifact reproduces the
// violation bit-identically — in this process and in a fresh one.
func TestInjectedLeakCaughtShrunkAndReplayed(t *testing.T) {
	spec, orig := findLeakingSpec(t)
	origTicks := Generate(spec).Ticks

	shrunk, v := Shrink(spec)
	if v == nil {
		t.Fatal("shrink lost the violation")
	}
	if v.Invariant != "load-conservation" {
		t.Fatalf("shrunk violation is %s, want load-conservation", v)
	}
	if shrunk.Tweaks.Ticks <= 0 || shrunk.Tweaks.Ticks >= origTicks {
		t.Fatalf("shrinking did not reduce ticks: %d -> %d (violation was at tick %d)",
			origTicks, shrunk.Tweaks.Ticks, orig.Tick)
	}
	if shrunk.Tweaks.LeakEvery != spec.Tweaks.LeakEvery {
		t.Fatalf("shrink dropped the leak tweak: %+v", shrunk.Tweaks)
	}

	path := filepath.Join(t.TempDir(), "replay.json")
	a := NewArtifact(shrunk, v)
	if err := a.Write(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if *loaded != *a {
		t.Fatalf("artifact round-trip changed:\nwrote:  %+v\nloaded: %+v", a, loaded)
	}

	// In-process replay: identical violation.
	if out, ok := Replay(loaded); !ok {
		t.Fatalf("in-process replay diverged:\nrecorded: %s\ngot:      %v", v, out.Violation)
	}

	// Fresh-process replay: re-exec this test binary against the artifact.
	cmd := exec.Command(os.Args[0], "-test.run", "^TestHarnessReplay$", "-test.v", "-replay", path)
	outBytes, err := cmd.CombinedOutput()
	output := string(outBytes)
	if err != nil {
		t.Fatalf("fresh-process replay failed: %v\n%s", err, output)
	}
	if !strings.Contains(output, "violation reproduced bit-identically") {
		t.Fatalf("fresh-process replay did not confirm reproduction:\n%s", output)
	}
}

// TestGenerateDeterministic pins the reproducibility contract: the same
// spec expands to the same scenario description (which folds in every
// generated dimension), and a run of it yields the same outcome.
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(1); seed < 20; seed++ {
		spec := Spec{Seed: seed}
		a, b := Generate(spec), Generate(spec)
		if a.Desc != b.Desc {
			t.Fatalf("seed %d: generation not deterministic:\n%s\n%s", seed, a.Desc, b.Desc)
		}
		if a.Workers != 8 {
			t.Fatalf("seed %d: workers = %d, want 8", seed, a.Workers)
		}
	}
	// Tweaks change only their dimension (they consume no randomness):
	// disabling faults, arrivals or heterogeneity must keep every other
	// generated draw — family, size, policy, service rate, tick budget —
	// of the original scenario.
	for seed := uint64(1); seed < 50; seed++ {
		plain := Generate(Spec{Seed: seed})
		for _, tw := range []Tweaks{{NoFaults: true}, {NoArrivals: true}, {NoHetero: true}} {
			tweaked := Generate(Spec{Seed: seed, Tweaks: tw})
			if plain.Family != tweaked.Family || plain.Graph.N() != tweaked.Graph.N() ||
				plain.PolicyName != tweaked.PolicyName || plain.ServiceRate != tweaked.ServiceRate ||
				plain.Ticks != tweaked.Ticks || plain.CheckEvery != tweaked.CheckEvery ||
				plain.EngineSeed != tweaked.EngineSeed {
				t.Fatalf("seed %d: tweak %+v perturbed unrelated dimensions:\n%s\n%s",
					seed, tw, plain.Desc, tweaked.Desc)
			}
		}
	}
}

// TestShrinkTicksOnly checks the shrinker on a clean dimension: with the
// leak firing every 2 ticks, the minimised spec should need only a handful
// of ticks regardless of the generated budget.
func TestShrinkTicksOnly(t *testing.T) {
	spec, _ := findLeakingSpec(t)
	shrunk, v := Shrink(spec)
	if v == nil {
		t.Fatal("shrink lost the violation")
	}
	sc := Generate(shrunk)
	if sc.Ticks > 16 {
		t.Fatalf("leak fires every %d ticks but shrunk scenario still runs %d", spec.Tweaks.LeakEvery, sc.Ticks)
	}
}

// TestTopologyChurnGate is the dynamic-topology leg of the merge gate. It
// scans the smoke corpus for scenarios that drew a churn schedule, asserts
// the generator produces enough of them (the dimension must not silently
// die), and runs a sample through the full suite — four lockstep engines
// reconfiguring in step, the invariant set (topology-soundness included),
// and the mid-run resume twin, which for schedules starting before the
// midpoint is restored across an epoch boundary. Finally it pins the
// NoChurn tweak: the same seeds with churn withheld must expand to an
// empty schedule without perturbing any other dimension's draws.
func TestTopologyChurnGate(t *testing.T) {
	base := rng.New(0xC0FFEE) // same derivation as TestHarnessSmoke's soak
	var churning []Spec
	for i := 0; i < 220; i++ {
		spec := Spec{Seed: base.Split(uint64(i)).Uint64()}
		if len(Generate(spec).Churn) > 0 {
			churning = append(churning, spec)
		}
	}
	if len(churning) < 20 {
		t.Fatalf("only %d/220 corpus scenarios churn — generator dimension degraded", len(churning))
	}
	ran, reconfigured, crossEpochResume := 0, 0, 0
	for _, spec := range churning {
		if ran == 24 {
			break
		}
		ran++
		sc := Generate(spec)
		if out := Run(spec); out.Violation != nil {
			t.Fatalf("churn scenario %s failed: %s", spec, out.Violation)
		}
		if len(sc.Churn) > 0 && int(sc.Churn[0].Tick) <= sc.Ticks {
			reconfigured++
		}
		if g, _ := sc.TopologyAt(int64(sc.Ticks / 2)); g != sc.Graph {
			crossEpochResume++
		}
	}
	if reconfigured == 0 || crossEpochResume == 0 {
		t.Fatalf("sample never exercised the contract: %d reconfigured, %d resumed across an epoch", reconfigured, crossEpochResume)
	}
	t.Logf("churn gate: %d scenarios, %d with events in budget, %d with a cross-epoch resume twin", ran, reconfigured, crossEpochResume)

	nc := churning[0]
	nc.Tweaks.NoChurn = true
	plain, tweaked := Generate(churning[0]), Generate(nc)
	if len(tweaked.Churn) != 0 {
		t.Fatal("NoChurn tweak left a churn schedule in place")
	}
	if plain.Graph.N() != tweaked.Graph.N() || plain.PolicyName != tweaked.PolicyName ||
		plain.Ticks != tweaked.Ticks || plain.EngineSeed != tweaked.EngineSeed {
		t.Fatal("NoChurn tweak perturbed unrelated scenario dimensions")
	}
}
