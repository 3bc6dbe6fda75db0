package harness

import (
	"bytes"
	"fmt"

	"pplb/internal/sim"
)

// Outcome is the result of running one spec: the expanded scenario and the
// first invariant violation, if any (nil = the scenario passed).
type Outcome struct {
	Scenario  *Scenario
	Violation *Violation
}

// Run expands the spec, builds the primary engine (Workers=8, fused path
// forced), its Workers=1 twin, and a Workers=3 full-sweep recompute twin,
// steps all three in lockstep, and checks the invariant suite plus twin
// bit-identity and active-set soundness every CheckEvery ticks (and always
// at the final tick). The first violation stops the run.
//
// Running the twins unconditionally triples the cost of every scenario, and
// that is the point: the determinism contract (Workers=1 ≡ Workers=3 ≡
// Workers=8) and the active-set contract (incremental ≡ full sweep) are the
// invariants most likely to break silently under engine refactors, so every
// generated scenario doubles as an identity test for both. The worker counts
// are chosen adversarially for the fused worker loop: 8 is the headline
// parallel configuration, 3 is odd and divides neither the shard count (16)
// nor 8, so shard claiming hands every worker a ragged share. The sweep twin
// additionally re-enables the adaptive serial cutover (the other engines
// force the fused path — see Scenario.Config), so scenarios whose work
// estimate straddles the threshold flip between inline and fused ticks
// mid-run and must still match the other twins exactly.
//
// A fourth engine checks the snapshot/resume contract: at the scenario's
// midpoint the primary is snapshotted, the snapshot round-trips through
// Restore (byte-equal re-encode, "snapshot-roundtrip"), and the restored
// engine — built with Workers=3 and a fresh policy instance, so the check
// also enforces that resume never depends on worker count, fused barrier
// state (always quiescent between ticks, hence absent from snapshots) or
// mutable policy internals — runs in lockstep with the primary for the rest
// of the run. At every check tick the two must produce byte-identical
// snapshots ("snapshot-resume"); the canonical encoding makes snapshot
// equality state equality, so any hidden field the encoder misses or the
// decoder rebuilds differently diverges here, not in production resume.
func Run(spec Spec) *Outcome {
	sc := Generate(spec)
	out := &Outcome{Scenario: sc}

	if spec.Tweaks.LeakEvery > 0 {
		sim.SetConservationLeakForTest(spec.Tweaks.LeakEvery)
		defer sim.SetConservationLeakForTest(0)
	}

	primary, err := sim.New(sc.Config(sc.Workers))
	if err != nil {
		out.Violation = &Violation{Invariant: "engine-construct", Detail: err.Error()}
		return out
	}
	defer primary.Close()
	twin, err := sim.New(sc.Config(1))
	if err != nil {
		out.Violation = &Violation{Invariant: "engine-construct", Detail: fmt.Sprintf("twin: %v", err)}
		return out
	}
	defer twin.Close()
	sweepCfg := sc.Config(3)
	sweepCfg.FullSweep = true
	sweepCfg.SerialCutover = 0 // adaptive: cover inline↔fused cutover flips
	sweep, err := sim.New(sweepCfg)
	if err != nil {
		out.Violation = &Violation{Invariant: "engine-construct", Detail: fmt.Sprintf("sweep twin: %v", err)}
		return out
	}
	defer sweep.Close()

	invs := StandardInvariants()
	snapTick := sc.Ticks / 2
	var resumed *sim.Engine
	defer func() {
		if resumed != nil {
			resumed.Close()
		}
	}()
	for tick := 1; tick <= sc.Ticks; tick++ {
		// Churn events fire on every lockstep engine at the tick boundary —
		// including the mid-run restored twin, which therefore crosses the
		// same epoch boundaries as the primary it must match byte-for-byte.
		if v := applyChurn(sc, int64(tick), primary, twin, sweep, resumed); v != nil {
			out.Violation = v
			return out
		}
		primary.Step()
		twin.Step()
		sweep.Step()
		if resumed != nil {
			resumed.Step()
		}
		if tick == snapTick && snapTick >= 1 {
			var v *Violation
			resumed, v = buildResumeTwin(sc, primary, int64(tick))
			if v != nil {
				out.Violation = v
				return out
			}
		}
		if tick%sc.CheckEvery != 0 && tick != sc.Ticks {
			continue
		}
		for _, inv := range invs {
			if detail := inv.Check(primary.State()); detail != "" {
				out.Violation = &Violation{Invariant: inv.Name(), Tick: int64(tick), Detail: detail}
				return out
			}
		}
		if v := compareTwin(primary.State(), twin.State(), int64(tick)); v != nil {
			out.Violation = v
			return out
		}
		if v := compareSweep(primary.State(), sweep.State(), int64(tick)); v != nil {
			out.Violation = v
			return out
		}
		if resumed != nil {
			if v := compareResume(primary, resumed, int64(tick)); v != nil {
				out.Violation = v
				return out
			}
		}
		if tick == sc.Ticks && tick != snapTick {
			// Round-trip the final state too: the midpoint round-trip ran
			// before the late-run regime (drained arrivals, recycled slots,
			// an emptied network) existed to encode.
			if v := checkRoundTrip(sc, primary, int64(tick)); v != nil {
				out.Violation = v
				return out
			}
		}
	}
	return out
}

// applyChurn applies every churn event scheduled at tick to the given
// engines (nil entries skipped), building a fresh policy instance per
// engine against the event's committed graph. Any Reconfigure error is a
// harness violation: the generator only schedules legal events.
func applyChurn(sc *Scenario, tick int64, engines ...*sim.Engine) *Violation {
	for _, ev := range sc.Churn {
		if ev.Tick != tick {
			continue
		}
		for _, e := range engines {
			if e == nil {
				continue
			}
			rc := sim.Reconfig{
				Graph:  ev.Graph,
				Links:  ev.Links,
				Epoch:  ev.Epoch,
				Dead:   ev.Dead,
				Policy: sc.NewPolicy(ev.Graph),
			}
			if err := e.Reconfigure(rc); err != nil {
				return &Violation{Invariant: "reconfigure", Tick: tick, Detail: err.Error()}
			}
		}
	}
	return nil
}

// buildResumeTwin snapshots the primary at tick, round-trips the snapshot
// through Restore, and returns the restored engine for lockstep resume
// checking. The twin is restored at Workers=3 with a fresh policy instance
// even though the primary runs Workers=8, so every scenario also proves that
// a snapshot taken on one fused pool resumes identically on another with a
// different (odd, non-shard-dividing) worker count — the restore straddles
// the pool's barrier, which is legal exactly because the barrier is
// quiescent between ticks and owns no serialized state — and that no policy
// smuggles mutable cross-tick state past the restore. Under churn the
// restore config carries the topology current at tick (snapshot v2 pins the
// graph structurally), so mid-run restores across epoch boundaries are
// exercised by every churning scenario.
func buildResumeTwin(sc *Scenario, primary *sim.Engine, tick int64) (*sim.Engine, *Violation) {
	snap, err := primary.Snapshot()
	if err != nil {
		return nil, &Violation{Invariant: "snapshot-roundtrip", Tick: tick, Detail: "snapshot failed: " + err.Error()}
	}
	curGraph, curLinks := sc.TopologyAt(tick)
	resumed, err := sim.Restore(snap, sc.ConfigAt(3, curGraph, curLinks))
	if err != nil {
		return nil, &Violation{Invariant: "snapshot-roundtrip", Tick: tick, Detail: "restore failed: " + err.Error()}
	}
	resnap, err := resumed.Snapshot()
	if err == nil {
		if d := snapshotDiff(snap, resnap); d != "" {
			err = fmt.Errorf("re-encoded snapshot differs: %s", d)
		}
	}
	if err != nil {
		resumed.Close()
		return nil, &Violation{Invariant: "snapshot-roundtrip", Tick: tick, Detail: err.Error()}
	}
	return resumed, nil
}

// checkRoundTrip verifies snapshot→restore→snapshot byte identity of the
// primary's current state, without keeping the restored engine.
func checkRoundTrip(sc *Scenario, primary *sim.Engine, tick int64) *Violation {
	e, v := buildResumeTwin(sc, primary, tick)
	if e != nil {
		e.Close()
	}
	return v
}

// compareResume checks that the primary and the mid-run restored engine
// still encode to byte-identical snapshots. Snapshot bytes are canonical, so
// this is a full-state comparison — stronger than the counters+loads check
// of the other twins — which is what catches state the encoder forgot:
// a field that never round-trips shows up as a first-differing-offset here.
func compareResume(primary, resumed *sim.Engine, tick int64) *Violation {
	a, err := primary.Snapshot()
	if err != nil {
		return &Violation{Invariant: "snapshot-resume", Tick: tick, Detail: "primary snapshot failed: " + err.Error()}
	}
	b, err := resumed.Snapshot()
	if err != nil {
		return &Violation{Invariant: "snapshot-resume", Tick: tick, Detail: "resumed snapshot failed: " + err.Error()}
	}
	if d := snapshotDiff(a, b); d != "" {
		return &Violation{
			Invariant: "snapshot-resume",
			Tick:      tick,
			Detail:    fmt.Sprintf("resumed engine diverged from primary: %s", d),
		}
	}
	return nil
}

// snapshotDiff describes the first difference between two snapshot encodings
// ("" if byte-identical). The detail is deterministic, so a replayed
// violation compares equal to the recorded one.
func snapshotDiff(a, b []byte) string {
	if len(a) != len(b) {
		return fmt.Sprintf("lengths differ: %d vs %d bytes", len(a), len(b))
	}
	if i := firstDiff(a, b); i >= 0 {
		return fmt.Sprintf("first byte difference at offset %d (%#02x vs %#02x) of %d bytes", i, a[i], b[i], len(a))
	}
	return ""
}

func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	i := 0
	for ; i < len(a) && a[i] == b[i]; i++ {
	}
	return i
}

// minShrinkTicks is the floor below which the shrinker stops halving the
// tick budget.
const minShrinkTicks = 4

// Shrink minimises a failing spec while preserving failure: first cut the
// tick budget to the violation tick and keep halving, then demote the
// topology size rank, then disable churn, faults, arrivals and
// heterogeneity one at a time, keeping each reduction only if the run still violates some
// invariant (not necessarily the original one — any violation keeps the
// counterexample alive). Returns the shrunk spec and its violation; if the
// input spec does not fail, it is returned unchanged with a nil violation.
func Shrink(spec Spec) (Spec, *Violation) {
	out := Run(spec)
	if out.Violation == nil {
		return spec, nil
	}
	cur, v := spec, out.Violation
	ticks := out.Scenario.Ticks
	fingerprint := out.Scenario.Fingerprint

	// adopt keeps a candidate only if it still fails; noop reports a tweak
	// that would not change the expanded scenario at all (e.g. NoFaults on
	// a scenario that drew no faults) — running those would waste a full
	// primary+twin pair and, worse, the adopted tweak would mislead whoever
	// triages the artifact into thinking the dimension existed.
	noop := func(cand Spec) bool {
		return Generate(cand).Fingerprint == fingerprint
	}
	adopt := func(cand Spec) bool {
		if o := Run(cand); o.Violation != nil {
			cur, v = cand, o.Violation
			fingerprint = o.Scenario.Fingerprint
			return true
		}
		return false
	}

	// 1. Ticks: everything past the violation tick is dead weight; then
	// halve as long as the failure survives.
	if int(v.Tick) > 0 && int(v.Tick) < ticks {
		cand := cur
		cand.Tweaks.Ticks = int(v.Tick)
		if adopt(cand) {
			ticks = cand.Tweaks.Ticks
		}
	}
	for ticks/2 >= minShrinkTicks {
		cand := cur
		cand.Tweaks.Ticks = ticks / 2
		if !adopt(cand) {
			break
		}
		ticks /= 2
	}

	// 2. Nodes: demote the topology size rank towards the family minimum
	// (a no-op once the rank is clamped at the smallest instance).
	for i := 0; i < maxSizeRank; i++ {
		cand := cur
		cand.Tweaks.SizeShrink++
		if noop(cand) || !adopt(cand) {
			break
		}
	}

	// 3. Dimensions: disable one scenario feature at a time, skipping
	// features the scenario never had.
	for _, disable := range []func(*Tweaks){
		func(t *Tweaks) { t.NoChurn = true },
		func(t *Tweaks) { t.NoFaults = true },
		func(t *Tweaks) { t.NoArrivals = true },
		func(t *Tweaks) { t.NoHetero = true },
	} {
		cand := cur
		disable(&cand.Tweaks)
		if !noop(cand) {
			adopt(cand)
		}
	}
	return cur, v
}
