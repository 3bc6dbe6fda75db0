package sim

// conservationLeakEvery, when positive, makes Step silently discard the
// first resident task of the lowest-numbered non-empty node every that-many
// ticks — load vanishes from the system without being booked as consumed,
// migrated or in flight, which is exactly the class of accounting bug the
// harness's load-conservation invariant exists to catch.
//
// This is a deliberate fault-injection point for the scenario-fuzzing
// harness's self-tests (prove the invariant engine detects, shrinks and
// replays a real engine-state corruption); it is process-global, never set
// in production code, and zero (disabled) by default. The leak runs in the
// single-threaded tick epilogue and depends only on deterministic state, so
// Workers=1 and Workers=N engines leak identically: twin bit-identity
// survives while conservation breaks, isolating the invariant under test.
var conservationLeakEvery int64

// SetConservationLeakForTest installs (every > 0) or clears (every <= 0)
// the deliberate conservation leak. Test use only.
func SetConservationLeakForTest(every int64) { conservationLeakEvery = every }

// maybeLeakForTest applies the injected leak for the tick that just
// completed. Called from Step after the shard reduce, before the tick
// counter advances.
func (e *Engine) maybeLeakForTest() {
	s := e.state
	if s.tick == 0 || s.tick%conservationLeakEvery != 0 {
		return
	}
	for v := range s.g.N() {
		if h := s.Queue(v).Front(); h >= 0 {
			s.tasks.Remove(v, s.tasks.ID(h))
			// Keep the active set and arena coherent: the leak must break
			// load conservation and nothing else, in every engine variant
			// alike, so the invariant under test is the one that fires (not
			// twin divergence, a stale-plan artefact or a store-consistency
			// violation).
			e.markDirtyNeighborhood(v)
			s.tasks.Release(h)
			return
		}
	}
}
