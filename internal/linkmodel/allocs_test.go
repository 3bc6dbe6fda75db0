//go:build !race

// Excluded under -race, like the engine's allocation gate: the race runtime
// allocates on its own and randomly drops sync.Pool entries.
package linkmodel

import (
	"runtime/debug"
	"testing"

	"pplb/internal/topology"
)

// TestNewAllocsIndependentOfSize guards against a per-edge map creeping back
// into New: building the parameters of a 64x64 and a 256x256 torus must make
// the same number of allocations. GC is off so that no collection-dependent
// allocation skews the counts.
func TestNewAllocsIndependentOfSize(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	small, large := topology.NewTorus(64, 64), topology.NewTorus(256, 256)
	count := func(g *topology.Graph) float64 {
		return testing.AllocsPerRun(5, func() { New(g) })
	}
	if a, b := count(small), count(large); a != b {
		t.Fatalf("New allocs: %v on %s, %v on %s", a, small.Name(), b, large.Name())
	}
}
