//go:build !race

// Excluded under -race: the race runtime randomly drops sync.Pool entries,
// so fmt re-allocates its printers at random and the counts stop being exact.
package topology

import (
	"runtime/debug"
	"testing"
)

// TestDynamicAllocsIndependentOfSize guards against a per-edge map creeping
// back into Dynamic: seeding a Dynamic and committing one Leave must make
// the same number of allocations on a 64x64 and a 256x256 torus. GC is off
// while counting: a collection empties fmt's sync.Pool of printers, and the
// larger graph would collect more often and re-allocate a printer for the
// committed graph's name.
func TestDynamicAllocsIndependentOfSize(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	small, large := NewTorus(64, 64), NewTorus(256, 256)
	seed := func(g *Graph) float64 {
		return testing.AllocsPerRun(5, func() { NewDynamic(g) })
	}
	if a, b := seed(small), seed(large); a != b {
		t.Errorf("NewDynamic allocs: %v on %s, %v on %s", a, small.Name(), b, large.Name())
	}
	commit := func(g *Graph) float64 {
		d := NewDynamic(g)
		v := 0
		return testing.AllocsPerRun(5, func() {
			d.Leave(v)
			d.Commit()
			v += 3
		})
	}
	if a, b := commit(small), commit(large); a != b {
		t.Errorf("Leave+Commit allocs: %v on %s, %v on %s", a, small.Name(), b, large.Name())
	}
}
