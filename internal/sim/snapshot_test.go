package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"pplb/internal/linkmodel"
	"pplb/internal/rng"
	"pplb/internal/taskmodel"
	"pplb/internal/topology"
)

// handlesAsInts widens a handle slice for printing/comparison.
func handlesAsInts(hs []taskmodel.Handle) []int {
	out := make([]int, len(hs))
	for i, h := range hs {
		out[i] = int(h)
	}
	return out
}

// snapConfig builds the kitchen-sink scenario the resume tests run: faults,
// latency (so transfers are in flight at snapshot time), inertia, service,
// heterogeneous speeds and arrivals.
func snapConfig(seed uint64) Config {
	g := topology.NewTorus(4, 6)
	speeds := make([]float64, 24)
	for i := range speeds {
		speeds[i] = 1 + float64(i%3)/2
	}
	return Config{
		Graph:  g,
		Links:  linkmodel.New(g, linkmodel.WithUniformFault(0.25), linkmodel.WithUniformLength(2)),
		Policy: localSlide{},
		Seed:   seed,
		Speeds: speeds,
		Arrivals: func(tick int64, r *rng.RNG) []Arrival {
			if tick%3 != 0 {
				return nil
			}
			return []Arrival{{Node: int(tick) % 24, Load: 0.2 + float64(tick%5)/4}}
		},
		ServiceRate: 0.15,
		Initial:     hotspotInitial(24, 40),
	}
}

// churnConfig hammers the arena free-list: burst arrivals plus a service rate
// that completes tasks every tick, so slots are created and released (and the
// free-list reordered) constantly before the snapshot is taken.
func churnConfig(seed uint64) Config {
	g := topology.NewTorus(4, 6)
	return Config{
		Graph:  g,
		Policy: localSlide{},
		Seed:   seed,
		Arrivals: func(tick int64, r *rng.RNG) []Arrival {
			out := make([]Arrival, 0, 6)
			for i := 0; i < 6; i++ {
				out = append(out, Arrival{Node: r.Intn(24), Load: 0.3 + r.Float64()})
			}
			return out
		},
		ServiceRate: 1,
		Initial:     hotspotInitial(24, 30),
	}
}

func mustSnap(t *testing.T, e *Engine) []byte {
	t.Helper()
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return snap
}

// requireSameState compares two engines by their canonical snapshots and, on
// divergence, reports the first differing byte plus the human-readable state
// deltas (counters, loads) to aid debugging.
func requireSameState(t *testing.T, label string, a, b *Engine) {
	t.Helper()
	sa, sb := mustSnap(t, a), mustSnap(t, b)
	if bytes.Equal(sa, sb) {
		return
	}
	off := 0
	for off < len(sa) && off < len(sb) && sa[off] == sb[off] {
		off++
	}
	msg := fmt.Sprintf("%s: snapshots diverge at byte %d (len %d vs %d)", label, off, len(sa), len(sb))
	if ca, cb := a.State().Counters(), b.State().Counters(); ca != cb {
		msg += fmt.Sprintf("\ncounters: %+v\nvs:       %+v", ca, cb)
	}
	la, lb := a.State().Loads(), b.State().Loads()
	for v := range la {
		if la[v] != lb[v] {
			msg += fmt.Sprintf("\nload[%d]: %v vs %v", v, la[v], lb[v])
			break
		}
	}
	t.Fatal(msg)
}

// TestSnapshotRoundTrip pins the canonical-bytes property: restoring a
// snapshot and re-snapshotting yields the identical byte sequence, for both
// the incremental and the full-sweep engine, with transfers in flight and a
// non-trivial free-list.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"everything", snapConfig(21)},
		{"everything-fullsweep", func() Config { c := snapConfig(21); c.FullSweep = true; return c }()},
		{"churn", churnConfig(22)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			e.Run(37)
			snap := mustSnap(t, e)
			r, err := Restore(snap, tc.cfg)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			defer r.Close()
			again := mustSnap(t, r)
			if !bytes.Equal(snap, again) {
				t.Fatal("snapshot -> restore -> snapshot is not byte-identical")
			}
			if got, want := r.State().Tick(), e.State().Tick(); got != want {
				t.Fatalf("restored tick %d, want %d", got, want)
			}
			if got, want := r.State().ActiveNodes(), e.State().ActiveNodes(); got != want {
				t.Fatalf("restored active set has %d pending nodes, want %d", got, want)
			}
		})
	}
}

// TestSnapshotResumeBitIdentical is the core contract: snapshot at tick K,
// restore into a fresh engine, and every subsequent tick of the restored
// engine is byte-identical to the uninterrupted run — across Workers∈{1,8} ×
// {incremental, full-sweep}, and resuming a parallel run on a sequential
// engine.
func TestSnapshotResumeBitIdentical(t *testing.T) {
	const snapTick, endTick = 40, 120
	scenarios := []struct {
		name string
		cfg  func(seed uint64) Config
	}{
		{"everything", snapConfig},
		{"churn", churnConfig},
	}
	for _, sc := range scenarios {
		for _, workers := range []int{1, 8} {
			for _, sweep := range []bool{false, true} {
				resumeOptions := []int{workers}
				if workers != 1 {
					resumeOptions = append(resumeOptions, 1) // parallel run resumed sequentially
				}
				for _, resumeWorkers := range resumeOptions {
					name := fmt.Sprintf("%s/w%d/sweep=%v/resume-w%d", sc.name, workers, sweep, resumeWorkers)
					t.Run(name, func(t *testing.T) {
						cfg := sc.cfg(31)
						cfg.Workers = workers
						cfg.FullSweep = sweep
						primary, err := New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						defer primary.Close()
						primary.Run(snapTick)
						snap := mustSnap(t, primary)
						rcfg := cfg
						rcfg.Workers = resumeWorkers
						resumed, err := Restore(snap, rcfg)
						if err != nil {
							t.Fatalf("Restore: %v", err)
						}
						defer resumed.Close()
						requireSameState(t, fmt.Sprintf("tick %d (right after restore)", snapTick), primary, resumed)
						for tick := snapTick + 1; tick <= endTick; tick++ {
							primary.Step()
							resumed.Step()
							requireSameState(t, fmt.Sprintf("tick %d", tick), primary, resumed)
						}
					})
				}
			}
		}
	}
}

// TestSnapshotFreeListOrderPreserved is the regression pin for the arena
// free-list: the restored store must reproduce the exact recycling order, so
// the handles assigned to tasks created after the restore match the
// uninterrupted run's. (A sorted, reversed or set-shaped free-list would
// still pass load-conservation checks — only handle-assignment order exposes
// it.)
func TestSnapshotFreeListOrderPreserved(t *testing.T) {
	cfg := churnConfig(77)
	primary, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	primary.Run(53)
	free := append([]int(nil), handlesAsInts(primary.State().TaskStore().FreeList())...)
	if len(free) < 3 {
		t.Fatalf("churn scenario produced only %d free slots; want a non-trivial free-list", len(free))
	}
	snap := mustSnap(t, primary)
	resumed, err := Restore(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	got := handlesAsInts(resumed.State().TaskStore().FreeList())
	if fmt.Sprint(got) != fmt.Sprint(free) {
		t.Fatalf("free-list order changed across restore:\n got %v\nwant %v", got, free)
	}
	// The next creations must recycle identically: step both one tick (the
	// arrivals create tasks into recycled slots) and compare the id→handle
	// mapping of every live task.
	primary.Step()
	resumed.Step()
	pst, rst := primary.State().TaskStore(), resumed.State().TaskStore()
	if pst.IDBound() != rst.IDBound() {
		t.Fatalf("id bounds diverge: %d vs %d", pst.IDBound(), rst.IDBound())
	}
	for id := int64(0); id < int64(pst.IDBound()); id++ {
		if ph, rh := pst.HandleOf(taskmodel.ID(id)), rst.HandleOf(taskmodel.ID(id)); ph != rh {
			t.Fatalf("task %d landed in handle %d after restore, %d uninterrupted", id, rh, ph)
		}
	}
}

// inflightAt returns the offset of the in-flight section (the load sum and
// the per-node list count) in e's snapshot snap: it sits just before the
// inertia records and the active-set words.
func inflightAt(e *Engine, snap []byte) int {
	s := e.State()
	tail := 8 + 16*len(s.movingResident)
	if s.active != nil {
		tail += 8 + 8*len(s.active.pending)
	}
	return len(snap) - tail - 16
}

// visitInFlightSum sums the load of every transfer in VisitTransfers order.
func visitInFlightSum(s *State) float64 {
	sum := 0.0
	s.VisitTransfers(func(h taskmodel.Handle, _, _ int) { sum += s.TaskStore().Load(h) })
	return sum
}

// withLegacyInflightList rewrites snap's in-flight section the way builds
// that kept per-node in-flight aggregates wrote it: the load sum, then the
// ascending non-zero per-destination loads. The section sits just before
// the inertia records and the active-set words, which e reports.
func withLegacyInflightList(t *testing.T, e *Engine, snap []byte) []byte {
	t.Helper()
	s := e.State()
	off := inflightAt(e, snap)
	if math.Float64frombits(binary.LittleEndian.Uint64(snap[off:])) != s.InFlightLoad() ||
		binary.LittleEndian.Uint64(snap[off+8:]) != 0 {
		t.Fatal("in-flight section not where expected")
	}
	to := make([]float64, s.Graph().N())
	s.VisitTransfers(func(h taskmodel.Handle, _, dst int) { to[dst] += s.TaskStore().Load(h) })
	var list []byte
	nz := 0
	for v, x := range to {
		if x != 0 {
			nz++
			list = binary.LittleEndian.AppendUint32(list, uint32(v))
			list = binary.LittleEndian.AppendUint64(list, math.Float64bits(x))
		}
	}
	out := append([]byte(nil), snap[:off+8]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(nz))
	out = append(out, list...)
	return append(out, snap[off+16:]...)
}

// TestSnapshotInflightAggregatesCanonical pins in-flight load as a derived
// read on a latency-2, faulty-link scenario: InFlightLoad equals the
// VisitTransfers sum bit for bit every tick, a snapshot taken with transfers
// in flight restores, re-encodes byte-equal and steps identically to the
// primary, and a snapshot whose per-node in-flight list is filled as older
// builds wrote it restores to the same state.
func TestSnapshotInflightAggregatesCanonical(t *testing.T) {
	cfg := snapConfig(55)
	primary, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	check := func(label string, e *Engine) {
		t.Helper()
		s := e.State()
		if got, want := s.InFlightLoad(), visitInFlightSum(s); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: InFlightLoad = %v, transfer sum %v", label, got, want)
		}
	}
	for tick := 0; tick < 200 && primary.State().InFlight() < 3; tick++ {
		primary.Step()
		check(fmt.Sprintf("tick %d", tick+1), primary)
	}
	if primary.State().InFlight() < 3 {
		t.Fatal("scenario never put three transfers in flight")
	}
	snap := mustSnap(t, primary)
	legacy := withLegacyInflightList(t, primary, snap)
	if bytes.Equal(legacy, snap) {
		t.Fatal("legacy list is empty")
	}
	restore := func(data []byte, workers int) *Engine {
		t.Helper()
		c := cfg
		c.Workers = workers
		e, err := Restore(data, c)
		if err != nil {
			t.Fatal(err)
		}
		if again := mustSnap(t, e); !bytes.Equal(again, snap) {
			t.Fatal("restored engine re-encodes to different bytes")
		}
		return e
	}
	resumed := restore(snap, 3)
	defer resumed.Close()
	fromLegacy := restore(legacy, 1)
	defer fromLegacy.Close()
	for tick := 0; tick < 120; tick++ {
		primary.Step()
		resumed.Step()
		fromLegacy.Step()
		label := fmt.Sprintf("%d ticks after restore", tick+1)
		check(label, primary)
		requireSameState(t, label, primary, resumed)
		requireSameState(t, label+" (legacy list)", primary, fromLegacy)
	}
}

// TestSnapshotErrors pins the failure modes: corrupt or truncated bytes and
// mismatched configurations must error, never panic or silently diverge.
func TestSnapshotErrors(t *testing.T) {
	cfg := snapConfig(91)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run(25)
	snap := mustSnap(t, e)

	if _, err := Restore(nil, cfg); err == nil {
		t.Error("nil data must error")
	}
	bad := append([]byte(nil), snap...)
	bad[0] ^= 0xff
	if _, err := Restore(bad, cfg); err == nil {
		t.Error("bad magic must error")
	}
	bad = append([]byte(nil), snap...)
	bad[8] = SnapshotVersion + 1
	if _, err := Restore(bad, cfg); err == nil {
		t.Error("unknown version must error")
	}

	wrongSeed := cfg
	wrongSeed.Seed++
	if _, err := Restore(snap, wrongSeed); err == nil {
		t.Error("seed mismatch must error")
	}
	wrongGraph := cfg
	wrongGraph.Graph = topology.NewTorus(4, 4)
	wrongGraph.Links = nil
	if _, err := Restore(snap, wrongGraph); err == nil {
		t.Error("graph shape mismatch must error")
	}
	wrongLinks := cfg
	wrongLinks.Links = linkmodel.New(cfg.Graph, linkmodel.WithUniformFault(0.1))
	if _, err := Restore(snap, wrongLinks); err == nil {
		t.Error("link-parameter mismatch must error")
	}
	wrongMode := cfg
	wrongMode.FullSweep = true
	if _, err := Restore(snap, wrongMode); err == nil {
		t.Error("active-set mode mismatch must error")
	}

	// Every truncation must produce an error, not a panic or a silent
	// short decode.
	for cut := 0; cut < len(snap); cut += 37 {
		if _, err := Restore(snap[:cut], cfg); err == nil {
			t.Fatalf("truncation to %d bytes did not error", cut)
		}
	}
	if _, err := Restore(append(append([]byte(nil), snap...), 0), cfg); err == nil {
		t.Error("trailing bytes must error")
	}
}

// TestSnapshotActiveSetPendingCarried pins the double-buffered active-set
// phase across restore: nodes marked dirty (pending re-plan) before the
// snapshot must still be scheduled after the restore — a restore that
// re-activated everything would also pass resume-identity only on full
// sweeps, and one that activated nothing would stall planning.
func TestSnapshotActiveSetPendingCarried(t *testing.T) {
	cfg := snapConfig(13)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if !e.State().ActiveSetEnabled() {
		t.Fatal("scenario must run the active-set pipeline")
	}
	// Find a tick where the pending set is a proper subset: some but not all
	// nodes scheduled. That is the state a lossy encoding could not round-trip.
	n := cfg.Graph.N()
	found := false
	for tick := 0; tick < 300; tick++ {
		e.Step()
		if p := e.State().ActiveNodes(); p > 0 && p < n {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("never observed a partial pending set")
	}
	snap := mustSnap(t, e)
	r, err := Restore(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, want := r.State().ActiveNodes(), e.State().ActiveNodes(); got != want {
		t.Fatalf("restored pending set has %d nodes, original %d", got, want)
	}
}

// queueRecordOffsets locates every node's queue record (u64 count, u32
// handles front to back, f64 total) in snap, a snapshot of e's current
// state: it finds the first non-empty node's record by its bytes and steps
// back over the records before it.
func queueRecordOffsets(t *testing.T, e *Engine, snap []byte) []int {
	t.Helper()
	s := e.state
	record := func(v int) []byte {
		hs := s.tasks.AppendHandles(nil, v)
		b := binary.LittleEndian.AppendUint64(nil, uint64(len(hs)))
		for _, h := range hs {
			b = binary.LittleEndian.AppendUint32(b, uint32(h))
		}
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Queue(v).Total()))
	}
	n := s.g.N()
	first := 0
	for first < n && s.Queue(first).Len() == 0 {
		first++
	}
	if first == n {
		t.Fatal("every queue is empty")
	}
	at := bytes.Index(snap, record(first))
	if at < 0 || bytes.Index(snap[at+1:], record(first)) >= 0 {
		t.Fatalf("node %d's queue record is not found exactly once", first)
	}
	for v := 0; v < first; v++ {
		at -= len(record(v))
	}
	offs := make([]int, n)
	for v := range offs {
		offs[v] = at
		if !bytes.Equal(snap[at:at+len(record(v))], record(v)) {
			t.Fatalf("node %d's queue record is not at offset %d", v, at)
		}
		at += len(record(v))
	}
	return offs
}

// A live handle listed twice — in two queue records, or twice in one — must
// be rejected before it is enqueued: linking it twice would turn the queues'
// threaded lists into a cycle rather than double-count a task.
func TestSnapshotRestoreRejectsDuplicateQueueHandle(t *testing.T) {
	cfg := snapConfig(91)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Run(25)
	snap := mustSnap(t, e)
	if _, err := Restore(snap, cfg); err != nil {
		t.Fatalf("unedited snapshot: %v", err)
	}
	offs := queueRecordOffsets(t, e, snap)
	handleAt := func(v, i int) int { return offs[v] + 8 + 4*i } // byte offset of v's i-th handle
	var nonEmpty, deep []int                                    // nodes with >= 1 and >= 2 residents
	for v := range offs {
		if l := e.state.Queue(v).Len(); l >= 1 {
			nonEmpty = append(nonEmpty, v)
			if l >= 2 {
				deep = append(deep, v)
			}
		}
	}
	if len(nonEmpty) < 2 || len(deep) < 1 {
		t.Fatalf("scenario too sparse: %d non-empty, %d with two or more tasks", len(nonEmpty), len(deep))
	}
	for _, tc := range []struct {
		name     string
		from, to int // copy the handle at byte offset from over the one at to
	}{
		{"two records", handleAt(nonEmpty[0], 0), handleAt(nonEmpty[1], 0)},
		{"one record", handleAt(deep[0], 0), handleAt(deep[0], 1)},
	} {
		bad := append([]byte(nil), snap...)
		copy(bad[tc.to:tc.to+4], snap[tc.from:tc.from+4])
		_, err := Restore(bad, cfg)
		if err == nil || !strings.Contains(err.Error(), "twice") {
			t.Errorf("%s: Restore error %v, want a duplicate-handle error", tc.name, err)
		}
	}
}
