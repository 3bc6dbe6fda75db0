package sim

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"pplb/internal/linkmodel"
	"pplb/internal/taskmodel"
	"pplb/internal/topology"
)

// fuzzRestoreConfig builds the fixed post-churn system FuzzRestore decodes
// against: a 4x4 torus that lost node 3 and gained node 16, latency-3 links
// so snapshots carry in-flight transfers, and an active-set policy that
// delivers with inertia, so they carry inertia records too.
func fuzzRestoreConfig() (Config, Reconfig) {
	g0 := topology.NewTorus(4, 4)
	d := topology.NewDynamic(g0)
	d.Leave(3)
	v := d.Join(topology.Point2{X: 5, Y: 5})
	d.AddLink(v, 0)
	d.AddLink(v, 5)
	g, epoch := d.Commit()
	rc := Reconfig{
		Graph: g,
		Links: linkmodel.New(g, linkmodel.WithUniformLength(3)),
		Epoch: epoch,
		Dead:  d.DeadNodes(),
	}
	cfg := Config{
		Graph:       rc.Graph,
		Links:       rc.Links,
		Policy:      localSlide{},
		Seed:        9,
		ServiceRate: 0.05,
	}
	return cfg, rc
}

// fuzzRestoreEngine builds a running engine of fuzzRestoreConfig's system:
// a small workload on the churned graph, with the churn history (epoch and
// dead nodes) installed by hand so its snapshots decode against that config.
func fuzzRestoreEngine(tb testing.TB) *Engine {
	tb.Helper()
	cfg, rc := fuzzRestoreConfig()
	initial := make([][]float64, cfg.Graph.N())
	initial[0] = []float64{2, 1, 1}
	initial[9] = []float64{3, 0.5}
	cfg.Initial = initial
	e, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	e.state.epoch = rc.Epoch // the snapshot carries the churn history
	dead := make([]bool, cfg.Graph.N())
	for _, v := range rc.Dead {
		dead[v] = true
	}
	e.state.deadNode = dead
	return e
}

// snapEdit is a hand-edited snapshot and a fragment of the error Restore
// must return for it.
type snapEdit struct {
	name, want string
	snap       []byte
}

// linkStateEdits returns a snapshot of fuzzRestoreConfig's system with
// transfers in flight and two hand edits of it that only the link-state
// cross-checks catch: a free link's busy byte set, and a transfer moved onto
// another free edge (busy bytes moved along, so the flags still match the
// transfers' edge fields).
func linkStateEdits(tb testing.TB) (snap []byte, edits []snapEdit) {
	tb.Helper()
	e := fuzzRestoreEngine(tb)
	defer e.Close()
	for e.state.InFlight() == 0 {
		e.Step()
	}
	s := e.state
	var err error
	if snap, err = e.Snapshot(); err != nil {
		tb.Fatal(err)
	}

	// The busy flags follow the arrival stream's state, the last field of
	// the scalar block; its 32 bytes occur exactly once.
	var rngBytes []byte
	for _, w := range e.arrivalRNG.State() {
		rngBytes = binary.LittleEndian.AppendUint64(rngBytes, w)
	}
	busyAt := bytes.Index(snap, rngBytes) + len(rngBytes)
	free := -1
	for id, b := range s.linkBusy {
		if (snap[busyAt+id] == 1) != b {
			tb.Fatalf("busy flag of link %d not at offset %d", id, busyAt+id)
		}
		if !b && free < 0 {
			free = id
		}
	}
	if free < 0 {
		tb.Fatal("every link is busy")
	}

	// The first transfer's record: the shard sections end where the
	// in-flight section starts, each is a count and 22-byte records, and
	// the edge field sits at offset 12 of a record.
	recAt := inflightAt(e, snap)
	for k := range s.shards {
		recAt -= 8 + 22*len(s.shards[k].recs)
	}
	var t transferRec
	for k := range s.shards {
		recAt += 8
		if len(s.shards[k].recs) > 0 {
			t = s.shards[k].recs[0]
			break
		}
	}
	for i, f := range []int32{int32(t.task), t.from, t.to, t.edge, t.remaining} {
		if int32(binary.LittleEndian.Uint32(snap[recAt+4*i:])) != f {
			tb.Fatal("first transfer record not where expected")
		}
	}

	busyFree := append([]byte(nil), snap...)
	busyFree[busyAt+free] = 1
	wrongEdge := append([]byte(nil), snap...)
	binary.LittleEndian.PutUint32(wrongEdge[recAt+12:], uint32(free))
	wrongEdge[busyAt+int(t.edge)] = 0
	wrongEdge[busyAt+free] = 1
	return snap, []snapEdit{
		{"busy flag on a free link", "busy flag", busyFree},
		{"transfer on another edge", "is not the", wrongEdge},
	}
}

// inertiaEdits returns a snapshot of fuzzRestoreConfig's system holding a
// live inertia record and two hand edits of that record which only the
// inertia cross-check catches: its node moved to another live node, and its
// id changed to another live task's. Either way the settle pass would
// re-activate a node whose plan inputs did not change (or skip one whose
// did), and the active-set engine would drift from a full sweep.
func inertiaEdits(tb testing.TB) (snap []byte, edits []snapEdit) {
	tb.Helper()
	e := fuzzRestoreEngine(tb)
	defer e.Close()
	s, st := e.state, e.state.tasks
	live := -1
	for tick := 0; live < 0; tick++ {
		if tick == 50 {
			tb.Fatal("no live inertia record in 50 ticks")
		}
		e.Step()
		for i, mr := range s.movingResident {
			if st.ID(mr.h) == mr.id {
				live = i
				break
			}
		}
	}
	var err error
	if snap, err = e.Snapshot(); err != nil {
		tb.Fatal(err)
	}

	// The records follow the 16-byte in-flight section and their count;
	// each is a handle, an id and a node (4+8+4 bytes).
	mr := s.movingResident[live]
	at := inflightAt(e, snap) + 16 + 8 + 16*live
	if binary.LittleEndian.Uint32(snap[at:]) != uint32(mr.h) ||
		binary.LittleEndian.Uint64(snap[at+4:]) != uint64(mr.id) ||
		binary.LittleEndian.Uint32(snap[at+12:]) != uint32(mr.node) {
		tb.Fatal("inertia record not where expected")
	}
	other := -1
	for v := range s.g.N() {
		if v != int(mr.node) && s.nodeAlive(v) {
			other = v
			break
		}
	}
	var otherID int64 = -1
	for h := range st.Cap() {
		if id := st.ID(taskmodel.Handle(h)); id >= 0 && id != mr.id {
			otherID = int64(id)
			break
		}
	}
	if otherID < 0 {
		tb.Fatal("no second live task")
	}
	wrongNode := append([]byte(nil), snap...)
	binary.LittleEndian.PutUint32(wrongNode[at+12:], uint32(other))
	wrongID := append([]byte(nil), snap...)
	binary.LittleEndian.PutUint64(wrongID[at+4:], uint64(otherID))
	return snap, []snapEdit{
		{"inertia record on another node", "inertia record", wrongNode},
		{"inertia record for another task", "inertia record", wrongID},
	}
}

// FuzzRestore feeds mutated snapshot bytes through Restore: any input must
// either produce a working engine (stepped once to shake out latent decode
// corruption) or a descriptive error — never a panic or a hostile-length
// allocation. The seed corpus holds real snapshots of the matching system
// (several ticks, so free-list recycling, transfers and inertia records are
// all populated), one snapshot from a mismatched epoch, hand-truncated
// variants, the link-state edits and the inertia-record edits; `go test`
// runs the corpus as part of the merge gate and the nightly job mutates from
// there.
func FuzzRestore(f *testing.F) {
	cfg, _ := fuzzRestoreConfig()

	// Live snapshots at several ticks of the matching system.
	e := fuzzRestoreEngine(f)
	for i := 0; i < 12; i++ {
		e.Step()
		if i%4 == 3 {
			snap, err := e.Snapshot()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(snap)
			// Truncations and a corrupted tail seed the error paths.
			f.Add(snap[:len(snap)/2])
			mut := append([]byte(nil), snap...)
			for off := 96; off < len(mut); off += 61 {
				mut[off] ^= 0xff
			}
			f.Add(mut)
		}
	}
	e.Close()
	_, linkEdits := linkStateEdits(f)
	_, inertia := inertiaEdits(f)
	for _, ed := range append(linkEdits, inertia...) {
		f.Add(ed.snap)
	}

	// A snapshot of the pre-churn topology: decodes against cfg must fail
	// the structural fingerprint, not crash.
	g0 := topology.NewTorus(4, 4)
	init0 := make([][]float64, g0.N())
	init0[0] = []float64{1}
	e0, err := New(Config{Graph: g0, Policy: localGreedy{}, Seed: 9, Initial: init0})
	if err != nil {
		f.Fatal(err)
	}
	e0.Run(2)
	if snap, err := e0.Snapshot(); err == nil {
		f.Add(snap)
	}
	e0.Close()

	f.Fuzz(func(t *testing.T, data []byte) {
		eng, err := Restore(data, cfg)
		if err != nil {
			if eng != nil {
				t.Fatal("Restore returned both an engine and an error")
			}
			if err.Error() == "" {
				t.Fatal("Restore error is not descriptive")
			}
			return
		}
		// A snapshot that decodes must also run: one tick exercises every
		// restored structure (queues, transfers, aggregates, active set).
		eng.Step()
		eng.Close()
	})
}

// Restore rebuilds the link-busy flags from the transfers and rejects a
// snapshot whose encoded flags or transfer edges disagree with them: a busy
// flag on a free link would otherwise block that link for good, and a
// transfer naming the wrong edge would free the wrong link on delivery.
func TestSnapshotRestoreChecksLinkState(t *testing.T) {
	expectRejected(t, linkStateEdits)
}

// Restore rejects an inertia record whose slot holds its task elsewhere or
// holds another task: the settle pass trusts the record's node.
func TestSnapshotRestoreChecksInertiaRecords(t *testing.T) {
	expectRejected(t, inertiaEdits)
}

// expectRejected restores the unedited snapshot edits returns, which must
// succeed, and each edited one, which must fail with an error naming the
// edit's fragment.
func expectRejected(t *testing.T, edits func(testing.TB) ([]byte, []snapEdit)) {
	t.Helper()
	cfg, _ := fuzzRestoreConfig()
	snap, eds := edits(t)
	e, err := Restore(snap, cfg)
	if err != nil {
		t.Fatalf("unedited snapshot: %v", err)
	}
	e.Close()
	for _, ed := range eds {
		e, err := Restore(ed.snap, cfg)
		if err == nil {
			e.Close()
			t.Errorf("%s: Restore accepted the snapshot", ed.name)
			continue
		}
		if !strings.Contains(err.Error(), ed.want) {
			t.Errorf("%s: Restore error %q, want one containing %q", ed.name, err, ed.want)
		}
	}
}
