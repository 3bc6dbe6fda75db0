// Snapshot/restore: a versioned, deterministic binary encoding of the
// complete engine state, and the inverse that rebuilds a running engine from
// it. The contract is bit-identical resume: stepping a restored engine
// produces byte-equal state and identical metrics to the uninterrupted run at
// every subsequent tick, for any Workers count and for both the incremental
// and the full-sweep engine.
//
// The encoding is canonical — a pure function of semantic state, independent
// of execution history details that do not affect future behaviour — so equal
// snapshots mean equal states and the byte slice doubles as a state hash
// (the harness's snapshot twin compares snapshots directly). The active set
// serializes its pending bits; the plan buffer is dead between ticks (the
// next beginTick clears it before reuse). The in-flight section holds only
// derived data: the canonical InFlightLoad sum and an always-empty per-node
// list. Restore checks its structure and ignores its values, so no
// in-flight state is ever taken from outside the program. The link-busy
// flags are rebuilt from the transfers the same way: a link is busy exactly
// while one transfer holds it, each transfer must name the edge between its
// endpoints, and the encoded flags must match. Each inertia record must name
// a released slot or a task resident at the record's node.
//
// Everything else is exact: the arena's slot lanes and free-list order (the
// free-list determines every future handle assignment), cached queue totals
// (accumulated floats, restored bit-for-bit rather than re-summed), transfer
// shard lanes, RNG stream positions, counters and response-time moments.
//
// Not captured, by design: the topology, link parameters, policy and arrival
// function (code and immutable configuration — the caller passes the same
// Config to Restore, and the header cross-checks node/edge counts, the seed
// and a link-parameter fingerprint); per-tick scratch (plan buffers,
// outboxes, shard partials), which is empty between ticks; and policy
// internals, which the engine requires to be stateless between ticks (the
// harness's snapshot twin runs a freshly constructed policy to enforce
// exactly that).
package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"pplb/internal/stats"
	"pplb/internal/taskmodel"
	"pplb/internal/topology"
)

// topoFingerprint hashes the graph structure (node count and canonical edge
// list) with FNV-1a. Counts alone cannot distinguish two same-size graphs
// wired differently — which static topologies never produced, but a replayed
// churn history easily can.
func topoFingerprint(g *topology.Graph) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mix(uint64(g.N()))
	for _, e := range g.Edges() {
		mix(uint64(e.U))
		mix(uint64(e.V))
	}
	return h
}

// SnapshotVersion is the format version byte written after the magic. Bump it
// on any encoding change; Restore rejects other versions.
//
// Version 2 (dynamic topology): the header gains a structural topology
// fingerprint, the topology epoch and the dead-node list, and the counter
// block gains the reconfiguration counters. A caller restoring across an
// epoch boundary passes the *current* committed graph (and its links) in
// cfg — the fingerprint pins that it reconstructed exactly the topology the
// snapshot was taken under.
const SnapshotVersion = 2

// maxSnapshotIDs caps the task-id bound a snapshot may carry (the id→handle
// index is dense, so restore allocates 4 bytes per id). 2^28 ids is a 1 GiB
// index — far past any supported run, and a hard stop for corrupted inputs.
const maxSnapshotIDs = 1 << 28

var snapshotMagic = [8]byte{'P', 'P', 'L', 'B', 'S', 'N', 'A', 'P'}

// snapWriter appends little-endian fields to a growing buffer.
type snapWriter struct{ b []byte }

func (w *snapWriter) raw(p []byte)  { w.b = append(w.b, p...) }
func (w *snapWriter) u8(v byte)     { w.b = append(w.b, v) }
func (w *snapWriter) u32(v uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *snapWriter) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *snapWriter) i64(v int64)   { w.u64(uint64(v)) }
func (w *snapWriter) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *snapWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *snapWriter) rng(s [4]uint64) { w.u64(s[0]); w.u64(s[1]); w.u64(s[2]); w.u64(s[3]) }

// snapReader consumes little-endian fields, latching the first error.
type snapReader struct {
	b   []byte
	off int
	err error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("sim: snapshot: "+format, args...)
	}
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b)-r.off < n {
		r.fail("truncated at offset %d (need %d more bytes)", r.off, n)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *snapReader) u8() byte {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *snapReader) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (r *snapReader) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (r *snapReader) i64() int64   { return int64(r.u64()) }
func (r *snapReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *snapReader) bool() bool {
	switch v := r.u8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("invalid bool byte %d at offset %d", v, r.off-1)
		return false
	}
}

func (r *snapReader) rng() [4]uint64 {
	return [4]uint64{r.u64(), r.u64(), r.u64(), r.u64()}
}

// count reads a u64 element count and bounds it by the bytes remaining (each
// element occupies at least min bytes), so a corrupt length cannot drive a
// giant allocation.
func (r *snapReader) count(min int) int {
	n := r.u64()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)-r.off)/uint64(min) {
		r.fail("implausible count %d at offset %d (%d bytes remain)", n, r.off-8, len(r.b)-r.off)
		return 0
	}
	return int(n)
}

// Snapshot serializes the complete engine state. Call it between ticks (never
// concurrently with Step). The bytes are canonical: two engines in the same
// semantic state produce identical snapshots, so snapshot equality is state
// equality. Snapshot allocates — it is a checkpoint operation, not a tick
// operation — and leaves the engine untouched.
func (e *Engine) Snapshot() ([]byte, error) {
	s := e.state
	st := s.tasks
	capn := st.Cap()

	est := 176 + len(s.linkBusy) + capn*63 + len(st.FreeList())*4 +
		s.g.N()*16 + s.InFlight()*22 + len(s.movingResident)*16
	w := &snapWriter{b: make([]byte, 0, est)}

	// Header: identity of the configuration this state belongs to — since
	// format 2 that includes the topology version (structural fingerprint,
	// epoch and dead-node list), because the graph is no longer immutable
	// over an engine's lifetime.
	w.raw(snapshotMagic[:])
	w.u8(SnapshotVersion)
	w.u64(uint64(s.g.N()))
	w.u64(uint64(s.g.NumEdges()))
	w.u64(e.cfg.Seed)
	w.u64(s.links.Fingerprint())
	w.u64(topoFingerprint(s.g))
	w.bool(s.active != nil)
	w.i64(s.epoch)
	deadIDs := s.DeadNodes()
	w.u64(uint64(len(deadIDs)))
	for _, v := range deadIDs {
		w.u32(uint32(v))
	}

	// Scalars, counters, metrics, RNG stream positions.
	w.i64(s.tick)
	w.i64(int64(s.nextTaskID))
	c := &s.counters
	w.i64(c.Migrations)
	w.f64(c.MigratedLoad)
	w.f64(c.Traffic)
	w.f64(c.BouncedTraffic)
	w.i64(c.Faults)
	w.i64(c.Rejected)
	w.f64(c.Injected)
	w.f64(c.Consumed)
	w.i64(c.TasksCompleted)
	w.i64(c.Reconfigs)
	w.i64(c.DrainedTasks)
	w.i64(c.RecalledTransfers)
	rs := s.respTime.State()
	w.i64(int64(rs.N))
	w.f64(rs.Mean)
	w.f64(rs.M2)
	w.f64(rs.Min)
	w.f64(rs.Max)
	w.rng(e.planBase.State())
	w.rng(e.faultBase.State())
	w.rng(e.arrivalRNG.State())

	// Link busy flags, in canonical edge order.
	for _, busy := range s.linkBusy {
		w.bool(busy)
	}

	// Task arena: every slot (dead ones as a bare -1 id), then the free-list
	// in exact recycling order — it determines every future handle assignment.
	// Node and link lanes are not encoded; the queue records rebuild them.
	w.u64(uint64(capn))
	for h := 0; h < capn; h++ {
		ss := st.SlotStateAt(taskmodel.Handle(h))
		w.i64(int64(ss.ID))
		if ss.ID < 0 {
			continue
		}
		w.f64(ss.Load)
		w.f64(ss.Flag)
		w.bool(ss.Moving)
		w.u32(uint32(ss.Origin))
		w.u32(uint32(ss.Prev))
		w.u32(uint32(ss.Hops))
		w.i64(ss.Birth)
		w.i64(ss.Done)
		w.i64(ss.MovedTick)
	}
	w.i64(int64(st.IDBound()))
	free := st.FreeList()
	w.u64(uint64(len(free)))
	for _, h := range free {
		w.u32(uint32(h))
	}

	// Queues: resident handles front-to-back plus the cached total, whose
	// exact bits carry the accumulated add/remove history.
	for v := range s.g.N() {
		q := s.Queue(v)
		w.u64(uint64(q.Len()))
		for h := q.Front(); h != taskmodel.NoHandle; h = st.Next(h) {
			w.u32(uint32(h))
		}
		w.f64(q.Total())
	}

	// Transfer shards, in shard order, store order within each shard.
	for k := range s.shards {
		recs := s.shards[k].recs
		w.u64(uint64(len(recs)))
		for _, t := range recs {
			w.u32(uint32(t.task))
			w.u32(uint32(t.from))
			w.u32(uint32(t.to))
			w.u32(uint32(t.edge))
			w.u32(uint32(t.remaining))
			w.bool(t.bounce)
			w.bool(t.moving)
		}
	}

	// In-flight section, derived from the transfers above: the canonical
	// load sum and an empty per-node list (format 2 keeps the list's slot).
	w.f64(s.InFlightLoad())
	w.u64(0)

	// Inertia records delivered last tick (settle-pass input). Entries may
	// reference already-released slots; the settle pass revalidates by id, so
	// they serialize verbatim.
	w.u64(uint64(len(s.movingResident)))
	for _, mr := range s.movingResident {
		w.u32(uint32(mr.h))
		w.i64(int64(mr.id))
		w.u32(uint32(mr.node))
	}

	// Active set: the pending bits.
	if s.active != nil {
		w.u64(uint64(len(s.active.pending)))
		for _, word := range s.active.pending {
			w.u64(word)
		}
	}
	return w.b, nil
}

// Restore rebuilds a running engine from a snapshot. cfg must describe the
// same system the snapshot was taken from — same graph structure (for a
// reconfigured engine that is the graph of the snapshot's topology epoch,
// pinned by a structural fingerprint), link parameters, seed, and the same
// active-set mode (policy locality × FullSweep) — but may differ in Workers:
// a Workers=8 run resumes bit-identically on a Workers=1 engine and vice
// versa. cfg.Initial is ignored (the snapshot carries the real workload).
// The policy instance in cfg is used as-is and must be freshly constructed
// or otherwise stateless: the engine contract is that policies carry no
// mutable state between ticks.
func Restore(data []byte, cfg Config) (*Engine, error) {
	r := &snapReader{b: data}
	var magic [8]byte
	copy(magic[:], r.take(8))
	if r.err == nil && magic != snapshotMagic {
		return nil, errors.New("sim: snapshot: bad magic (not a pplb engine snapshot)")
	}
	if v := r.u8(); r.err == nil && v != SnapshotVersion {
		return nil, fmt.Errorf("sim: snapshot: version %d, this build reads version %d", v, SnapshotVersion)
	}
	n := r.u64()
	edges := r.u64()
	seed := r.u64()
	linksFP := r.u64()
	topoFP := r.u64()
	hasActive := r.bool()
	epoch := r.i64()
	deadCnt := r.count(4)
	deadIDs := make([]int, 0, deadCnt)
	prevDead := -1
	for i := 0; i < deadCnt; i++ {
		v := int(r.u32())
		if r.err == nil && (v <= prevDead || uint64(v) >= n) {
			r.fail("dead-node list not ascending in-range at id %d", v)
		}
		prevDead = v
		deadIDs = append(deadIDs, v)
	}
	if r.err != nil {
		return nil, r.err
	}
	if epoch < 0 {
		return nil, fmt.Errorf("sim: snapshot: negative topology epoch %d", epoch)
	}
	if cfg.Graph == nil {
		return nil, errors.New("sim: Restore requires Config.Graph")
	}
	if int64(cfg.Graph.N()) != int64(n) {
		return nil, fmt.Errorf("sim: snapshot: taken on %d nodes, config has %d", n, cfg.Graph.N())
	}
	if int64(cfg.Graph.NumEdges()) != int64(edges) {
		return nil, fmt.Errorf("sim: snapshot: taken with %d edges, config has %d", edges, cfg.Graph.NumEdges())
	}
	if fp := topoFingerprint(cfg.Graph); fp != topoFP {
		return nil, fmt.Errorf("sim: snapshot: topology fingerprint %#x, config graph %q has %#x (wrong topology epoch?)", topoFP, cfg.Graph.Name(), fp)
	}
	if cfg.Seed != seed {
		return nil, fmt.Errorf("sim: snapshot: taken with seed %#x, config has %#x", seed, cfg.Seed)
	}
	for _, v := range deadIDs {
		if cfg.Graph.Degree(v) != 0 {
			return nil, fmt.Errorf("sim: snapshot: dead node %d has degree %d in config graph", v, cfg.Graph.Degree(v))
		}
	}
	cfg.Initial = nil
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	e.state.epoch = epoch
	if len(deadIDs) > 0 {
		dead := make([]bool, n)
		for _, v := range deadIDs {
			dead[v] = true
		}
		e.state.deadNode = dead
	}
	if fp := e.state.links.Fingerprint(); fp != linksFP {
		e.Close()
		return nil, fmt.Errorf("sim: snapshot: link-parameter fingerprint %#x, config has %#x", linksFP, fp)
	}
	if (e.state.active != nil) != hasActive {
		e.Close()
		mode := func(b bool) string {
			if b {
				return "incremental (active-set)"
			}
			return "full-sweep"
		}
		return nil, fmt.Errorf("sim: snapshot: taken on a %s engine, config builds a %s one (policy locality or FullSweep mismatch)",
			mode(hasActive), mode(e.state.active != nil))
	}
	if err := e.restoreBody(r); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// restoreBody decodes everything after the header into a freshly built,
// empty engine.
func (e *Engine) restoreBody(r *snapReader) error {
	s := e.state
	n := s.g.N()

	s.tick = r.i64()
	s.nextTaskID = taskmodel.ID(r.i64())
	s.counters.Migrations = r.i64()
	s.counters.MigratedLoad = r.f64()
	s.counters.Traffic = r.f64()
	s.counters.BouncedTraffic = r.f64()
	s.counters.Faults = r.i64()
	s.counters.Rejected = r.i64()
	s.counters.Injected = r.f64()
	s.counters.Consumed = r.f64()
	s.counters.TasksCompleted = r.i64()
	s.counters.Reconfigs = r.i64()
	s.counters.DrainedTasks = r.i64()
	s.counters.RecalledTransfers = r.i64()
	var rs stats.OnlineState
	rs.N = int(r.i64())
	rs.Mean = r.f64()
	rs.M2 = r.f64()
	rs.Min = r.f64()
	rs.Max = r.f64()
	s.respTime.SetState(rs)
	e.planBase.SetState(r.rng())
	e.faultBase.SetState(r.rng())
	e.arrivalRNG.SetState(r.rng())
	// The busy flags are derived from the transfers below; the encoded ones
	// are only checked against them.
	busy := make([]bool, len(s.linkBusy))
	for i := range busy {
		busy[i] = r.bool()
	}
	if r.err != nil {
		return r.err
	}

	// Arena.
	capn := r.count(8)
	slots := make([]taskmodel.SlotState, capn)
	for h := range slots {
		id := taskmodel.ID(r.i64())
		if id < 0 {
			slots[h] = taskmodel.SlotState{ID: -1}
			continue
		}
		slots[h] = taskmodel.SlotState{
			ID:     id,
			Load:   r.f64(),
			Flag:   r.f64(),
			Moving: r.bool(),
			Origin: int32(r.u32()),
			Prev:   int32(r.u32()),
			Hops:   int32(r.u32()),
			Birth:  r.i64(),
			Done:   r.i64(),
		}
		slots[h].MovedTick = r.i64()
	}
	idBound := taskmodel.ID(r.i64())
	// Ids are issued sequentially, so the store's id index is always exactly
	// nextTaskID entries — enforcing that here keeps a corrupted length field
	// from driving an O(idBound) allocation below. The absolute cap bounds
	// the index at 1 GiB even for a coordinated corruption of both fields.
	if idBound != s.nextTaskID {
		return fmt.Errorf("sim: snapshot: id bound %d != next task id %d", idBound, s.nextTaskID)
	}
	if idBound > maxSnapshotIDs {
		return fmt.Errorf("sim: snapshot: id bound %d exceeds the format limit %d", idBound, int64(maxSnapshotIDs))
	}
	free := make([]taskmodel.Handle, r.count(4))
	for i := range free {
		free[i] = taskmodel.Handle(r.u32())
	}
	if r.err != nil {
		return r.err
	}
	if err := s.tasks.RestoreSnapshot(slots, free, idBound); err != nil {
		return err
	}
	st := s.tasks

	// Every live slot is owned by exactly one queue or transfer record; a
	// handle referenced twice would double-release on completion and a live
	// slot referenced nowhere is leaked state no valid engine produces.
	owned := make([]bool, capn)
	ownedCnt := 0
	claim := func(h taskmodel.Handle, what string, a, b int) {
		if r.err != nil {
			return
		}
		if owned[h] {
			r.fail("%s %d/%d references handle %d twice", what, a, b, h)
			return
		}
		owned[h] = true
		ownedCnt++
	}

	// Queues: rebuild residency front to back (claiming node and link
	// lanes), then restore the exact total. The queue headers are the
	// engine's only record of residency, so nothing else is rebuilt. The
	// claim comes first: a handle linked into two places would corrupt the
	// lists, so it never is.
	for v := range n {
		cnt := r.count(4)
		if r.err == nil && cnt > 0 && !s.nodeAlive(v) {
			r.fail("dead node %d has %d resident tasks", v, cnt)
			return r.err
		}
		for i := 0; i < cnt; i++ {
			h := taskmodel.Handle(r.u32())
			if r.err == nil && !st.Alive(h) {
				r.fail("queue %d references dead handle %d", v, h)
			}
			claim(h, "queue", v, i) // a no-op once r.err is set
			if r.err != nil {
				return r.err
			}
			st.Enqueue(v, h)
		}
		total := r.f64()
		if r.err != nil {
			return r.err
		}
		st.RestoreTotal(v, total)
	}

	// Transfer shards.
	for k := range s.shards {
		cnt := r.count(22)
		sh := &s.shards[k]
		lo, hi := s.shardLo[k], s.shardLo[k+1]
		for i := 0; i < cnt; i++ {
			rec := transferRec{
				task:      taskmodel.Handle(r.u32()),
				from:      int32(r.u32()),
				to:        int32(r.u32()),
				edge:      int32(r.u32()),
				remaining: int32(r.u32()),
				bounce:    r.bool(),
				moving:    r.bool(),
			}
			if r.err != nil {
				return r.err
			}
			switch {
			case !st.Alive(rec.task):
				r.fail("shard %d transfer %d references dead handle %d", k, i, rec.task)
			case int(rec.to) < lo || int(rec.to) >= hi:
				r.fail("shard %d transfer %d destined to node %d outside [%d,%d)", k, i, rec.to, lo, hi)
			case int(rec.from) < 0 || int(rec.from) >= n:
				r.fail("shard %d transfer %d from invalid node %d", k, i, rec.from)
			case !s.nodeAlive(int(rec.from)) || !s.nodeAlive(int(rec.to)):
				r.fail("shard %d transfer %d touches a dead node (%d -> %d)", k, i, rec.from, rec.to)
			case rec.remaining < 1:
				r.fail("shard %d transfer %d with remaining latency %d", k, i, rec.remaining)
			default:
				if eid, ok := s.g.EdgeID(int(rec.from), int(rec.to)); !ok || eid != int(rec.edge) {
					r.fail("shard %d transfer %d names edge %d, which is not the %d -> %d link", k, i, rec.edge, rec.from, rec.to)
				} else if s.linkBusy[eid] {
					r.fail("shard %d transfer %d on link %d, which another transfer holds", k, i, eid)
				}
			}
			claim(rec.task, "shard", k, i)
			if r.err != nil {
				return r.err
			}
			sh.recs = append(sh.recs, rec)
			s.linkBusy[rec.edge] = true
		}
	}
	if ownedCnt != st.Live() {
		return fmt.Errorf("sim: snapshot: %d live slots but %d owned by queues/transfers", st.Live(), ownedCnt)
	}
	for id, b := range busy {
		if b != s.linkBusy[id] {
			return fmt.Errorf("sim: snapshot: link %d busy flag is %t, transfers say %t", id, b, s.linkBusy[id])
		}
	}

	// In-flight section: derived from the transfers, so its values are
	// skipped. Older builds wrote non-empty per-node lists; their structure
	// is still checked.
	r.f64()
	nz := r.count(12)
	prev := -1
	for i := 0; i < nz; i++ {
		v := int(r.u32())
		r.f64()
		if r.err != nil {
			return r.err
		}
		if v <= prev || v >= n {
			r.fail("inflight entry %d: node %d out of order or range", i, v)
			return r.err
		}
		prev = v
	}

	// Inertia records. A record's slot is either released since delivery
	// (the settle pass skips it by id) or still holds the record's task,
	// resident at the record's node: the settle pass re-activates that node,
	// so a record naming another node would plan the wrong one.
	mrn := r.count(16)
	s.movingResident = make([]movingRec, 0, mrn)
	for i := 0; i < mrn; i++ {
		mr := movingRec{
			h:    taskmodel.Handle(r.u32()),
			id:   taskmodel.ID(r.i64()),
			node: int32(r.u32()),
		}
		if r.err != nil {
			return r.err
		}
		if mr.h < 0 || int(mr.h) >= st.Cap() || int(mr.node) < 0 || int(mr.node) >= n {
			r.fail("inertia record %d out of range (handle %d, node %d)", i, mr.h, mr.node)
			return r.err
		}
		if st.Alive(mr.h) && (st.ID(mr.h) != mr.id || st.Node(mr.h) != int(mr.node)) {
			r.fail("inertia record %d names task %d at node %d, but handle %d holds task %d at node %d",
				i, mr.id, mr.node, mr.h, st.ID(mr.h), st.Node(mr.h))
			return r.err
		}
		s.movingResident = append(s.movingResident, mr)
	}

	// Active set: overwrite the activateAll state New installed with the
	// snapshot's pending bits.
	if a := s.active; a != nil {
		wn := r.count(8)
		if r.err == nil && wn != len(a.pending) {
			r.fail("active set has %d words, engine needs %d", wn, len(a.pending))
		}
		for i := range a.pending {
			a.pending[i] = r.u64()
		}
		if rem := uint(n) & 63; rem != 0 && r.err == nil {
			if a.pending[len(a.pending)-1]&^(1<<rem-1) != 0 {
				r.fail("active set has bits beyond node %d", n-1)
			}
		}
	}

	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("sim: snapshot: %d trailing bytes after decode", len(r.b)-r.off)
	}
	return nil
}
