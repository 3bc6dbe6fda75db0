package sim

import (
	"errors"
	"fmt"

	"pplb/internal/linkmodel"
	"pplb/internal/taskmodel"
	"pplb/internal/topology"
)

// Reconfig describes one topology reconfiguration: the committed successor
// graph (normally a topology.Dynamic commit), its link parameters, and the
// epoch it advances the engine to. Node ids are stable — the new graph's id
// space must contain the old one (N' >= N; joins append, leaves mark ids
// dead), and once dead an id never rejoins.
type Reconfig struct {
	// Graph is the successor topology. Required; Graph.N() >= the engine's
	// current N.
	Graph *topology.Graph

	// Links are the link parameters built for Graph (nil = unit-cost).
	Links *linkmodel.Params

	// Epoch is the topology epoch after this reconfiguration. Must be
	// strictly greater than the engine's current epoch — epochs only
	// advance.
	Epoch int64

	// Dead is the complete ascending list of dead node ids under Graph
	// (previously dead ids included — a reconfiguration cannot resurrect an
	// id). Dead nodes must have degree 0 in Graph.
	Dead []int

	// Speeds optionally replaces the per-node speeds (length Graph.N(),
	// all positive). Nil keeps the current speeds, extending a
	// heterogeneous system with speed-1 newcomers.
	Speeds []float64

	// Policy optionally replaces the policy instance. Policies that capture
	// the graph at construction (e.g. dimension exchange's edge coloring)
	// MUST be replaced with an instance built against Graph; stateless
	// policies may be left nil to keep the current instance. The
	// replacement must preserve the planning mode: it cannot move the
	// engine between active-set and full-sweep planning.
	Policy Policy
}

// Reconfigure applies a topology reconfiguration between ticks. The entire
// operation is single-threaded and canonical — every walk is in ascending
// shard/node/store order — so engines at any worker count, and snapshots
// restored on either side of the epoch boundary, stay bit-identical through
// it.
//
// Deterministic sequence:
//  1. In-flight transfers are walked in canonical order. A transfer whose
//     link survives (both endpoints alive, edge present in the new graph)
//     is kept with its edge id remapped; any other is recalled — the task
//     lands immediately on its sender if alive, else its destination if
//     alive, else the lowest-id alive node.
//  2. Queues of newly dead nodes are drained in ascending node order; each
//     task is redistributed round-robin (in queue order) across the dead
//     node's alive neighbours under the OLD graph, falling back to the
//     lowest-id alive node when none survive. No task is ever lost.
//  3. Every per-node structure is regrown to the new id space, the shard
//     partition is recomputed, the transfer shards and link-busy state are
//     rebuilt exactly from the surviving transfers, and the active set
//     (when enabled) is rebuilt over the new node range with every node
//     activated — the incremental planner re-earns its converged frontier
//     under the new topology instead of trusting stale marks.
//
// A run that never reconfigures never enters this path, so fault-free
// goldens of static topologies are byte-identical to earlier releases.
func (e *Engine) Reconfigure(rc Reconfig) error {
	s := e.state
	oldG := s.g
	oldN := oldG.N()
	if rc.Graph == nil {
		return errors.New("sim: Reconfig.Graph is required")
	}
	n := rc.Graph.N()
	if n < oldN {
		return fmt.Errorf("sim: Reconfig.Graph has %d nodes, engine has %d — ids are stable, shrink via dead nodes", n, oldN)
	}
	if rc.Links == nil {
		rc.Links = linkmodel.New(rc.Graph)
	}
	if rc.Links.Graph() != rc.Graph {
		return errors.New("sim: Reconfig.Links built for a different graph")
	}
	if rc.Epoch <= s.epoch {
		return fmt.Errorf("sim: Reconfig.Epoch %d does not advance current epoch %d", rc.Epoch, s.epoch)
	}
	dead := make([]bool, n)
	prev := -1
	for _, v := range rc.Dead {
		if v <= prev || v >= n {
			return fmt.Errorf("sim: Reconfig.Dead not ascending in-range at id %d", v)
		}
		prev = v
		if rc.Graph.Degree(v) != 0 {
			return fmt.Errorf("sim: dead node %d has degree %d in the new graph", v, rc.Graph.Degree(v))
		}
		dead[v] = true
	}
	firstAlive := -1
	for v := 0; v < n; v++ {
		if !dead[v] {
			firstAlive = v
			break
		}
	}
	if firstAlive < 0 {
		return errors.New("sim: reconfiguration leaves no alive nodes")
	}
	for v := 0; v < oldN; v++ {
		if !s.nodeAlive(v) && !dead[v] {
			return fmt.Errorf("sim: node %d cannot rejoin under its old id", v)
		}
	}
	speeds := s.speeds
	switch {
	case rc.Speeds != nil:
		if len(rc.Speeds) != n {
			return fmt.Errorf("sim: Reconfig.Speeds has %d entries for %d nodes", len(rc.Speeds), n)
		}
		if err := checkSpeeds(rc.Speeds); err != nil {
			return err
		}
		speeds = rc.Speeds
	case speeds != nil && n > oldN:
		grown := make([]float64, n)
		copy(grown, speeds)
		for v := oldN; v < n; v++ {
			grown[v] = 1
		}
		speeds = grown
	}
	pol := e.cfg.Policy
	if rc.Policy != nil {
		pol = rc.Policy
	}
	if usesActiveSet(pol, e.cfg.FullSweep) != (s.active != nil) {
		return errors.New("sim: Reconfig.Policy would change the planning mode (active-set vs full-sweep)")
	}

	st := s.tasks

	// 1. Walk the in-flight transfers in canonical order (ascending shard,
	// store order) and split them into survivors and recalls.
	type recallRec struct {
		h    taskmodel.Handle
		node int32
	}
	var kept []transferRec
	var recalls []recallRec
	for k := range s.shards {
		sh := &s.shards[k]
		for _, t := range sh.recs {
			from, to := int(t.from), int(t.to)
			if !dead[from] && !dead[to] {
				if eid, ok := rc.Graph.EdgeID(from, to); ok {
					t.edge = int32(eid)
					kept = append(kept, t)
					continue
				}
			}
			// The link is gone: recall the task. Its slide is over, so the
			// inertia flag clears with it.
			tgt := from
			if dead[tgt] {
				tgt = to
			}
			if dead[tgt] {
				tgt = firstAlive
			}
			st.SetMoving(t.task, false)
			recalls = append(recalls, recallRec{h: t.task, node: int32(tgt)})
		}
		sh.recs = sh.recs[:0]
	}

	// 2. Swap in the new topology and lay the engine out over it: existing
	// queues carry over untouched in the store, the link state is reset for
	// exact rebuild below, and the active set restarts with every node
	// activated — the one canonical state both the incremental and
	// full-sweep engines agree on across a rebuild.
	s.g = rc.Graph
	s.links = rc.Links
	s.speeds = speeds
	e.cfg.Graph = rc.Graph
	e.cfg.Links = rc.Links
	e.cfg.Speeds = speeds
	e.cfg.Policy = pol
	e.layout()

	// 3. Deliver the recalls (canonical transfer order), then drain the
	// queues of dead nodes in ascending node order, redistributing each
	// queue in its own order round-robin over the dead node's alive OLD
	// neighbours (ascending adjacency order), lowest-id alive node when the
	// whole neighbourhood died. Recall targets are always alive, so drains
	// never see recalled tasks.
	for _, r := range recalls {
		st.Enqueue(int(r.node), r.h)
		s.counters.RecalledTransfers++
	}
	var targets []int
	for v := 0; v < n; v++ {
		if !dead[v] || s.Queue(v).Len() == 0 {
			continue
		}
		targets = targets[:0]
		for _, w := range oldG.Neighbors(v) {
			if !dead[w] {
				targets = append(targets, w)
			}
		}
		if len(targets) == 0 {
			targets = append(targets, firstAlive)
		}
		q := s.Queue(v)
		for i := 0; q.Len() > 0; i++ {
			h := st.Remove(v, st.ID(q.Front()))
			st.Enqueue(targets[i%len(targets)], h)
			s.counters.DrainedTasks++
		}
		st.RestoreTotal(v, 0) // exactly empty, whatever the removals' float residue
	}

	// 4. Rebuild the transfer shards (append order = canonical pre-reconfig
	// order) and link-busy flags. The refilled queues need nothing more: the
	// service walk reads their headers directly.
	for _, r := range kept {
		sh := &s.shards[s.nodeShard[r.to]]
		sh.recs = append(sh.recs, r)
		s.linkBusy[r.edge] = true
	}

	// 5. Inertia records carry the node a task was delivered to; recalls and
	// drains may have moved it, so refresh from the store (and drop records
	// whose task completed this tick — the same revalidation the settle
	// pass performs).
	mrs := s.movingResident[:0]
	for _, mr := range s.movingResident {
		if st.ID(mr.h) != mr.id {
			continue
		}
		mrs = append(mrs, movingRec{h: mr.h, id: mr.id, node: int32(st.Node(mr.h))})
	}
	s.movingResident = mrs

	hasDead := len(rc.Dead) > 0
	if hasDead {
		s.deadNode = dead
	} else {
		s.deadNode = nil
	}
	s.epoch = rc.Epoch
	s.counters.Reconfigs++
	return nil
}
