package sim

import (
	"unsafe"

	"pplb/internal/taskmodel"
)

// numShards is the fixed shard count of the tick pipeline. Nodes are
// partitioned into numShards contiguous ranges and every per-node mutation of
// a tick phase (queue adds/removals, service, transfer delivery) happens on
// the shard that owns the node, so phases fan out across shards without
// locks. The count is a constant — never derived from Config.Workers — so the
// decomposition, and with it every float-reduction order, is identical for
// the sequential and the parallel engine: that is what makes Workers=1 and
// Workers=8 bit-identical by construction.
const numShards = 16

// transferRec is one transfer being handed between shards: a move applied by
// a source-node shard becoming a transfer owned by the destination-node
// shard, or a faulted transfer bouncing back towards its sender. Records are
// buffered in per-shard outboxes and committed in canonical shard order.
type transferRec struct {
	task      taskmodel.Handle
	from, to  int32
	edge      int32
	remaining int32
	bounce    bool
	moving    bool
}

// transferShardData is the struct-of-arrays store of the transfers in
// flight towards the nodes one shard owns. The parallel arrays replace the
// old []*Transfer pointer shells + freelist: advancement walks flat
// int32/bool lanes instead of chasing heap pointers, and compaction is an
// in-place two-finger sweep with no per-transfer allocation at all. Since
// the arena conversion the task lane holds store handles, so the whole
// shard is pointer-free and invisible to the garbage collector.
type transferShardData struct {
	task      []taskmodel.Handle
	from      []int32
	to        []int32
	edge      []int32
	remaining []int32
	bounce    []bool
	moving    []bool
}

// transferShard pads the lane headers to a cache-line boundary: the shards
// live in a [numShards] array and advancement mutates every header (append,
// compact, truncate) concurrently across shards, so an unpadded array would
// false-share headers at every shard boundary.
type transferShard struct {
	transferShardData
	_ [(cacheLine - unsafe.Sizeof(transferShardData{})%cacheLine) % cacheLine]byte
}

func (t *transferShard) len() int { return len(t.task) }

// push appends a committed record.
func (t *transferShard) push(r transferRec) {
	t.task = append(t.task, r.task)
	t.from = append(t.from, r.from)
	t.to = append(t.to, r.to)
	t.edge = append(t.edge, r.edge)
	t.remaining = append(t.remaining, r.remaining)
	t.bounce = append(t.bounce, r.bounce)
	t.moving = append(t.moving, r.moving)
}

// keepAt moves the surviving transfer at index i to slot w (w <= i) with the
// decremented remaining latency — the compaction step of advancement.
func (t *transferShard) keepAt(w, i int, rem int32) {
	t.task[w] = t.task[i]
	t.from[w] = t.from[i]
	t.to[w] = t.to[i]
	t.edge[w] = t.edge[i]
	t.remaining[w] = rem
	t.bounce[w] = t.bounce[i]
	t.moving[w] = t.moving[i]
}

// truncate drops everything past the first n slots.
func (t *transferShard) truncate(n int) {
	t.task = t.task[:n]
	t.from = t.from[:n]
	t.to = t.to[:n]
	t.edge = t.edge[:n]
	t.remaining = t.remaining[:n]
	t.bounce = t.bounce[:n]
	t.moving = t.moving[:n]
}

// movingRec pairs a task delivered with inertia with the node it landed on,
// so the settle pass can re-activate exactly that node when the task comes
// to rest (the node lane is queue state, not settle state). The id rides
// along to revalidate the handle: a task delivered and fully serviced in the
// same tick is released in the reduce, and its slot may be recycled by next
// tick's arrivals before the settle pass runs.
type movingRec struct {
	h    taskmodel.Handle
	id   taskmodel.ID
	node int32
}

// shardPartData is the per-shard per-tick scratch of the pipeline: outboxes
// of transfers to hand to other shards, and partial reductions (counters,
// inertia arrivals, service completions) that the
// engine folds into the global state in ascending shard order, so float sums
// are bit-stable no matter which worker ran which shard.
type shardPartData struct {
	out      [numShards][]transferRec
	outMask  uint32 // bit j set when out[j] is non-empty (numShards <= 32)
	counters Counters
	moving   []movingRec        // delivered with inertia this tick
	done     []taskmodel.Handle // completed by service this tick

	// The surviving claims of this tick's owned nodes in planning order
	// (ascending node, then task id; Move.From names the node), with the
	// canonical edge id of each move in the aligned eids. Both are emptied
	// in commitMovesShard.
	moves []Move
	eids  []int32

	// dirty marks a partial some phase wrote this tick; reduce skips clean
	// ones. Skipping is float-exact — folding an untouched partial would
	// only ever add integer zeros and +0.0 — so the flag is pure overhead
	// control, never a determinism hazard, and may be set conservatively.
	dirty bool
}

// shardPart pads the scratch to a cache-line boundary: the parts live in a
// [numShards] array on the engine and every phase of a parallel tick
// mutates them concurrently (counters, outbox appends, the dirty flag), so
// the fields at shard boundaries must not share lines.
type shardPart struct {
	shardPartData
	_ [(cacheLine - unsafe.Sizeof(shardPartData{})%cacheLine) % cacheLine]byte
}
