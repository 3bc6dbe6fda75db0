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

// transferRec is one transfer in flight. The same record serves the
// per-shard outboxes (a move applied by a source-node shard becoming a
// transfer owned by the destination-node shard, or a faulted transfer
// bouncing back towards its sender, committed in canonical shard order) and
// the transfer shards themselves. It holds a store handle and no pointer, so
// the shards are invisible to the garbage collector; its 22 bytes of fields
// pad to 24.
type transferRec struct {
	task      taskmodel.Handle
	from, to  int32
	edge      int32
	remaining int32
	bounce    bool
	moving    bool
}

// transferShard holds the transfers in flight towards the nodes one shard
// owns, in commit order. The header is padded to a cache-line boundary: the
// shards live in a [numShards] array and advancement appends to and compacts
// every shard concurrently, so an unpadded array would false-share headers at
// every shard boundary.
type transferShard struct {
	recs []transferRec
	_    [(cacheLine - unsafe.Sizeof([]transferRec{})%cacheLine) % cacheLine]byte
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
// inertia arrivals, service completions) that the engine folds into the
// global state in ascending shard order, so float sums are bit-stable no
// matter which worker ran which shard.
type shardPartData struct {
	out      [numShards][]transferRec
	counters Counters
	moving   []movingRec        // delivered with inertia this tick
	done     []taskmodel.Handle // completed by service this tick

	// The surviving claims of this tick's owned nodes in planning order
	// (ascending node, then task id; Move.From names the node), with the
	// canonical edge id of each move in the aligned eids. Both are emptied
	// in commitMovesShard.
	moves []Move
	eids  []int32
}

// shardPart pads the scratch to a cache-line boundary: the parts live in a
// [numShards] array on the engine and every phase of a parallel tick
// mutates them concurrently (counters, outbox appends), so the fields at
// shard boundaries must not share lines.
type shardPart struct {
	shardPartData
	_ [(cacheLine - unsafe.Sizeof(shardPartData{})%cacheLine) % cacheLine]byte
}
