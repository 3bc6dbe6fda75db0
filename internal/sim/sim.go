// Package sim is the discrete-time multiprocessor simulator every balancer
// (the PPLB core and all baselines) runs on.
//
// The paper's algorithm is already discretised per network time unit
// ("assuming that at each time unit only a single load is transferred over a
// link", §5.1); the engine makes that precise. One tick proceeds as:
//
//  1. workload arrivals — new tasks are injected at nodes;
//  2. planning — the policy reads the State as it stood at the start of
//     the tick and proposes task migrations;
//  3. application — proposed moves are validated (edge exists, link free,
//     task resident, one transfer per link, one move per task) and become
//     in-flight transfers occupying their link for LatencyByEdge ticks;
//  4. transfer advancement — arriving transfers either deliver (possibly
//     marking the task as still Moving, the PPLB inertia mechanism) or hit a
//     link fault with probability DeliveryFailureProbByEdge and bounce back
//     to the sender;
//  5. service — each node consumes up to ServiceRate load (0 = quiescent
//     model, the setting of the paper's convergence theorems);
//  6. observation — the OnTick hook fires for metrics collection.
//
// Every phase of the tick — not just planning — runs as a deterministic
// sharded pipeline: nodes are partitioned into numShards contiguous ranges,
// transfers are plain records in per-shard slices keyed by destination node,
// and each phase fans out across shards (on the persistent worker pool when
// Config.Workers > 1, inline otherwise). Cross-shard effects flow through
// per-shard outboxes committed in canonical shard order, per-shard partial
// reductions are folded in ascending shard order, and all randomness is
// drawn from streams keyed by position — planning by (node, tick), link
// faults by (task, tick) — never by processing order. The sequential and
// parallel engines therefore execute the exact same canonical algorithm and
// are bit-identical.
//
// Move conflicts are resolved deterministically: within a node, moves apply
// in ascending task id (first claimant per task and per link wins); across a
// contested link, the lower endpoint's claim wins — matching the
// first-claimant-wins outcome of the historical sequential sweep, with one
// deliberate divergence: a node proposing two moves for the same task keeps
// only the lowest-id one even if that claim later loses its link, where the
// old sweep would have revived the fallback. Claims are thus decidable
// locally, which is what lets application run in parallel.
//
// Tasks that arrived with inertia but did not continue their slide in the
// following tick settle automatically (their Moving flag is cleared), which
// mirrors the physical particle coming to rest in a valley.
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"

	"pplb/internal/linkmodel"
	"pplb/internal/rng"
	"pplb/internal/stats"
	"pplb/internal/taskmodel"
	"pplb/internal/topology"
)

// Move is one proposed task migration across a single link.
type Move struct {
	TaskID taskmodel.ID
	From   int
	To     int

	// NewFlag, when not NaN, is written to the task's potential-height flag
	// on departure (the PPLB energy bookkeeping of §5.1). Baselines leave it
	// NaN.
	NewFlag float64

	// Moving marks the task as still sliding on arrival: the policy may
	// continue its path on the next tick under the in-motion rule. If the
	// task does not move again on that tick it settles automatically.
	Moving bool
}

// NaNFlag is the NewFlag value meaning "leave the task's flag untouched".
func NaNFlag() float64 { return math.NaN() }

// Policy is a dynamic load-balancing algorithm.
type Policy interface {
	Name() string

	// PlanNodeInto appends the moves node v proposes this tick to buf and
	// returns it (possibly regrown). buf is a zero-length slice of the
	// shard's reusable move buffer, so a policy that only appends allocates
	// nothing in steady state; it may only append to buf and must not keep
	// it after the call. It is called once per node per tick, possibly
	// concurrently; implementations must treat the state as read-only and
	// draw randomness only from r, which is an independent deterministic
	// stream per (node, tick).
	PlanNodeInto(v int, s *State, r *rng.RNG, buf []Move) []Move
}

// TickPreparer is an optional Policy extension: PrepareTick runs once per
// tick, sequentially, before the planning fan-out. Global-relaxation
// policies (the GM gradient map) use it to refresh shared per-tick state.
type TickPreparer interface {
	PrepareTick(s *State)
}

// Arrival is one task injection produced by an ArrivalFunc.
type Arrival struct {
	Node int
	Load float64
}

// ArrivalFunc generates workload arrivals for a tick. r is a deterministic
// per-tick stream.
type ArrivalFunc func(tick int64, r *rng.RNG) []Arrival

// Counters aggregates the engine's cumulative accounting.
type Counters struct {
	Migrations     int64   // successful task deliveries (excluding bounces)
	MigratedLoad   float64 // Σ load over successful deliveries
	Traffic        float64 // Σ load·cost over successful deliveries (heat E_h analogue)
	BouncedTraffic float64 // Σ load·cost wasted on faulted transfers
	Faults         int64   // transfers hit by a link fault
	Rejected       int64   // proposed moves dropped in validation
	Injected       float64 // total load injected (initial + arrivals)
	Consumed       float64 // total load consumed by service
	TasksCompleted int64

	// Topology-reconfiguration accounting (bumped only in Reconfigure,
	// which is single-threaded — the per-shard partials never touch these,
	// so add does not fold them).
	Reconfigs         int64 // topology epochs applied to this engine
	DrainedTasks      int64 // tasks redistributed off dead nodes
	RecalledTransfers int64 // in-flight transfers recalled from removed links
}

// add folds a per-shard partial into the cumulative counters. Called in
// ascending shard order only, so the float fields accumulate in a canonical
// order regardless of which worker produced which partial.
func (c *Counters) add(d Counters) {
	c.Migrations += d.Migrations
	c.MigratedLoad += d.MigratedLoad
	c.Traffic += d.Traffic
	c.BouncedTraffic += d.BouncedTraffic
	c.Faults += d.Faults
	c.Rejected += d.Rejected
	c.Injected += d.Injected
	c.Consumed += d.Consumed
	c.TasksCompleted += d.TasksCompleted
}

// State is the full mutable simulation state. Policies, metrics hooks and
// tests read it through the same methods; policies must not mutate it.
type State struct {
	g      *topology.Graph
	links  *linkmodel.Params
	tgraph *taskmodel.Graph
	res    *taskmodel.Resources

	// tasks is the arena every task in the system lives in: it owns the
	// per-node queues, and the transfer shards hold handles into it, so the
	// steady-state tick touches flat lanes only and the GC scan set does not
	// grow with live tasks. Its queue headers are the engine's only record
	// of which nodes hold tasks; service and the work estimate read them
	// (or the live count) directly.
	tasks *taskmodel.Store

	linkBusy []bool
	speeds   []float64 // per-node processing speed (nil = uniform 1)
	tick     int64

	// Sharded transfer store and the node partition behind the whole tick
	// pipeline: shard k owns nodes [shardLo[k], shardLo[k+1]) and every
	// transfer in flight towards one of them (see shardOf).
	shards  [numShards]transferShard
	shardLo [numShards + 1]int

	counters Counters
	respTime stats.Online // response time of completed tasks

	// Topology version: epoch counts the reconfigurations applied to this
	// engine and deadNode marks departed node ids (nil until the first node
	// leaves — the static-topology fast path stays branch-predictable).
	// Dead ids keep their slots in every per-node array: node ids are
	// stable forever, the id space only grows.
	epoch    int64
	deadNode []bool

	movingResident []movingRec // tasks delivered with inertia last tick
	nextTaskID     taskmodel.ID

	// active is the dirty-tracking state of the incremental planner, nil
	// when the engine runs full sweeps (global policy or Config.FullSweep).
	active *activeSet
}

// nodeAlive reports whether node v has not left the topology. The nil check
// keeps static-topology engines free of the per-arrival cost.
func (s *State) nodeAlive(v int) bool { return s.deadNode == nil || !s.deadNode[v] }

// Epoch returns the topology epoch: 0 until the first Reconfigure, then the
// epoch of the last applied reconfiguration.
func (s *State) Epoch() int64 { return s.epoch }

// NodeAlive reports whether node v is part of the current topology (has not
// departed through a reconfiguration).
func (s *State) NodeAlive(v int) bool { return s.nodeAlive(v) }

// DeadNodes returns the ascending ids of departed nodes (nil when the
// topology never shrank).
func (s *State) DeadNodes() []int {
	var out []int
	for v, d := range s.deadNode {
		if d {
			out = append(out, v)
		}
	}
	return out
}

// ActiveSetEnabled reports whether the engine plans incrementally via the
// active set (false = every node re-plans every tick).
func (s *State) ActiveSetEnabled() bool { return s.active != nil }

// ActiveNodes returns the number of nodes currently scheduled for
// re-planning on the next tick. With the active set disabled every node
// re-plans every tick, so N is returned. A converged quiescent system drains
// to 0 — the near-zero steady-state tick.
func (s *State) ActiveNodes() int {
	if s.active == nil {
		return s.g.N()
	}
	return s.active.pendingCount()
}

// Loads returns the per-node resident loads.
func (s *State) Loads() []float64 {
	out := make([]float64, s.g.N())
	for i := range out {
		out[i] = s.Queue(i).Total()
	}
	return out
}

// Speed returns the processing speed of node n.
func (s *State) Speed(n int) float64 {
	if s.speeds == nil {
		return 1
	}
	return s.speeds[n]
}

// Height returns the load-surface height of node n: load/speed.
func (s *State) Height(n int) float64 {
	if s.speeds == nil {
		return s.Queue(n).Total()
	}
	return s.Queue(n).Total() / s.speeds[n]
}

// Heights returns the per-node surface heights (equals Loads on homogeneous
// systems).
func (s *State) Heights() []float64 {
	return s.HeightsInto(make([]float64, 0, s.g.N()))
}

// HeightsInto fills dst with the per-node surface heights (a single copy of
// the cached per-queue totals), reusing dst's capacity.
func (s *State) HeightsInto(dst []float64) []float64 {
	dst = dst[:0]
	if cap(dst) < s.g.N() {
		dst = make([]float64, 0, s.g.N())
	}
	for i := range s.g.N() {
		dst = append(dst, s.Height(i))
	}
	return dst
}

// Tick returns the current tick.
func (s *State) Tick() int64 { return s.tick }

// Counters returns a copy of the cumulative counters.
func (s *State) Counters() Counters { return s.counters }

// Graph returns the topology.
func (s *State) Graph() *topology.Graph { return s.g }

// Links returns the link parameters.
func (s *State) Links() *linkmodel.Params { return s.links }

// TaskGraph returns the task-dependency graph T (possibly nil).
func (s *State) TaskGraph() *taskmodel.Graph { return s.tgraph }

// Resources returns the resource-affinity matrix R (possibly nil).
func (s *State) Resources() *taskmodel.Resources { return s.res }

// N returns the number of nodes.
func (s *State) N() int { return s.g.N() }

// Load returns the raw resident load of node n.
func (s *State) Load(n int) float64 { return s.Queue(n).Total() }

// FirstTask returns the oldest task resident at node n, or NoHandle when n
// holds none. TaskStore().Next walks on in canonical insertion order:
// read-only and allocation-free, with field access through TaskStore.
func (s *State) FirstTask(n int) taskmodel.Handle { return s.Queue(n).Front() }

// DepWeightToNode returns the summed dependency weight from task id to the
// tasks co-located at node n — the Σ T term of the µs computation — using
// the dependency graph's flat adjacency and the queue's O(1) membership
// index. Returns 0 when no dependency graph is attached.
func (s *State) DepWeightToNode(id taskmodel.ID, n int) float64 {
	return s.tgraph.WeightToQueue(id, s.tasks, n)
}

// LinkBusy reports whether a transfer holds the {u,w} link.
func (s *State) LinkBusy(u, w int) bool {
	id, ok := s.g.EdgeID(u, w)
	if !ok {
		return true // non-edges are permanently unusable
	}
	return s.linkBusy[id]
}

// LinkBusyEdge reports whether the link with the given canonical edge id is
// held by a transfer (see topology.Graph.IncidentEdgeIDs); no map lookup.
func (s *State) LinkBusyEdge(id int) bool { return s.linkBusy[id] }

// Queue returns the queue header of node n (engine internal and test use;
// the queue operations are TaskStore methods keyed by node).
func (s *State) Queue(n int) *taskmodel.Queue { return s.tasks.Queue(n) }

// TaskStore returns the task arena (metrics, harness and test use).
func (s *State) TaskStore() *taskmodel.Store { return s.tasks }

// VisitTransfers calls f for every transfer currently in flight, in
// canonical order (ascending destination shard, store order within a
// shard). Harness and test use.
func (s *State) VisitTransfers(f func(h taskmodel.Handle, from, to int)) {
	for k := range s.shards {
		for _, t := range s.shards[k].recs {
			f(t.task, int(t.from), int(t.to))
		}
	}
}

// InFlight returns the number of transfers currently on links.
func (s *State) InFlight() int {
	n := 0
	for k := range s.shards {
		n += len(s.shards[k].recs)
	}
	return n
}

// InFlightLoad returns the total load currently on links, summed over the
// transfers in canonical order (see VisitTransfers), so the value is the
// same at every worker count. O(transfers in flight).
func (s *State) InFlightLoad() float64 {
	t := 0.0
	for k := range s.shards {
		for _, r := range s.shards[k].recs {
			t += s.tasks.Load(r.task)
		}
	}
	return t
}

// TotalLoad returns resident + in-flight load.
func (s *State) TotalLoad() float64 {
	t := s.InFlightLoad()
	for i := range s.g.N() {
		t += s.Queue(i).Total()
	}
	return t
}

// ResponseTimes returns summary statistics of completed-task response times.
func (s *State) ResponseTimes() *stats.Online { return &s.respTime }

// Config assembles an engine.
type Config struct {
	Graph  *topology.Graph
	Links  *linkmodel.Params // nil = unit-cost links
	Policy Policy
	Seed   uint64

	// Initial gives the starting task sizes per node: Initial[v] is the
	// list of task loads created at node v at tick 0.
	Initial [][]float64

	TaskGraph *taskmodel.Graph     // optional T matrix
	Resources *taskmodel.Resources // optional R matrix

	Arrivals    ArrivalFunc // optional dynamic workload
	ServiceRate float64     // load consumed per node per tick (0 = quiescent)

	// Speeds gives per-node processing speeds for heterogeneous systems
	// (nil = uniform 1). A node of speed s presents surface height load/s
	// and consumes ServiceRate·s load per tick.
	Speeds []float64

	// Workers > 1 runs the tick pipeline (planning, move application,
	// transfer advancement, service; arrivals are injected inline) on a
	// fused worker loop of Workers participants (the calling goroutine plus
	// Workers-1 pool goroutines). Results are bit-identical to the
	// sequential engine for every worker count, including odd,
	// non-shard-dividing ones.
	Workers int

	// SerialCutover tunes the adaptive serial cutover of the parallel
	// engine: a tick whose estimated work (nodes to re-plan + transfers in
	// flight + arrivals + the service walk) falls below the
	// threshold runs inline on the calling goroutine with zero worker
	// wakeups — post-convergence ticks are nanoseconds of work and must not
	// pay dispatch. 0 selects DefaultSerialCutover; negative disables the
	// cutover (every tick takes the fused parallel path — the harness twins
	// use this to keep the fused machinery exercised on small scenarios).
	// The setting is pure scheduling: both paths execute the same canonical
	// algorithm, so it can never affect results.
	SerialCutover int

	// FullSweep disables the active-set planner: every node re-plans every
	// tick even when the policy declares neighbourhood locality. The harness
	// uses it to build the O(N) reference twin that checks active-set
	// soundness; benchmarks use it to measure what the active set saves.
	// Both engines are bit-identical by construction.
	FullSweep bool

	// OnTick observes the state after each completed tick.
	OnTick func(*State)
}

// DefaultSerialCutover is the tick-work estimate (in work units: one node
// planned, one transfer advanced, one arrival injected, one resident task
// under service and 64 queue headers walked by service each count 1) below
// which a parallel engine runs the tick inline instead of waking the fused
// worker loop. The fused dispatch costs a few microseconds per tick (wakeup
// + per-phase barriers) and one work unit costs on the order of 100ns, so
// the measured crossover sits at a few hundred units; see
// BenchmarkFusedDispatchOverhead and the Workers-sweep benchmarks that
// bracket it.
const DefaultSerialCutover = 256

// Engine drives the simulation.
type Engine struct {
	cfg   Config
	state *State

	planBase   *rng.RNG
	faultBase  *rng.RNG
	arrivalRNG *rng.RNG
	tickFault  rng.RNG // per-tick fault-stream base: faultBase split by tick
	arrScratch rng.RNG // per-tick arrival stream

	seqRNG rng.RNG // scratch stream for the inline fan-out paths

	// loClaim[e] is set while the lower endpoint of edge e holds a surviving
	// claim across it this tick, so the higher endpoint's claim loses. Only
	// the lower endpoint's shard writes it: set in planning, cleared in
	// commitMovesShard; the phase barriers order it against applyShard.
	loClaim []bool

	// Fused worker loop (Workers > 1), created once in New; its workers run
	// the whole phase sequence of a tick, synchronizing on the pool's phase
	// and arrival counters. parTick is the adaptive serial cutover's per-tick
	// decision: false means this tick's estimated work is below cutover and
	// every fan-out runs inline with zero wakeups.
	fused   *fusedPool
	parTick bool
	cutover int
	cleanup runtime.Cleanup

	// Per-shard per-tick scratch (outboxes + partial reductions).
	parts [numShards]shardPart

	movingNext []movingRec // scratch for rebuilding movingResident

	// Cached phase runners. These closures reference the engine (a plain
	// internal cycle, which the tracing collector handles fine — the old
	// SetFinalizer-era rule against self-references died with the migration
	// to runtime.AddCleanup).
	runPlanFilter, runApply, runCommitMoves,
	runAdvance, runCommitBounces, runService func(int, *rng.RNG)
}

// Close releases the engine's worker goroutines. It is safe to call more
// than once; the engine must not be stepped afterwards. Dropped engines are
// also cleaned up automatically, so Close is an optimisation for tight loops
// that build many parallel engines, not an obligation.
func (e *Engine) Close() {
	if e.fused != nil {
		e.cleanup.Stop()
		e.fused.close()
	}
}

// New validates the configuration and builds an engine with the initial
// workload placed.
func New(cfg Config) (*Engine, error) {
	if cfg.Graph == nil {
		return nil, errors.New("sim: Config.Graph is required")
	}
	if cfg.Policy == nil {
		return nil, errors.New("sim: Config.Policy is required")
	}
	if cfg.Links == nil {
		cfg.Links = linkmodel.New(cfg.Graph)
	}
	if cfg.Links.Graph() != cfg.Graph {
		return nil, errors.New("sim: Config.Links built for a different graph")
	}
	if len(cfg.Initial) != 0 && len(cfg.Initial) != cfg.Graph.N() {
		return nil, fmt.Errorf("sim: Initial has %d entries for %d nodes", len(cfg.Initial), cfg.Graph.N())
	}
	if cfg.Workers < 0 {
		return nil, errors.New("sim: negative Workers")
	}
	if cfg.Speeds != nil {
		if len(cfg.Speeds) != cfg.Graph.N() {
			return nil, fmt.Errorf("sim: Speeds has %d entries for %d nodes", len(cfg.Speeds), cfg.Graph.N())
		}
		if err := checkSpeeds(cfg.Speeds); err != nil {
			return nil, err
		}
	}
	for v, sizes := range cfg.Initial {
		for _, load := range sizes {
			if math.IsNaN(load) || math.IsInf(load, 0) {
				return nil, fmt.Errorf("sim: non-finite initial load %v at node %d", load, v)
			}
		}
	}
	if !(cfg.ServiceRate >= 0) || math.IsInf(cfg.ServiceRate, 1) {
		return nil, fmt.Errorf("sim: ServiceRate %v is not finite and non-negative", cfg.ServiceRate)
	}
	// A NaN or infinite T or R weight makes µs non-finite: the task it
	// touches then never moves or never comes to rest.
	if err := cfg.TaskGraph.CheckFinite(); err != nil {
		return nil, fmt.Errorf("sim: Config.TaskGraph: %w", err)
	}
	if err := cfg.Resources.CheckFinite(); err != nil {
		return nil, fmt.Errorf("sim: Config.Resources: %w", err)
	}
	s := &State{
		g:      cfg.Graph,
		links:  cfg.Links,
		tgraph: cfg.TaskGraph,
		res:    cfg.Resources,
		tasks:  taskmodel.NewStore(),
		speeds: cfg.Speeds,
	}
	base := rng.New(cfg.Seed)
	e := &Engine{
		cfg:        cfg,
		state:      s,
		planBase:   base.Split(1),
		faultBase:  base.Split(2),
		arrivalRNG: base.Split(3),
	}
	e.layout()
	e.runPlanFilter = e.planFilterShard
	e.runApply = e.applyShard
	e.runCommitMoves = e.commitMovesShard
	e.runAdvance = e.advanceShard
	e.runCommitBounces = e.commitOutboxes
	e.runService = e.serviceShard
	e.cutover = cfg.SerialCutover
	switch {
	case e.cutover == 0:
		e.cutover = DefaultSerialCutover
	case e.cutover < 0:
		e.cutover = 0 // estimates are never negative: every tick goes parallel
	}
	if cfg.Workers > 1 {
		e.fused = newFusedPool(cfg.Workers)
		// Reclaim the pool goroutines when the engine is dropped without an
		// explicit Close. The cleanup captures only the pool, never the
		// engine, so it runs as soon as the engine is unreachable; workers
		// hold no engine reference between ticks (fanOut nils the phase
		// closure once the last worker arrives).
		e.cleanup = runtime.AddCleanup(e, func(p *fusedPool) { p.close() }, e.fused)
	}
	for v, sizes := range cfg.Initial {
		for _, load := range sizes {
			e.inject(v, load)
		}
	}
	return e, nil
}

// layout sizes every per-node structure to the current graph and resets the
// state derived from the topology. The store's queue headers carry over and
// grow to exactly N (GrowNodes does nothing when N did not grow). The shard
// partition is recomputed; link-busy and link-claim flags start empty; and
// the active set, when the policy plans incrementally, starts with every
// node activated.
// Residency needs no rebuild: the queue headers are the only record of it.
// New, Reconfigure and Restore all lay the engine out here.
func (e *Engine) layout() {
	s := e.state
	n := s.g.N()
	s.tasks.GrowNodes(n)
	for k := 0; k <= numShards; k++ {
		s.shardLo[k] = k * n / numShards
	}
	s.linkBusy = make([]bool, s.g.NumEdges())
	e.loClaim = make([]bool, s.g.NumEdges())
	s.active = nil
	if usesActiveSet(e.cfg.Policy, e.cfg.FullSweep) {
		s.active = newActiveSet(n)
		s.active.activateAll()
	}
}

// checkSpeeds rejects any speed that is not finite and positive: a NaN or
// infinite speed would poison every height read at that node.
func checkSpeeds(speeds []float64) error {
	for v, sp := range speeds {
		if !(sp > 0) || math.IsInf(sp, 1) {
			return fmt.Errorf("sim: speed %v at node %d is not finite and positive", sp, v)
		}
	}
	return nil
}

// inject mints a task at node with the given load, books its injection
// (sequential id, Injected counter) and enqueues it. It is the one filter
// every load passes on its way in: zero, negative and non-finite loads are
// dropped before id assignment, so they never reach a queue's cached total.
func (e *Engine) inject(node int, load float64) {
	if !(load > 0) || math.IsInf(load, 1) {
		return
	}
	s := e.state
	h := s.tasks.Create(s.nextTaskID, load, node, s.tick)
	s.nextTaskID++
	s.counters.Injected += load
	s.tasks.Enqueue(node, h)
	e.markDirtyNeighborhood(node)
}

// State exposes the simulation state (for metrics and tests).
func (e *Engine) State() *State { return e.state }

// Run advances the simulation by n ticks.
func (e *Engine) Run(n int) {
	for i := 0; i < n; i++ {
		e.Step()
	}
}

// RunUntil advances until pred(state) is true or maxTicks elapse, returning
// the number of ticks executed and whether the predicate was met.
func (e *Engine) RunUntil(pred func(*State) bool, maxTicks int) (int, bool) {
	for i := 0; i < maxTicks; i++ {
		if pred(e.state) {
			return i, true
		}
		e.Step()
	}
	return maxTicks, pred(e.state)
}

// tickWorkEstimate approximates this tick's work in fan-out work units:
// nodes to re-plan (the exact popcount of the active set's pending bits, or
// all N on a full-sweep engine), transfers to advance, arrivals to inject,
// and — when service runs — the service walk: one unit per resident task
// plus one per 64 queue headers read, since the walk reads every header of
// the machine even when few queues hold tasks. Between ticks every live task
// is either resident or in flight, so the resident count is the store's live
// count minus the transfers, and service runs exactly when it is positive.
// The pending popcount reads N/64 words; every other input is O(numShards)
// or O(1). Step asks only on a parallel engine, between ticks, so the
// marking path keeps no counter for it. The estimate only ever picks an
// execution path (inline vs fused), both bit-identical, so its proxies can
// cost performance at the cutover boundary, never correctness.
func (e *Engine) tickWorkEstimate(arrivals int) int {
	s := e.state
	inflight := s.InFlight()
	w := arrivals + inflight
	if a := s.active; a != nil {
		w += a.pendingCount()
	} else {
		w += s.g.N()
	}
	if resident := s.tasks.Live() - inflight; e.cfg.ServiceRate > 0 && resident > 0 {
		w += resident + (s.g.N()+63)/64
	}
	return w
}

// Step executes one tick of the sharded pipeline.
func (e *Engine) Step() {
	s := e.state

	// 1. Workload arrivals, injected inline in batch order: task ids, the
	// Injected counter and every queue's insertion order follow the batch.
	//
	// The adaptive serial cutover decides here — once per tick, after the
	// arrival batch is known — whether the tick is worth waking the fused
	// worker loop at all. Below cutover every fan-out of this tick runs
	// inline: a post-convergence tick touches the workers not even once.
	var arr []Arrival
	if e.cfg.Arrivals != nil {
		e.arrivalRNG.SplitInto(uint64(s.tick), &e.arrScratch)
		arr = e.cfg.Arrivals(s.tick, &e.arrScratch)
	}
	e.parTick = e.fused != nil && e.tickWorkEstimate(len(arr)) >= e.cutover
	// Arrivals addressed to departed nodes are dropped before id assignment
	// and the Injected counter, so load conservation and the id sequence are
	// unaffected by a workload generator that has not heard about a
	// reconfiguration yet.
	for _, a := range arr {
		if a.Node >= 0 && a.Node < s.g.N() && s.nodeAlive(a.Node) {
			e.inject(a.Node, a.Load)
		}
	}

	// 2+3a. Planning and filtering, fused per shard: each node's proposals
	// (drawn from its (node, tick) stream) are immediately reduced to the
	// locally valid claims, and only surviving claims enter the shard's flat
	// move buffer — later phases never rescan the full node range.
	//
	// With the active set enabled, only dirty nodes are planned: the swap
	// freezes everything marked since planning last began as this tick's
	// plan set, and each shard walks only its set bits. A skipped node's
	// inputs are unchanged, so by the locality contract its plan would come
	// out the byte-for-byte empty plan it produced last time — skipping is
	// exact, not approximate, which is what keeps this engine bit-identical
	// to the full sweep (and Workers=1 to Workers=8: marks are made
	// atomically from any worker, but consumed in ascending node order
	// within ascending shards, the canonical activation order).
	if p, ok := e.cfg.Policy.(TickPreparer); ok {
		p.PrepareTick(s)
	}
	if a := s.active; a != nil {
		a.beginTick()
	}
	e.fanOut(numShards, e.runPlanFilter)

	// 3b. Application: resolve cross-node link contention (lowest endpoint
	// wins), turn winners into outbox records, and commit them to the
	// destination shards' transfer stores in canonical shard order. Skipped
	// entirely when no node holds a claim — the skip tests only
	// Workers-independent state, so it cannot perturb determinism.
	if e.anyClaims() {
		e.fanOut(numShards, e.runApply)
		e.fanOut(numShards, e.runCommitMoves)
	}

	// Tasks delivered with inertia on earlier ticks have now had their
	// continuation chance; capture them before advancement delivers this
	// tick's arrivals.
	prevMoving := s.movingResident

	// 4. Transfer advancement (includes transfers created this tick; a
	// latency-1 transfer planned now is delivered at the end of this tick
	// and visible to planning from the next tick). Fault draws come from a
	// stream keyed by (task, tick), so they are independent of processing
	// order; faulted transfers bounce towards their sender through the
	// outboxes, committed shard-canonically like fresh transfers.
	if s.InFlight() > 0 {
		e.faultBase.SplitInto(uint64(s.tick), &e.tickFault)
		e.fanOut(numShards, e.runAdvance)
		if e.outboxesPending() {
			e.fanOut(numShards, e.runCommitBounces)
		}
	}

	// Settle inertial tasks that did not continue their slide: the particle
	// has come to rest in this valley. Settling flips a planning input (the
	// Moving flag feeds the inertia pass) but one invisible to neighbours,
	// so only the task's own node is re-activated. The id revalidation skips
	// records whose task was delivered and fully serviced in one tick — its
	// slot was released in that tick's reduce and may already hold a new
	// task. (Skipping is outcome-identical to the pre-arena engine: a dead
	// task's Moving flag is not a planning input, and the node either
	// produced an empty plan — which the locality contract pins to stay
	// empty — or was re-marked anyway.)
	st := s.tasks
	for _, mr := range prevMoving {
		if st.ID(mr.h) != mr.id {
			continue
		}
		if st.Moving(mr.h) && st.MovedTick(mr.h) != s.tick {
			st.SetMoving(mr.h, false)
			e.markDirty(int(mr.node))
		}
	}

	// 5. Service (scaled by node speed on heterogeneous systems). Each shard
	// walks its node range ascending and skips empty queues — exact in both
	// engines, since an empty queue consumes exactly nothing. A system with
	// no resident task (every live task in flight) skips the phase.
	if e.cfg.ServiceRate > 0 && s.tasks.Live() > s.InFlight() {
		e.fanOut(numShards, e.runService)
	}

	// Fold the per-shard partials into the global state in ascending shard
	// order (canonical float summation).
	e.reduce()

	if conservationLeakEvery > 0 {
		e.maybeLeakForTest()
	}

	s.tick++

	// 6. Observation.
	if e.cfg.OnTick != nil {
		e.cfg.OnTick(s)
	}
}

// sortMovesByTask orders moves ascending by task id, stable.
func sortMovesByTask(moves []Move) {
	slices.SortStableFunc(moves, func(a, b Move) int {
		return cmp.Compare(a.TaskID, b.TaskID)
	})
}

// planFilterShard plans each owned node from its deterministic (node, tick)
// stream and immediately reduces the proposals to the node's locally valid
// claims, in canonical (ascending task id) order: structural checks (own
// task, real edge, link free since last tick, task resident) plus
// first-claimant-wins per task and per link within the node. Cross-node
// link contention is resolved later in applyShard; committing to one claim
// per task here (rather than reviving a duplicate-task fallback after a
// lost link contest, as the old sequential sweep could) is what keeps every
// claim locally decidable. Only survivors land in the shard's move buffer.
func (e *Engine) planFilterShard(k int, r *rng.RNG) {
	s := e.state
	p := &e.parts[k]
	tickBase := uint64(s.tick) * uint64(s.g.N())
	lo, hi := s.shardLo[k], s.shardLo[k+1]
	if a := s.active; a != nil {
		// Walk only the set bits of the frozen plan set within this shard's
		// node range, ascending (mutators mark into pending meanwhile).
		for w := lo >> 6; w <= (hi-1)>>6; w++ {
			word := a.plan.rangeWord(w, lo, hi)
			for word != 0 {
				v := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				e.planNode(v, p, r, tickBase)
			}
		}
	} else {
		for v := lo; v < hi; v++ {
			e.planNode(v, p, r, tickBase)
		}
	}
}

// planNode plans one node from its (node, tick) stream and reduces its
// proposals to the node's locally valid claims (see planFilterShard).
func (e *Engine) planNode(v int, p *shardPart, r *rng.RNG, tickBase uint64) {
	s := e.state
	e.planBase.SplitInto(tickBase+uint64(v), r)
	// The policy appends into the free tail of the shard's move buffer. The
	// raw plan is then copied onto that tail (a no-op copy unless the policy
	// regrew the buffer, whose growth the shard thereby keeps) and filtered
	// there in place.
	n := len(p.moves)
	moves := e.cfg.Policy.PlanNodeInto(v, s, r, p.moves[n:])
	if len(moves) == 0 {
		return
	}
	p.moves = append(p.moves[:n], moves...)
	moves = p.moves[n:]
	if s.active != nil {
		// Deactivation is decided only on a raw-empty plan: any node that
		// proposed something re-plans next tick even if every proposal is
		// filtered out or loses its link, because those outcomes depend on
		// state (busy flags, cross-node contention) outside the locality
		// contract. This also keeps the Rejected counter identical to the
		// full sweep's.
		s.active.mark(v)
	}
	sortMovesByTask(moves)
	kept := moves[:0]
	var lastTask taskmodel.ID
	for _, m := range moves {
		if m.From != v || m.From == m.To {
			p.counters.Rejected++
			continue
		}
		id, ok := s.g.EdgeID(m.From, m.To)
		if !ok || s.linkBusy[id] {
			p.counters.Rejected++
			continue
		}
		if len(kept) > 0 && m.TaskID == lastTask {
			p.counters.Rejected++ // one move per task (ids are sorted)
			continue
		}
		if !s.tasks.Has(v, m.TaskID) {
			p.counters.Rejected++
			continue
		}
		if slices.Contains(p.eids[n:], int32(id)) {
			p.counters.Rejected++ // one transfer per link
			continue
		}
		if m.To > v {
			e.loClaim[id] = true
		}
		kept = append(kept, m)
		p.eids = append(p.eids, int32(id))
		lastTask = m.TaskID
	}
	p.moves = p.moves[:n+len(kept)]
}

// anyClaims reports whether any shard holds surviving claims this tick.
func (e *Engine) anyClaims() bool {
	for k := range e.parts {
		if len(e.parts[k].moves) > 0 {
			return true
		}
	}
	return false
}

// outboxesPending reports whether any shard produced outbox records in the
// phase that just completed.
func (e *Engine) outboxesPending() bool {
	for k := range e.parts {
		for j := range e.parts[k].out {
			if len(e.parts[k].out[j]) > 0 {
				return true
			}
		}
	}
	return false
}

// applyShard applies the shard's surviving claims in planning order
// (ascending node, then task id): a link both endpoints claim goes to the
// lower endpoint (deterministic, the first-claimant-wins outcome of a
// sequential ascending-node sweep), winners leave their queue and become
// transfer records in the outbox of the destination's shard.
func (e *Engine) applyShard(k int, _ *rng.RNG) {
	s := e.state
	st := s.tasks
	p := &e.parts[k]
	for i := range p.moves {
		m := &p.moves[i]
		v := m.From // the filter kept only the planning node's own moves
		eid := p.eids[i]
		if m.To < v && e.loClaim[eid] {
			p.counters.Rejected++
			continue
		}
		h := st.Remove(v, m.TaskID)
		if h < 0 {
			p.counters.Rejected++ // unreachable: residency checked in filter
			continue
		}
		// v's load dropped and link {v, m.To} went busy; both endpoints
		// and every height-watching neighbour must re-plan. m.To is a
		// neighbour of v, so one neighbourhood mark covers the link too.
		e.markDirtyNeighborhood(v)
		if !math.IsNaN(m.NewFlag) {
			st.SetFlag(h, m.NewFlag)
		}
		s.linkBusy[eid] = true // sole winner of this link writes it
		st.SetMovedTick(h, s.tick)
		dst := shardOf(m.To, s.g.N())
		p.out[dst] = append(p.out[dst], transferRec{
			task:      h,
			from:      int32(v),
			to:        int32(m.To),
			edge:      eid,
			remaining: int32(s.links.LatencyByEdge(int(eid))),
			moving:    m.Moving,
		})
	}
}

// commitOutboxes drains every shard's outbox slot for shard j, in ascending
// source-shard order, into j's transfer store. It is also the commit phase
// for the transfers that faulted during advancement and are returning
// towards senders owned by shard j.
func (e *Engine) commitOutboxes(j int, _ *rng.RNG) {
	sh := &e.state.shards[j]
	for k := range e.parts {
		if out := e.parts[k].out[j]; len(out) > 0 {
			sh.recs = append(sh.recs, out...)
			e.parts[k].out[j] = out[:0]
		}
	}
}

// commitMovesShard commits the freshly applied transfers destined to shard
// j's nodes, clears the link claims j's nodes made as lower endpoints and
// empties j's plan buffers for the next tick.
func (e *Engine) commitMovesShard(j int, r *rng.RNG) {
	e.commitOutboxes(j, r)
	p := &e.parts[j]
	for i := range p.moves {
		if p.moves[i].To > p.moves[i].From {
			e.loClaim[p.eids[i]] = false
		}
	}
	p.moves = p.moves[:0]
	p.eids = p.eids[:0]
}

// advanceShard decrements the remaining latency of shard k's transfers and
// resolves arrivals: delivery into the destination queue (owned by this
// shard) or a fault drawn from the (task, tick)-keyed stream, which turns
// the transfer into a bounce record for the sender's shard. Compaction is
// in place; the store allocates nothing in steady state.
func (e *Engine) advanceShard(k int, r *rng.RNG) {
	s := e.state
	st := s.tasks
	sh := &s.shards[k]
	p := &e.parts[k]
	kept := sh.recs[:0]
	for _, t := range sh.recs {
		t.remaining--
		if t.remaining > 0 {
			kept = append(kept, t)
			continue
		}
		eid := int(t.edge)
		h := t.task
		load := st.Load(h)
		cost := s.links.CostByEdge(eid)
		if !t.bounce {
			if fp := s.links.DeliveryFailureProbByEdge(eid); fp > 0 {
				e.tickFault.SplitInto(uint64(st.ID(h)), r)
				if r.Bernoulli(fp) {
					// Link fault: the task bounces back to the sender,
					// occupying the link again for the return trip. The
					// wasted effort is booked as bounced traffic. Bounce legs
					// are not themselves faultable (the retreat is local
					// recovery, not a fresh transmission).
					p.counters.Faults++
					p.counters.BouncedTraffic += load * cost
					dst := shardOf(int(t.from), s.g.N())
					p.out[dst] = append(p.out[dst], transferRec{
						task:      h,
						from:      t.to,
						to:        t.from,
						edge:      t.edge,
						remaining: int32(s.links.LatencyByEdge(eid)),
						bounce:    true,
					})
					continue
				}
			}
		}
		// Delivery (or bounce completion).
		s.linkBusy[eid] = false
		to := int(t.to)
		st.Enqueue(to, h)
		// to's load rose and the link freed; the sender is a neighbour of
		// to, so the neighbourhood mark re-activates it as well. A bounce
		// *start* needs no mark: the link stays busy and no height changes.
		e.markDirtyNeighborhood(to)
		if t.bounce {
			st.SetMoving(h, false)
		} else {
			st.SetPrev(h, int(t.from))
			st.AddHop(h)
			p.counters.Migrations++
			p.counters.MigratedLoad += load
			p.counters.Traffic += load * cost
			st.SetMoving(h, t.moving)
			if t.moving {
				p.moving = append(p.moving, movingRec{h: h, id: st.ID(h), node: t.to})
			}
		}
	}
	sh.recs = kept
}

// serviceShard consumes service capacity on shard k's non-empty queues in
// ascending node order, collecting completed tasks and the consumed load as
// shard partials.
func (e *Engine) serviceShard(k int, _ *rng.RNG) {
	s := e.state
	p := &e.parts[k]
	for v := s.shardLo[k]; v < s.shardLo[k+1]; v++ {
		if s.Queue(v).Len() == 0 {
			continue
		}
		done, consumed := s.tasks.ConsumeServiceInto(v, e.cfg.ServiceRate*s.Speed(v), p.done)
		p.done = done
		p.counters.Consumed += consumed
		if consumed > 0 {
			e.markDirtyNeighborhood(v)
		}
	}
}

// reduce folds every shard partial into the global state in ascending shard
// order — the single canonical summation order shared by the sequential and
// parallel engines. All numShards partials fold every tick: an untouched one
// adds integer 0 and +0.0 to counters that start at +0.0 and only grow, so
// folding it is exact.
func (e *Engine) reduce() {
	s := e.state
	st := s.tasks
	next := e.movingNext[:0]
	for k := 0; k < numShards; k++ {
		p := &e.parts[k]
		s.counters.add(p.counters)
		// Completed tasks leave the arena here — inside the ascending-shard
		// fold, so the free-list order (and with it every future handle
		// assignment) is identical no matter which worker ran which shard.
		// Service completed them this tick, so this tick is their
		// completion tick.
		for _, h := range p.done {
			s.counters.TasksCompleted++
			s.respTime.Add(float64(s.tick - st.Birth(h)))
			st.Release(h)
		}
		next = append(next, p.moving...)
		p.counters = Counters{}
		p.done = p.done[:0]
		p.moving = p.moving[:0]
	}
	old := s.movingResident
	e.movingNext = old[:0]
	s.movingResident = next
}
