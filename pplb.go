// Package pplb is a Go implementation of the Particle & Plane framework for
// dynamic load balancing in multiprocessors (Imani & Sarbazi-Azad, IPPS/IPDPS
// 2006), together with the simulation substrate, the classical baselines the
// paper cites, and the experiment harness that regenerates the paper's
// figures, tables and theorems as executable artifacts.
//
// The physical picture: the multiprocessor is a bumpy plane whose height at
// each node is that node's total load; every task is a particle that slides
// downhill under gravity, held back by static friction (task/resource
// affinity, µs) and slowed by kinetic friction (communication cost, µk).
// Load balancing emerges from the laws of motion: steep gradients start
// slides, inertia carries tasks over moderately loaded nodes into distant
// valleys, friction keeps them local and eventually traps the system in a
// near-balanced equilibrium.
//
// Quick start:
//
//	g := pplb.Torus(8, 8)
//	sys, err := pplb.NewSystem(g, pplb.NewBalancer(pplb.DefaultBalancerConfig()),
//	    pplb.WithInitial(pplb.HotspotLoad(g.N(), 0, 256, 0.5)),
//	    pplb.WithSeed(42),
//	)
//	if err != nil { ... }
//	sys.Run(1000)
//	fmt.Printf("final CV: %.3f\n", sys.CV())
//
// The deeper layers remain accessible for advanced use: the simulation
// engine (sim.Config via NewSystem options), the physics engine backing the
// paper's Section 3 (NewParticle, SimulateParticle), and the experiment
// registry (RunExperiment).
package pplb

import (
	"pplb/internal/arbiter"
	"pplb/internal/baselines"
	"pplb/internal/core"
	"pplb/internal/experiments"
	"pplb/internal/linkmodel"
	"pplb/internal/metrics"
	"pplb/internal/sim"
	"pplb/internal/staticmap"
	"pplb/internal/stats"
	"pplb/internal/taskmodel"
	"pplb/internal/topology"
	"pplb/internal/workload"
)

// Re-exported core types. The library's stable API is this facade; the
// internal packages may reorganise between versions.
type (
	// Graph is an interconnection topology (mesh, torus, hypercube, ...).
	Graph = topology.Graph
	// Edge is an undirected link between two nodes.
	Edge = topology.Edge
	// LinkParams carries the BW/D/F matrices and composite link costs.
	LinkParams = linkmodel.Params
	// LinkOption configures LinkParams construction.
	LinkOption = linkmodel.Option
	// TaskID identifies a task.
	TaskID = taskmodel.ID
	// TaskGraph is the task-dependency matrix T.
	TaskGraph = taskmodel.Graph
	// Resources is the task-to-node resource-affinity matrix R.
	Resources = taskmodel.Resources
	// Policy is a load-balancing algorithm pluggable into the engine.
	Policy = sim.Policy
	// Move is one proposed task migration.
	Move = sim.Move
	// State is the full simulation state; policies read it and must not
	// mutate it.
	State = sim.State
	// View is another name for State, kept for code that still names it.
	View = sim.State
	// Arrival is one dynamic task injection.
	Arrival = sim.Arrival
	// ArrivalFunc generates dynamic workload.
	ArrivalFunc = sim.ArrivalFunc
	// Counters aggregates engine accounting (migrations, traffic, faults...).
	Counters = sim.Counters
	// DynamicGraph stages topology reconfigurations (node join/leave, link
	// add/remove/fail/repair) and commits them into immutable Graph epochs.
	DynamicGraph = topology.Dynamic
	// Point2 is a node position under the M2 embedding (used by
	// DynamicGraph.Join to place joining nodes).
	Point2 = topology.Point2
	// Reconfig describes one committed topology change for System.Reconfigure.
	Reconfig = sim.Reconfig
	// BalancerConfig holds the PPLB physical constants.
	BalancerConfig = core.Config
	// Balancer is the particle-and-plane load balancer.
	Balancer = core.Balancer
	// Collector records per-tick balance/cost series.
	Collector = metrics.Collector
	// Chooser arbitrates among feasible slopes (§5.2).
	Chooser = arbiter.Chooser
	// StochasticArbiter is the annealing arbiter of §5.2.
	StochasticArbiter = arbiter.Stochastic
	// GreedyArbiter always picks the steepest feasible slope.
	GreedyArbiter = arbiter.Greedy
	// BoltzmannArbiter is the softmax annealing alternative (extension).
	BoltzmannArbiter = arbiter.Boltzmann
	// Report is a rendered experiment result.
	Report = experiments.Report
	// MappingProblem is a static task-to-node mapping instance (§1's
	// offline problem class).
	MappingProblem = staticmap.Problem
	// Assignment maps task ids to nodes.
	Assignment = staticmap.Assignment
	// AnnealParams configures the simulated-annealing mapper.
	AnnealParams = staticmap.AnnealParams
)

// Topology constructors.

// Mesh returns a rows×cols 2-D mesh.
func Mesh(rows, cols int) *Graph { return topology.NewMesh(rows, cols) }

// Torus returns a rows×cols 2-D torus.
func Torus(rows, cols int) *Graph { return topology.NewTorus(rows, cols) }

// Hypercube returns the dim-dimensional hypercube (2^dim nodes).
func Hypercube(dim int) *Graph { return topology.NewHypercube(dim) }

// Ring returns a cycle of n nodes.
func Ring(n int) *Graph { return topology.NewRing(n) }

// Star returns a hub-and-spokes star of n nodes.
func Star(n int) *Graph { return topology.NewStar(n) }

// Complete returns the complete graph on n nodes.
func Complete(n int) *Graph { return topology.NewComplete(n) }

// Tree returns a complete arity-ary tree of the given depth.
func Tree(arity, depth int) *Graph { return topology.NewTree(arity, depth) }

// RandomRegular returns a connected random d-regular graph on n nodes.
func RandomRegular(n, d int, seed uint64) *Graph { return topology.NewRandomRegular(n, d, seed) }

// CCC returns the cube-connected-cycles network CCC(d): d·2^d nodes of
// degree 3, the bounded-degree hypercube substitute.
func CCC(d int) *Graph { return topology.NewCCC(d) }

// NewDynamic wraps a committed graph in a DynamicGraph for staging
// reconfigurations. Stage Join/Leave/AddLink/RemoveLink/FailLink/RepairLink
// calls, then Commit() to obtain the successor graph and its epoch.
func NewDynamic(g *Graph) *DynamicGraph { return topology.NewDynamic(g) }

// Link parameter constructors (see linkmodel for the §4.2 cost model).

// Links builds per-link parameters for g; without options every link has
// bandwidth 1, length 1 and fault probability 0.
func Links(g *Graph, opts ...LinkOption) *LinkParams { return linkmodel.New(g, opts...) }

// Link options re-exported.
var (
	WithUniformBandwidth = linkmodel.WithUniformBandwidth
	WithUniformLength    = linkmodel.WithUniformLength
	WithUniformFault     = linkmodel.WithUniformFault
	WithBandwidthFn      = linkmodel.WithBandwidthFn
	WithLengthFn         = linkmodel.WithLengthFn
	WithFaultFn          = linkmodel.WithFaultFn
	WithRandomFaults     = linkmodel.WithRandomFaults
	WithCostScale        = linkmodel.WithCostScale
	WithFaultExponent    = linkmodel.WithFaultExponent
)

// Balancer constructors.

// DefaultBalancerConfig returns the PPLB constants used by the paper-style
// experiments.
func DefaultBalancerConfig() BalancerConfig { return core.DefaultConfig() }

// NewBalancer builds the particle-and-plane balancer.
func NewBalancer(cfg BalancerConfig) *Balancer { return core.New(cfg) }

// Baseline policies (§2 related work).

// DiffusionPolicy returns the diffusion baseline; alpha 0 selects the
// Boillat rule 1/(max degree+1).
func DiffusionPolicy(alpha float64) Policy { return baselines.Diffusion{Alpha: alpha} }

// DimensionExchangePolicy returns the dimension-exchange baseline for g.
func DimensionExchangePolicy(g *Graph) Policy { return baselines.NewDimensionExchange(g) }

// GradientModelPolicy returns the GM gradient-model baseline.
func GradientModelPolicy() Policy { return &baselines.GradientModel{} }

// CWNPolicy returns the contracting-within-neighbourhood baseline.
func CWNPolicy(maxHops int) Policy { return baselines.CWN{MaxHops: maxHops} }

// RandomSenderPolicy returns the sender-initiated random baseline.
func RandomSenderPolicy() Policy { return &baselines.RandomSender{} }

// NoPolicy returns the do-nothing control.
func NoPolicy() Policy { return baselines.None{} }

// Workload generators.
var (
	// HotspotLoad places all tasks on one node.
	HotspotLoad = workload.Hotspot
	// MultiHotspotLoad spreads tasks over several peaks.
	MultiHotspotLoad = workload.MultiHotspot
	// UniformRandomLoad scatters tasks uniformly.
	UniformRandomLoad = workload.UniformRandom
	// StaircaseLoad ramps load across node ids.
	StaircaseLoad = workload.Staircase
	// BimodalLoad mixes small and large tasks.
	BimodalLoad = workload.Bimodal
	// EqualLoad gives every node identical load.
	EqualLoad = workload.Equal
	// PoissonArrivals injects Poisson arrivals at every node.
	PoissonArrivals = workload.PoissonArrivals
	// HotspotArrivals injects arrivals at a single node.
	HotspotArrivals = workload.HotspotArrivals
	// MovingHotspotArrivals injects arrivals at a hotspot that random-walks
	// the topology every few ticks.
	MovingHotspotArrivals = workload.MovingHotspotArrivals
	// BurstArrivals injects periodic bursts at rotating nodes.
	BurstArrivals = workload.BurstArrivals
	// CombineArrivals merges arrival processes.
	CombineArrivals = workload.Combine
	// ScheduleArrivals replays a fixed timed-injection schedule.
	ScheduleArrivals = workload.ScheduleArrivals
	// ChainDeps links initial tasks into dependency chains.
	ChainDeps = workload.ChainDeps
	// ClusteredDeps creates all-pairs dependencies within clusters.
	ClusteredDeps = workload.ClusteredDeps
	// RandomDeps adds random dependencies.
	RandomDeps = workload.RandomDeps
	// PinnedResources pins initial tasks to their origin nodes.
	PinnedResources = workload.PinnedResources
)

// LPTMapping returns the longest-processing-time greedy static mapping.
func LPTMapping(p *MappingProblem) Assignment { return staticmap.LPT(p) }

// AnnealMapping improves a seed assignment by simulated annealing (the
// §1-cited offline approach), returning the best assignment and its cost.
func AnnealMapping(p *MappingProblem, seed Assignment, params AnnealParams) (Assignment, float64) {
	return staticmap.Anneal(p, seed, params)
}

// StaticMap runs the full static-mapping pipeline (LPT seed + annealing).
func StaticMap(p *MappingProblem, params AnnealParams) (Assignment, float64) {
	return staticmap.Map(p, params)
}

// RemapDeps rebuilds a dependency graph in engine-id space after
// MappingProblem.InitialDistribution.
func RemapDeps(comm *TaskGraph, engineToTask []int) *TaskGraph {
	return staticmap.RemapComm(comm, engineToTask)
}

// NewTaskGraph returns an empty dependency matrix T.
func NewTaskGraph() *TaskGraph { return taskmodel.NewGraph() }

// NewResources returns an empty resource-affinity matrix R.
func NewResources() *Resources { return taskmodel.NewResources() }

// System bundles an engine with a metrics collector behind a small API.
type System struct {
	engine    *sim.Engine
	collector *metrics.Collector
}

type sysConfig struct {
	sim   sim.Config
	every int
}

// Option configures NewSystem.
type Option func(*sysConfig)

// WithSeed sets the run seed (default 0).
func WithSeed(seed uint64) Option { return func(c *sysConfig) { c.sim.Seed = seed } }

// WithLinks sets non-default link parameters.
func WithLinks(l *LinkParams) Option { return func(c *sysConfig) { c.sim.Links = l } }

// WithInitial sets the initial per-node task sizes.
func WithInitial(init [][]float64) Option { return func(c *sysConfig) { c.sim.Initial = init } }

// WithTaskGraph attaches the dependency matrix T.
func WithTaskGraph(tg *TaskGraph) Option { return func(c *sysConfig) { c.sim.TaskGraph = tg } }

// WithResources attaches the resource matrix R.
func WithResources(r *Resources) Option { return func(c *sysConfig) { c.sim.Resources = r } }

// WithArrivals attaches a dynamic arrival process.
func WithArrivals(fn ArrivalFunc) Option { return func(c *sysConfig) { c.sim.Arrivals = fn } }

// WithServiceRate sets the per-node service rate (load consumed per tick).
func WithServiceRate(rate float64) Option { return func(c *sysConfig) { c.sim.ServiceRate = rate } }

// WithSpeeds sets per-node processing speeds for heterogeneous systems: a
// node of speed s presents surface height load/s and serves ServiceRate·s
// per tick, so the balancer equalises drain times rather than raw loads.
func WithSpeeds(speeds []float64) Option { return func(c *sysConfig) { c.sim.Speeds = speeds } }

// WithWorkers plans node decisions on a goroutine pool (results identical
// to sequential).
func WithWorkers(n int) Option { return func(c *sysConfig) { c.sim.Workers = n } }

// WithFullSweep disables the active-set pipeline and re-plans every node
// every tick even for policies that declare neighbourhood locality. Results
// are bit-identical either way; this exists for benchmarking the sweep cost
// and for the harness's active-set soundness twin.
func WithFullSweep() Option { return func(c *sysConfig) { c.sim.FullSweep = true } }

// WithMetricsEvery sets the metrics sampling period in ticks (default 1).
func WithMetricsEvery(every int) Option { return func(c *sysConfig) { c.every = every } }

// WithObserver adds an extra per-tick observer in addition to the metrics
// collector.
func WithObserver(fn func(*State)) Option {
	return func(c *sysConfig) {
		prev := c.sim.OnTick
		c.sim.OnTick = func(s *State) {
			if prev != nil {
				prev(s)
			}
			fn(s)
		}
	}
}

// NewSystem assembles a simulation of policy running on g.
func NewSystem(g *Graph, policy Policy, opts ...Option) (*System, error) {
	return assemble(g, policy, opts, sim.New)
}

// assemble applies opts, puts the metrics collector in front of any
// observer, and builds the engine with build.
func assemble(g *Graph, policy Policy, opts []Option, build func(sim.Config) (*sim.Engine, error)) (*System, error) {
	c := &sysConfig{every: 1}
	c.sim.Graph = g
	c.sim.Policy = policy
	for _, o := range opts {
		o(c)
	}
	col := metrics.NewCollector(c.every)
	prev := c.sim.OnTick
	c.sim.OnTick = func(s *State) {
		col.OnTick(s)
		if prev != nil {
			prev(s)
		}
	}
	e, err := build(c.sim)
	if err != nil {
		return nil, err
	}
	return &System{engine: e, collector: col}, nil
}

// Snapshot serialises the complete engine state — queues, task arena,
// in-flight transfers, link and RNG state, counters — into a versioned
// binary blob. Restoring it with RestoreSystem and stepping produces
// byte-identical state and identical metrics to the uninterrupted run at
// every subsequent tick, regardless of worker count on either side. The
// metrics collector's accumulated series are not part of the snapshot; a
// restored system starts a fresh series from the resume tick.
func (s *System) Snapshot() ([]byte, error) { return s.engine.Snapshot() }

// RestoreSystem rebuilds a System from a Snapshot blob. The graph, policy
// and options must describe the same configuration the snapshot was taken
// under (topology, link parameters, seed, full-sweep mode — mismatches are
// rejected loudly); WithInitial is ignored because the snapshot carries the
// full task population. The worker count may differ from the snapshotting
// system's: resume is bit-identical either way.
func RestoreSystem(g *Graph, policy Policy, snapshot []byte, opts ...Option) (*System, error) {
	return assemble(g, policy, opts, func(cfg sim.Config) (*sim.Engine, error) {
		return sim.Restore(snapshot, cfg)
	})
}

// Reconfigure applies a committed topology change between ticks: tasks on
// departed nodes are drained to their old neighbours, transfers on removed
// links are recalled, and every engine structure is regrown to the new id
// space — deterministically, so reconfigured runs stay bit-identical across
// worker counts and snapshot/restore (pass the current graph to
// RestoreSystem when resuming past an epoch boundary). See sim.Reconfig for
// the field contract.
func (s *System) Reconfigure(rc Reconfig) error { return s.engine.Reconfigure(rc) }

// ReconfigureFrom commits d's staged changes and applies them to the
// system in one call. Policies that capture the graph at construction
// (e.g. DimensionExchangePolicy) must be rebuilt against d.Graph() and
// passed as rc.Policy via Reconfigure instead. The link options rebuild
// the per-link parameters for the successor graph; omit them for
// unit-cost links.
func (s *System) ReconfigureFrom(d *DynamicGraph, opts ...LinkOption) error {
	g, epoch := d.Commit()
	return s.engine.Reconfigure(sim.Reconfig{
		Graph: g,
		Links: linkmodel.New(g, opts...),
		Epoch: epoch,
		Dead:  d.DeadNodes(),
	})
}

// Epoch returns the system's current topology epoch (0 until the first
// reconfiguration).
func (s *System) Epoch() int64 { return s.engine.State().Epoch() }

// Run advances the system by n ticks.
func (s *System) Run(n int) { s.engine.Run(n) }

// Close releases the engine's planning goroutines (only relevant with
// WithWorkers > 1). Optional: engines are finalised automatically; Close
// merely makes the release deterministic for tight construction loops.
func (s *System) Close() { s.engine.Close() }

// Step advances the system by one tick.
func (s *System) Step() { s.engine.Step() }

// RunUntilBalanced runs until the surface-height CV drops below eps (and no
// transfers are in flight) or maxTicks elapse, returning the ticks executed
// and whether balance was reached.
func (s *System) RunUntilBalanced(eps float64, maxTicks int) (int, bool) {
	return s.engine.RunUntil(func(st *State) bool {
		return stats.CV(st.Heights()) < eps && st.InFlight() == 0
	}, maxTicks)
}

// State exposes the underlying simulation state.
func (s *System) State() *State { return s.engine.State() }

// Loads returns the current per-node raw loads.
func (s *System) Loads() []float64 { return s.engine.State().Loads() }

// Heights returns the current load-surface heights (load/speed; equal to
// Loads on homogeneous systems).
func (s *System) Heights() []float64 { return s.engine.State().Heights() }

// CV returns the coefficient of variation of the surface heights — 0 means
// every node drains in the same time.
func (s *System) CV() float64 { return stats.CV(s.Heights()) }

// Counters returns the engine's cumulative accounting.
func (s *System) Counters() Counters { return s.engine.State().Counters() }

// Metrics returns the per-tick series collector.
func (s *System) Metrics() *Collector { return s.collector }

// Experiments.

// RunExperiment executes a registered experiment ("E1".."E12" or an alias
// like "fig1", "compare"); full selects the paper-scale variant. It returns
// nil for unknown names.
func RunExperiment(name string, full bool) *Report {
	fn := experiments.Lookup(name)
	if fn == nil {
		return nil
	}
	size := experiments.Small
	if full {
		size = experiments.Full
	}
	return fn(size)
}

// ExperimentIDs lists the registered experiment ids in order.
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentDescriptions returns one help line per experiment.
func ExperimentDescriptions() []string { return experiments.Describe() }

// RunAllExperiments executes the full registry.
func RunAllExperiments(full bool) []*Report {
	size := experiments.Small
	if full {
		size = experiments.Full
	}
	return experiments.RunAll(size)
}
