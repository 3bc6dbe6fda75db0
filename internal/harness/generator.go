// Package harness is the seeded scenario-fuzzing harness of the simulator:
// a deterministic generator that expands a single uint64 seed into a full
// load-balancing scenario (topology family and size, link parameters and
// fault rates, heterogeneous speeds, arrival process, initial workload,
// dependency structure, policy), an invariant engine that checks the
// paper's conservation and determinism properties every few ticks, a
// shrinker that minimises failing scenarios, and a JSON replay-artifact
// format that reproduces a violation bit-identically in a fresh process.
//
// Everything is keyed by rng splits with fixed labels, so generation is
// reproducible byte-for-byte: the same Spec (seed + tweaks) always yields
// the same scenario, the same engine streams, and — if the engine has a
// bug — the same violation at the same tick with the same detail string.
// Tweaks are applied after the corresponding draw (they consume no
// randomness), which is what lets the shrinker disable faults or halve the
// tick budget without perturbing every other dimension of the scenario.
package harness

import (
	"fmt"

	"pplb/internal/baselines"
	"pplb/internal/core"
	"pplb/internal/linkmodel"
	"pplb/internal/rng"
	"pplb/internal/sim"
	"pplb/internal/taskmodel"
	"pplb/internal/topology"
	"pplb/internal/workload"
)

// Tweaks are the shrinker's handles on a generated scenario. They override
// or disable dimensions after generation, so a tweaked spec replays the
// same draws as the original and differs only where the tweak says.
type Tweaks struct {
	// Ticks overrides the generated tick budget (0 = as generated).
	Ticks int `json:"ticks,omitempty"`
	// SizeShrink demotes the generated topology size rank this many steps
	// towards the family's smallest instance.
	SizeShrink int `json:"size_shrink,omitempty"`
	// NoFaults forces every link fault probability to zero.
	NoFaults bool `json:"no_faults,omitempty"`
	// NoArrivals removes the dynamic arrival process.
	NoArrivals bool `json:"no_arrivals,omitempty"`
	// NoHetero makes all node speeds uniform.
	NoHetero bool `json:"no_hetero,omitempty"`
	// LeakEvery, when positive, installs the engine's deliberate
	// conservation leak with this period — the fault-injection knob the
	// harness's own self-tests use to prove the invariant engine works.
	LeakEvery int64 `json:"leak_every,omitempty"`
	// Churn overlays a recycle-heavy regime on the generated scenario: a
	// burst arrival every tick plus a high service rate, so task slots are
	// created and released constantly and the arena's free-list recycling,
	// id→handle index and queue link lanes get hammered. Like every tweak
	// it consumes no randomness, so churn variants of the pinned corpus
	// replay the corpus's own draws.
	Churn bool `json:"churn,omitempty"`
	// NoChurn removes the generated topology-churn schedule (node
	// join/leave and link add/remove/fail/repair events): the scenario
	// keeps its initial topology for the whole run.
	NoChurn bool `json:"no_churn,omitempty"`
}

// Spec identifies one scenario exactly: the generator seed plus the
// shrinker's tweaks. A Spec is the unit of replay.
type Spec struct {
	Seed   uint64 `json:"seed"`
	Tweaks Tweaks `json:"tweaks"`
}

func (s Spec) String() string {
	out := fmt.Sprintf("seed=%#x", s.Seed)
	tw := s.Tweaks
	if tw.Ticks > 0 {
		out += fmt.Sprintf(" ticks=%d", tw.Ticks)
	}
	if tw.SizeShrink > 0 {
		out += fmt.Sprintf(" size-%d", tw.SizeShrink)
	}
	if tw.NoFaults {
		out += " nofaults"
	}
	if tw.NoArrivals {
		out += " noarrivals"
	}
	if tw.NoHetero {
		out += " nohetero"
	}
	if tw.LeakEvery > 0 {
		out += fmt.Sprintf(" leak=%d", tw.LeakEvery)
	}
	if tw.Churn {
		out += " churn"
	}
	if tw.NoChurn {
		out += " nochurn"
	}
	return out
}

// ChurnEvent is one scheduled topology reconfiguration of a scenario: the
// committed successor graph with its link parameters, applied to every
// lockstep engine immediately before the event tick's step. The Reconfig's
// policy instance is built per engine at apply time (policies may capture
// the graph), which is why the event stores the pieces instead of a
// sim.Reconfig.
type ChurnEvent struct {
	Tick  int64
	Graph *topology.Graph
	Links *linkmodel.Params
	Epoch int64
	Dead  []int
}

// Scenario is a fully expanded Spec: everything needed to build the primary
// engine and its lockstep twins (Workers ∈ {1, 3, 8} — see Run).
type Scenario struct {
	Spec        Spec
	Family      string
	Graph       *topology.Graph
	Links       *linkmodel.Params
	Speeds      []float64
	Initial     [][]float64
	Arrivals    sim.ArrivalFunc
	TaskGraph   *taskmodel.Graph
	Resources   *taskmodel.Resources
	ServiceRate float64
	Ticks       int
	CheckEvery  int
	Workers     int
	PolicyName  string
	// NewPolicy builds a fresh instance per engine (policies hold state)
	// against the given graph — under churn, policies that capture the
	// topology (e.g. dimension exchange's edge coloring) are rebuilt for
	// each event's committed graph.
	NewPolicy func(g *topology.Graph) sim.Policy
	// Churn is the scripted reconfiguration schedule, ascending by tick
	// (empty when the scenario drew none or the NoChurn tweak is set).
	Churn      []ChurnEvent
	EngineSeed uint64
	// Fingerprint folds in every generated dimension but NOT the spec that
	// produced it, so two specs expanding to the same scenario (e.g. a
	// NoFaults tweak on a scenario that drew no faults) compare equal —
	// the shrinker uses this to skip no-op tweaks.
	Fingerprint string
	Desc        string
}

// Config assembles the sim configuration for this scenario at the given
// worker count. Each call builds a fresh policy instance, so the primary
// and twin engines never share mutable policy state. The serial cutover is
// disabled: harness scenarios are small enough that the adaptive threshold
// would route nearly every tick down the inline path, and the whole point of
// running parallel engines here is to keep the fused dispatch machinery
// under the invariant suite (the sweep twin re-enables the adaptive cutover
// so the inline↔fused flipping gets covered too).
func (sc *Scenario) Config(workers int) sim.Config {
	return sc.ConfigAt(workers, sc.Graph, sc.Links)
}

// ConfigAt assembles the sim configuration against an explicit topology —
// the graph and links current at some point of the churn schedule — so a
// snapshot taken after a reconfiguration can be restored (sim.Restore
// validates the config's graph against the snapshot's structural
// fingerprint). Speeds and the initial distribution are padded to the
// grown id space exactly as Reconfigure pads them.
func (sc *Scenario) ConfigAt(workers int, g *topology.Graph, links *linkmodel.Params) sim.Config {
	speeds := sc.Speeds
	if speeds != nil && len(speeds) < g.N() {
		speeds = append(append(make([]float64, 0, g.N()), speeds...), make([]float64, g.N()-len(speeds))...)
		for v := len(sc.Speeds); v < g.N(); v++ {
			speeds[v] = 1
		}
	}
	initial := sc.Initial
	if len(initial) < g.N() {
		initial = append(append(make([][]float64, 0, g.N()), initial...), make([][]float64, g.N()-len(initial))...)
	}
	return sim.Config{
		Graph:         g,
		Links:         links,
		Policy:        sc.NewPolicy(g),
		Seed:          sc.EngineSeed,
		Initial:       initial,
		TaskGraph:     sc.TaskGraph,
		Resources:     sc.Resources,
		Arrivals:      sc.Arrivals,
		ServiceRate:   sc.ServiceRate,
		Speeds:        speeds,
		Workers:       workers,
		SerialCutover: -1,
	}
}

// TopologyAt returns the graph and links in effect after every churn event
// at or before tick — what a restored engine must be configured with.
func (sc *Scenario) TopologyAt(tick int64) (*topology.Graph, *linkmodel.Params) {
	g, links := sc.Graph, sc.Links
	for _, ev := range sc.Churn {
		if ev.Tick <= tick {
			g, links = ev.Graph, ev.Links
		}
	}
	return g, links
}

// Families lists the topology families the generator draws from.
func Families() []string {
	return []string{"mesh", "torus", "hypercube", "ring", "star", "tree", "rr", "ccc"}
}

// maxSizeRank is the largest size rank per family (ranks run 0..maxSizeRank;
// the shrinker demotes towards 0).
const maxSizeRank = 2

// buildTopology returns the family's instance at the given size rank.
// Instances are kept small enough that a 200-scenario smoke (each scenario
// run twice for the twin check) fits comfortably in a merge gate.
func buildTopology(family string, rank int, seed uint64) *topology.Graph {
	switch family {
	case "mesh":
		return topology.NewMesh([]int{3, 4, 8}[rank], []int{3, 6, 8}[rank])
	case "torus":
		return topology.NewTorus([]int{4, 6, 8}[rank], []int{4, 6, 12}[rank])
	case "hypercube":
		return topology.NewHypercube([]int{3, 4, 6}[rank])
	case "ring":
		return topology.NewRing([]int{8, 16, 40}[rank])
	case "star":
		return topology.NewStar([]int{8, 16, 32}[rank])
	case "tree":
		return topology.NewTree([]int{2, 2, 3}[rank], []int{2, 3, 3}[rank])
	case "rr":
		n, d := []int{10, 16, 48}[rank], []int{3, 4, 4}[rank]
		return topology.NewRandomRegular(n, d, seed)
	case "ccc":
		return topology.NewCCC([]int{2, 3, 4}[rank])
	}
	panic("harness: unknown topology family " + family)
}

// Fixed split labels of the generation streams. Each dimension owns a
// stream, so changing how one dimension consumes randomness cannot shift
// any other dimension's draws.
const (
	labelTopo uint64 = iota + 0x51
	labelLinks
	labelSpeeds
	labelLoad
	labelArrivals
	labelPolicy
	labelMisc
	labelChurn // dynamic-topology dimension: moving-hotspot walk + churn schedule
)

// Generate expands a spec into a scenario, deterministically.
func Generate(spec Spec) *Scenario {
	base := rng.New(spec.Seed)
	rTopo := base.Split(labelTopo)
	rLinks := base.Split(labelLinks)
	rSpeeds := base.Split(labelSpeeds)
	rLoad := base.Split(labelLoad)
	rArr := base.Split(labelArrivals)
	rPolicy := base.Split(labelPolicy)
	rMisc := base.Split(labelMisc)
	rChurn := base.Split(labelChurn)

	sc := &Scenario{Spec: spec, Workers: 8}

	// Topology: family and size rank, then the shrinker's demotion.
	fams := Families()
	sc.Family = fams[rTopo.Intn(len(fams))]
	rank := rTopo.Intn(maxSizeRank + 1)
	rrSeed := rTopo.Uint64() // drawn unconditionally so later draws never shift
	// Clamp both ends: SizeShrink comes from replay artifacts, which may be
	// hand-edited or corrupted; a negative value must not index past the
	// family's size table.
	rank -= spec.Tweaks.SizeShrink
	if rank < 0 {
		rank = 0
	}
	if rank > maxSizeRank {
		rank = maxSizeRank
	}
	sc.Graph = buildTopology(sc.Family, rank, rrSeed)
	n := sc.Graph.N()

	// Links: length (latency), bandwidth, and one of three fault modes.
	var linkOpts []linkmodel.Option
	if length := rLinks.IntBetween(1, 3); length > 1 {
		linkOpts = append(linkOpts, linkmodel.WithUniformLength(float64(length)))
	}
	if rLinks.Bernoulli(0.25) {
		linkOpts = append(linkOpts, linkmodel.WithUniformBandwidth([]float64{0.5, 2}[rLinks.Intn(2)]))
	}
	faultMode := rLinks.Pick([]float64{45, 35, 20}) // none / uniform / per-link
	uniformF := rLinks.Range(0.01, 0.25)
	perLinkSeed := rLinks.Uint64()
	faultDesc := "none"
	if !spec.Tweaks.NoFaults {
		switch faultMode {
		case 1:
			linkOpts = append(linkOpts, linkmodel.WithUniformFault(uniformF))
			faultDesc = fmt.Sprintf("uniform %.3f", uniformF)
		case 2:
			linkOpts = append(linkOpts, linkmodel.WithRandomFaults(0.3, perLinkSeed))
			faultDesc = "per-link <0.3"
		}
	}
	sc.Links = linkmodel.New(sc.Graph, linkOpts...)

	// Heterogeneous speeds: the balancer should equalise drain times, not
	// raw loads, and the harness checks it never leaks load doing so.
	hetero := rSpeeds.Bernoulli(0.4)
	if hetero && !spec.Tweaks.NoHetero {
		sc.Speeds = make([]float64, n)
		for v := range sc.Speeds {
			sc.Speeds[v] = rSpeeds.Range(0.5, 2.5)
		}
	}

	// Initial workload plus occasional dependency/affinity structure (the
	// µs static-friction inputs of the paper).
	taskSize := rLoad.Range(0.2, 1)
	tasks := n * rLoad.IntBetween(2, 6)
	loadKinds := []string{"hotspot", "multihotspot", "uniform", "staircase", "bimodal", "equal"}
	loadKind := loadKinds[rLoad.Intn(len(loadKinds))]
	loadSeed := rLoad.Uint64()
	switch loadKind {
	case "hotspot":
		sc.Initial = workload.Hotspot(n, rLoad.Intn(n), tasks, taskSize)
	case "multihotspot":
		sc.Initial = workload.MultiHotspot(n, rLoad.IntBetween(2, 5), tasks, taskSize)
	case "uniform":
		sc.Initial = workload.UniformRandom(n, tasks, taskSize, loadSeed)
	case "staircase":
		sc.Initial = workload.Staircase(n, taskSize)
	case "bimodal":
		sc.Initial = workload.Bimodal(n, tasks, taskSize, taskSize*8, 0.2, loadSeed)
	case "equal":
		sc.Initial = workload.Equal(n, tasks/n, taskSize)
	}
	depSeed := rLoad.Uint64()
	depW := rLoad.Range(0.1, 1)
	if rLoad.Bernoulli(0.2) {
		sc.TaskGraph = workload.ChainDeps(sc.Initial, rLoad.IntBetween(2, 5), depW)
	}
	if rLoad.Bernoulli(0.1) {
		sc.Resources = workload.PinnedResources(sc.Initial, 0.5, depW, depSeed)
	}

	// Arrival process and service. Every parameter is drawn unconditionally BEFORE the NoArrivals tweak
	// applies (mirroring the fault draws above): tweaks must consume no
	// randomness, or disabling arrivals would shift the service-rate draws
	// and silently change a second scenario dimension under shrinking.
	arrKind := rArr.Pick([]float64{35, 30, 20, 15}) // none / poisson / burst / hotspot
	poissonRate, poissonMean := rArr.Range(0.01, 0.08), rArr.Range(0.2, 1)
	burstPeriod := int64(rArr.IntBetween(3, 10))
	burstSize := rArr.IntBetween(32, 128)
	burstLoad := rArr.Range(0.2, 0.8)
	hotNode, hotRate, hotLoad := rArr.Intn(n), rArr.Range(0.5, 3), rArr.Range(0.2, 0.8)
	// The moving-hotspot upgrade draws from the churn stream, so adding the
	// dynamic-topology dimension left every pre-existing arrival draw (and
	// therefore every pinned corpus fingerprint) untouched.
	movingUp := rChurn.Bernoulli(0.5)
	walkSeed := rChurn.Uint64()
	movePeriod := int64(rChurn.IntBetween(2, 8))
	arrDesc := "none"
	if !spec.Tweaks.NoArrivals {
		switch arrKind {
		case 1:
			sc.Arrivals = workload.PoissonArrivals(poissonRate, poissonMean, n)
			arrDesc = fmt.Sprintf("poisson %.3f", poissonRate)
		case 2:
			sc.Arrivals = workload.BurstArrivals(burstPeriod, burstSize, burstLoad, n)
			arrDesc = fmt.Sprintf("burst %d/%dt", burstSize, burstPeriod)
		case 3:
			if movingUp {
				sc.Arrivals = workload.MovingHotspotArrivals(sc.Graph, hotNode, hotRate, hotLoad, movePeriod, walkSeed)
				arrDesc = fmt.Sprintf("moving-hotspot /%dt", movePeriod)
			} else {
				sc.Arrivals = workload.HotspotArrivals(hotNode, hotRate, hotLoad)
				arrDesc = "hotspot"
			}
		}
	}
	if rArr.Bernoulli(0.5) {
		sc.ServiceRate = rArr.Range(0.02, 0.3)
	}
	if spec.Tweaks.Churn {
		// Recycle-heavy overlay: one burst of ~n small tasks every tick and
		// service fast enough to drain them, so completions free arena slots
		// at the same rate arrivals recycle them. Parameters are fixed (no
		// draws) — tweaks must consume no randomness.
		sc.Arrivals = workload.BurstArrivals(1, n, 0.5, n)
		sc.ServiceRate = 1
		arrDesc = "churn"
	}

	// Policy: mostly PPLB (default and perturbed-constant variants), the
	// rest spread over the baselines — invariants must hold for all of them.
	// Constructors take the graph so churn events can rebuild
	// graph-capturing policies against each committed topology.
	kind := rPolicy.Pick([]float64{40, 15, 10, 10, 10, 10, 10, 5})
	pplbCfg := core.DefaultConfig()
	if kind == 1 {
		pplbCfg.Ck0 = rPolicy.Range(0, 0.2)
		pplbCfg.CkProp = rPolicy.Range(0, 0.3)
		pplbCfg.MaxMovesPerNode = rPolicy.Intn(3)
		pplbCfg.DisableInertia = rPolicy.Bernoulli(0.25)
		if rPolicy.Bernoulli(0.3) {
			pplbCfg.EnergyDamping = rPolicy.Range(0.5, 1)
		}
		if pplbCfg.Validate() != nil {
			pplbCfg = core.DefaultConfig() // unreachable with the ranges above
		}
	}
	diffAlpha := rPolicy.Range(0, 0.4)
	switch kind {
	case 0:
		sc.PolicyName = "pplb"
		sc.NewPolicy = func(*topology.Graph) sim.Policy { return core.New(core.DefaultConfig()) }
	case 1:
		sc.PolicyName = "pplb-perturbed"
		sc.NewPolicy = func(*topology.Graph) sim.Policy { return core.New(pplbCfg) }
	case 2:
		sc.PolicyName = "diffusion"
		sc.NewPolicy = func(*topology.Graph) sim.Policy { return baselines.Diffusion{Alpha: diffAlpha} }
	case 3:
		sc.PolicyName = "dimexchange"
		sc.NewPolicy = func(g *topology.Graph) sim.Policy { return baselines.NewDimensionExchange(g) }
	case 4:
		sc.PolicyName = "gm"
		sc.NewPolicy = func(*topology.Graph) sim.Policy { return &baselines.GradientModel{} }
	case 5:
		sc.PolicyName = "cwn"
		sc.NewPolicy = func(*topology.Graph) sim.Policy { return baselines.CWN{} }
	case 6:
		sc.PolicyName = "random"
		sc.NewPolicy = func(*topology.Graph) sim.Policy { return &baselines.RandomSender{} }
	case 7:
		sc.PolicyName = "none"
		sc.NewPolicy = func(*topology.Graph) sim.Policy { return baselines.None{} }
	}

	// Run shape.
	genTicks := rMisc.IntBetween(40, 120)
	sc.Ticks = genTicks
	if spec.Tweaks.Ticks > 0 {
		sc.Ticks = spec.Tweaks.Ticks
	}
	sc.CheckEvery = rMisc.IntBetween(1, 5)
	sc.EngineSeed = rMisc.Uint64()

	// Topology churn: roughly a third of scenarios reconfigure mid-run —
	// 1–3 events of 1–3 operations each (join, leave, link fail/remove/
	// repair), committed through a topology.Dynamic so every event carries a
	// complete successor graph. Event ticks are placed against the GENERATED
	// tick budget, so a Ticks tweak shrinks the run without re-rolling the
	// schedule (events past the shrunk end simply never fire). The whole
	// dimension draws from its own stream and the schedule is generated
	// unconditionally — NoChurn only withholds it from the scenario.
	churn := generateChurn(rChurn, sc.Graph, int64(genTicks), linkOpts)
	if !spec.Tweaks.NoChurn {
		sc.Churn = churn
	}

	sc.Fingerprint = fmt.Sprintf("%s(%d nodes) policy=%s load=%s arrivals=%s faults=%s service=%.3f hetero=%t churn=%d ticks=%d check=%d",
		sc.Graph.Name(), n, sc.PolicyName, loadKind, arrDesc, faultDesc,
		sc.ServiceRate, sc.Speeds != nil, len(sc.Churn), sc.Ticks, sc.CheckEvery)
	sc.Desc = fmt.Sprintf("%s [%s]", sc.Fingerprint, spec)
	return sc
}

// generateChurn draws a scenario's reconfiguration schedule from the churn
// stream: possibly empty, else 1–3 ascending-tick events, each a batch of
// 1–3 staged operations committed at once. Operations are drawn against the
// evolving Dynamic, so later events see earlier events' topology; draws that
// would be illegal (leaving too many nodes, failing a link when none is up)
// degrade to no-ops rather than re-rolling, keeping the draw sequence a pure
// function of the evolving graph.
func generateChurn(r *rng.RNG, g0 *topology.Graph, ticks int64, linkOpts []linkmodel.Option) []ChurnEvent {
	churnOn := r.Bernoulli(0.35)
	numEvents := r.IntBetween(1, 3)
	if !churnOn || ticks < 8 {
		return nil
	}
	d := topology.NewDynamic(g0)
	// Never shrink below half the original nodes: the scenario's workload
	// was sized for the full machine and drains need somewhere to land.
	minAlive := g0.N()/2 + 1
	var events []ChurnEvent
	tick := int64(1)
	for i := 0; i < numEvents; i++ {
		tick += int64(r.IntBetween(2, int(ticks)/(numEvents+1)+2))
		if tick >= ticks {
			break
		}
		for ops := r.IntBetween(1, 3); ops > 0; ops-- {
			switch r.Pick([]float64{20, 25, 20, 20, 15}) {
			case 0: // join, wired to 1–3 alive nodes
				alive := aliveNodes(d)
				nv := d.Join(topology.Point2{X: r.Range(0, 8), Y: r.Range(0, 8)})
				for l := r.IntBetween(1, 3); l > 0; l-- {
					d.AddLink(nv, alive[r.Intn(len(alive))])
				}
			case 1: // leave (only while comfortably above the floor)
				if alive := aliveNodes(d); len(alive) > minAlive {
					d.Leave(alive[r.Intn(len(alive))])
				}
			case 2: // fail a link of the last committed graph
				if edges := d.Graph().Edges(); len(edges) > 0 {
					ed := edges[r.Intn(len(edges))]
					d.FailLink(ed.U, ed.V)
				}
			case 3: // remove a link permanently
				if edges := d.Graph().Edges(); len(edges) > 0 {
					ed := edges[r.Intn(len(edges))]
					d.RemoveLink(ed.U, ed.V)
				}
			case 4: // repair a previously failed link
				if failed := d.FailedLinks(); len(failed) > 0 {
					ed := failed[r.Intn(len(failed))]
					d.RepairLink(ed.U, ed.V)
				}
			}
		}
		g, epoch := d.Commit()
		if len(events) > 0 && epoch == events[len(events)-1].Epoch || epoch == 0 {
			continue // every op degraded to a no-op; nothing to commit
		}
		events = append(events, ChurnEvent{
			Tick:  tick,
			Graph: g,
			Links: linkmodel.New(g, linkOpts...),
			Epoch: epoch,
			Dead:  d.DeadNodes(),
		})
	}
	return events
}

func aliveNodes(d *topology.Dynamic) []int {
	out := make([]int, 0, d.AliveCount())
	for v := 0; v < d.N(); v++ {
		if d.Alive(v) {
			out = append(out, v)
		}
	}
	return out
}
