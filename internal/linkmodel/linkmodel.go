// Package linkmodel implements the link-side configuration of §4.2: the
// bandwidth (BW), length (D) and fault-probability (F) matrices, and the
// composite link weight
//
//	e_ij ∝ d_ij,  e_ij ∝ 1/bw_ij,  e_ij ∝ 1/(1-f_ij)^(c·d_ij/bw_ij)
//
// which the paper combines into a single per-link cost: longer, slower and
// flakier links present a less steep slope to the particle, so loads prefer
// short, fast, reliable routes. All three matrices are "constant over the
// life time of the system" (configuration parameters), which is why Params is
// immutable after construction.
package linkmodel

import (
	"fmt"
	"math"
	"sync"

	"pplb/internal/rng"
	"pplb/internal/topology"
)

// Params holds the per-link configuration matrices, one entry per edge of
// the underlying graph, addressed by canonical edge id
// (topology.Graph.EdgeID).
type Params struct {
	g *topology.Graph
	// Per-edge values, indexed by canonical edge index.
	bw, d, f []float64
	// Derived per-edge values that need math.Pow, precomputed at
	// construction so the planning hot path reads a slice instead of
	// recomputing pow per candidate. The oblivious cost and the latency are
	// one division away from bw and d, so they are computed where they are
	// read.
	cost, failProb []float64
	// costScale is the proportionality constant folded into the cost; cFault
	// is the c in the (1-f)^(c·d/bw) reliability exponent. Unexported: Params
	// is immutable after New, and the derived tables above snapshot these —
	// a post-construction write would silently be ignored.
	costScale float64
	cFault    float64
	// fingerprint memoizes Fingerprint: Params never changes after New.
	fingerprint func() uint64
}

// Option mutates construction-time settings of Params.
type Option func(*builder)

type builder struct {
	bw, d, f  func(u, v int) float64
	costScale float64
	cFault    float64
}

// WithUniformBandwidth sets every link's bandwidth.
func WithUniformBandwidth(bw float64) Option {
	return func(b *builder) { b.bw = func(u, v int) float64 { return bw } }
}

// WithUniformLength sets every link's length.
func WithUniformLength(d float64) Option {
	return func(b *builder) { b.d = func(u, v int) float64 { return d } }
}

// WithUniformFault sets every link's per-tick fault probability.
func WithUniformFault(f float64) Option {
	return func(b *builder) { b.f = func(u, v int) float64 { return f } }
}

// WithBandwidthFn sets per-link bandwidth from a function of the endpoints.
func WithBandwidthFn(fn func(u, v int) float64) Option {
	return func(b *builder) { b.bw = fn }
}

// WithLengthFn sets per-link length from a function of the endpoints.
func WithLengthFn(fn func(u, v int) float64) Option {
	return func(b *builder) { b.d = fn }
}

// WithFaultFn sets per-link fault probability from a function of the
// endpoints.
func WithFaultFn(fn func(u, v int) float64) Option {
	return func(b *builder) { b.f = fn }
}

// WithCostScale sets the overall proportionality constant of the link cost
// (default 1).
func WithCostScale(s float64) Option {
	return func(b *builder) { b.costScale = s }
}

// WithFaultExponent sets the c constant of the reliability exponent
// (default 1).
func WithFaultExponent(c float64) Option {
	return func(b *builder) { b.cFault = c }
}

// WithRandomFaults assigns each link an independent fault probability drawn
// uniformly from [0, maxF), deterministically from seed. New asks for each
// link's fault exactly once, in canonical edge order, so the draws follow
// that order.
func WithRandomFaults(maxF float64, seed uint64) Option {
	return func(b *builder) {
		r := rng.New(seed)
		b.f = func(u, v int) float64 { return r.Float64() * maxF }
	}
}

// New builds link parameters for every edge of g. Defaults: bandwidth 1,
// length 1, fault probability 0, cost scale 1, fault exponent 1 — which makes
// every link cost 1, the "uniform unit-cost network" baseline.
func New(g *topology.Graph, opts ...Option) *Params {
	b := &builder{
		bw:        func(u, v int) float64 { return 1 },
		d:         func(u, v int) float64 { return 1 },
		f:         func(u, v int) float64 { return 0 },
		costScale: 1,
		cFault:    1,
	}
	for _, o := range opts {
		o(b)
	}
	edges := g.Edges()
	p := &Params{
		g:         g,
		bw:        make([]float64, len(edges)),
		d:         make([]float64, len(edges)),
		f:         make([]float64, len(edges)),
		costScale: b.costScale,
		cFault:    b.cFault,
	}
	for i, e := range edges {
		// The per-edge tables are indexed by the topology's canonical edge
		// ids (CostByEdge and friends); assert the enumerations agree.
		if id, ok := g.EdgeID(e.U, e.V); !ok || id != i {
			panic(fmt.Sprintf("linkmodel: edge enumeration out of sync with topology at %v (id %d)", e, i))
		}
		p.bw[i] = b.bw(e.U, e.V)
		p.d[i] = b.d(e.U, e.V)
		f := b.f(e.U, e.V)
		p.f[i] = clamp01(f)
		// Written as !(x > 0 && x < +Inf) so NaN, which compares false
		// against everything, is rejected too: a NaN or infinite parameter
		// would give a NaN or infinite cost on which no slope comparison
		// ever succeeds.
		if !(p.bw[i] > 0 && p.bw[i] < math.Inf(1)) {
			panic(fmt.Sprintf("linkmodel: non-positive or non-finite bandwidth %v on edge %v", p.bw[i], e))
		}
		if !(p.d[i] > 0 && p.d[i] < math.Inf(1)) {
			panic(fmt.Sprintf("linkmodel: non-positive or non-finite length %v on edge %v", p.d[i], e))
		}
		if math.IsNaN(f) {
			panic(fmt.Sprintf("linkmodel: NaN fault probability on edge %v", e))
		}
	}
	p.precompute()
	p.fingerprint = sync.OnceValue(p.hash)
	return p
}

// precompute derives the per-edge cost and failure-probability tables, the
// two derived values that need math.Pow. Params is immutable after New, so
// these never go stale.
func (p *Params) precompute() {
	n := len(p.bw)
	p.cost = make([]float64, n)
	p.failProb = make([]float64, n)
	for i := 0; i < n; i++ {
		base := p.d[i] / p.bw[i]
		rel := math.Pow(1-p.f[i], p.cFault*base)
		p.cost[i] = p.costScale * base / rel
		p.failProb[i] = 1 - math.Pow(1-p.f[i], float64(p.LatencyByEdge(i)))
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x >= 1 {
		// f == 1 would make the link permanently dead and its cost infinite;
		// cap just below 1 so the cost stays finite and enormous.
		return 1 - 1e-9
	}
	return x
}

// Graph returns the topology these parameters are attached to.
func (p *Params) Graph() *topology.Graph { return p.g }

// CostByEdge returns the composite link weight e_ij of §4.2 for the link
// with the given canonical edge id (see topology.Graph.IncidentEdgeIDs):
//
//	e_ij = costScale · (d/bw) / (1-f)^(cFault·d/bw)
//
// combining the paper's three proportionalities. d/bw is the nominal
// transfer time per unit load; the (1-f)^(c·d/bw) factor is "a measure of the
// probability that the load does not encounter any faults during its
// transmission", so dividing by it inflates the effective cost of flaky
// links.
func (p *Params) CostByEdge(id int) float64 { return p.cost[id] }

// CostObliviousByEdge returns the link weight a fault-unaware balancer sees:
// the same formula with the reliability factor dropped. The fault-awareness
// ablation (E12) compares CostByEdge with it.
func (p *Params) CostObliviousByEdge(id int) float64 { return p.costScale * (p.d[id] / p.bw[id]) }

// LatencyByEdge returns the integral number of ticks a transfer of one task
// occupies the link: max(1, round(d/bw)). Fault risk does not slow a
// transfer, it only threatens it, so latency uses the oblivious base cost.
func (p *Params) LatencyByEdge(id int) int { return max(1, int(math.Round(p.d[id]/p.bw[id]))) }

// DeliveryFailureProbByEdge returns the probability that a transfer
// occupying the link for LatencyByEdge ticks hits at least one fault:
// 1-(1-f)^latency.
func (p *Params) DeliveryFailureProbByEdge(id int) float64 { return p.failProb[id] }

// Fingerprint returns a deterministic hash of the full link configuration:
// every per-edge bandwidth/length/fault value (in canonical edge order) plus
// the cost scale and fault exponent. Params is immutable after New, so the
// fingerprint identifies the configuration for the lifetime of the system;
// the engine's snapshot header records it so a restore into an engine built
// with different link parameters fails loudly instead of diverging silently.
// The hash is computed once and memoized.
func (p *Params) Fingerprint() uint64 { return p.fingerprint() }

func (p *Params) hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(len(p.bw)))
	for i := range p.bw {
		mix(math.Float64bits(p.bw[i]))
		mix(math.Float64bits(p.d[i]))
		mix(math.Float64bits(p.f[i]))
	}
	mix(math.Float64bits(p.costScale))
	mix(math.Float64bits(p.cFault))
	return h
}
