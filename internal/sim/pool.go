package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"pplb/internal/rng"
)

// This file is the parallel execution layer: a phase-fused worker loop.
//
// The predecessor design pushed one job per phase through an unbuffered
// channel and joined on a sync.WaitGroup, so every tick paid 6–8 full
// fork/join round trips through the scheduler — at Torus16384 the dispatch
// overhead alone exceeded the useful work of a steady-state tick. The fused
// loop removes the per-phase channel traffic entirely:
//
//   - Workers are persistent goroutines blocked on a monotonically
//     increasing phase-sequence counter. Publishing a phase is one atomic
//     increment (plus a wake only for workers that actually parked); there
//     is no channel send and no WaitGroup in the steady state.
//   - Between phases workers spin briefly on the sequence counter before
//     parking, so the back-to-back phases of a single tick flow through
//     without any scheduler round trip — a worker is typically woken once
//     per tick, at the first phase, and spins through the rest.
//   - Phase completion is an arrival counter the caller (who participates
//     in every phase as one more worker) waits on the same way:
//     spin-then-park. The monotonic sequence number is the generalized
//     "sense" of a classic sense-reversing barrier — a worker waiting for
//     seq >= k can never confuse phase k with phase k-1, so the counters
//     can be reset between phases without a second rendezvous.
//
// Work distribution is unchanged from the channel design: items are claimed
// by atomic counter, so the assignment of shards to workers is arbitrary —
// and irrelevant, because every phase writes only per-shard state and all
// reductions fold in canonical shard order on the caller. Worker count and
// scheduling are observationally irrelevant; Workers=1, 3 and 8 are
// bit-identical by construction (pinned by the harness twins).
//
// The caller goroutine doubles as the leader: it runs the serial sections
// between phases (the active-set swap, the reduce) exactly
// where the sequential engine would, publishes the next phase, and takes
// part in the claiming loop. No phase state survives a tick, so snapshots —
// which are only taken between ticks — never see barrier state (the
// sequence and arrival counters are always quiescent at snapshot points).

// cacheLine is the assumed coherence granularity for padding decisions.
// 64 bytes covers x86-64 and almost all arm64 parts (Apple silicon pairs
// 128-byte lines; padding to 64 still removes the adjacent-field sharing
// that matters here).
const cacheLine = 64

const (
	// spinIters bounds the busy-wait on the phase/arrival counters before a
	// participant parks on its wake channel. Phases of one tick follow each
	// other within microseconds, so a short spin absorbs nearly all
	// inter-phase waits; the park path is only taken at tick boundaries and
	// across long serial sections.
	spinIters = 8192
	// spinYield is the Gosched cadence inside the spin loop, so a spinning
	// participant cannot starve the goroutine it is waiting for when
	// GOMAXPROCS is smaller than the worker count.
	spinYield = 256
)

// phaseDesc is the work published to the workers for one phase. Written by
// the leader before it advances the sequence counter; read by workers after
// they observe the new sequence value (the atomic pair orders the accesses).
type phaseDesc struct {
	n    int
	run  func(int, *rng.RNG)
	stop bool // shut the workers down instead of running a phase
}

// fusedWorker is the per-worker park state. Padded so one worker's parked
// flag — written on every slow-path wait — cannot false-share with its
// neighbours' in the pool's worker array.
type fusedWorker struct {
	parked atomic.Bool
	wake   chan struct{} // cap 1; tokens may go stale, receivers re-check
	_      [cacheLine - 16]byte
}

// fusedPool runs the phase sequence of the tick pipeline on persistent
// worker goroutines. The three hot atomics live on separate cache lines:
// seq is write-rare/read-hot (workers spin on it), next is the claim
// counter every participant hammers, and done is the arrival counter.
type fusedPool struct {
	seq  atomic.Uint64
	_    [cacheLine - 8]byte
	next atomic.Int64
	_    [cacheLine - 8]byte
	done atomic.Int64
	_    [cacheLine - 8]byte

	desc phaseDesc

	leaderParked atomic.Bool
	leaderWake   chan struct{}

	workers []fusedWorker // pool goroutines; the caller is one more participant
	spin    int           // spin budget before parking (0 on a single-proc host)
	closing sync.Once
}

// newFusedPool starts workers-1 goroutines (the caller participates in every
// phase, so Workers=N means N claiming loops).
func newFusedPool(workers int) *fusedPool {
	p := &fusedPool{
		leaderWake: make(chan struct{}, 1),
		workers:    make([]fusedWorker, workers-1),
	}
	if runtime.GOMAXPROCS(0) > 1 {
		p.spin = spinIters
	}
	for i := range p.workers {
		p.workers[i].wake = make(chan struct{}, 1)
		go p.workerLoop(&p.workers[i])
	}
	return p
}

// workerLoop executes phases in sequence-number order until a stop phase.
// The loop references only the pool, never the engine: the leader nils
// desc.run after every phase, so an idle pool keeps nothing of the engine
// alive and a dropped engine stays reclaimable (its AddCleanup hook then
// shuts the pool down).
func (p *fusedPool) workerLoop(w *fusedWorker) {
	var r rng.RNG
	for seq := uint64(1); ; seq++ {
		p.awaitPhase(w, seq)
		d := &p.desc
		if d.stop {
			return
		}
		n, run := d.n, d.run
		for {
			i := int(p.next.Add(1)) - 1
			if i >= n {
				break
			}
			run(i, &r)
		}
		// Arrival. The worker completing the phase wakes the leader if it
		// parked; sequentially consistent atomics make the flag/counter
		// handshake race-free in both directions (at least one side always
		// sees the other's write).
		if p.done.Add(1) == int64(len(p.workers)) && p.leaderParked.Load() {
			select {
			case p.leaderWake <- struct{}{}:
			default:
			}
		}
	}
}

// awaitPhase blocks worker w until phase target is published: spin on the
// sequence counter, then park on the wake channel. Wake tokens can be stale
// (sent for a phase the worker already consumed on the fast path), so every
// wake re-checks the sequence; staleness costs one spurious loop, never a
// missed phase.
func (p *fusedPool) awaitPhase(w *fusedWorker, target uint64) {
	for i := 0; i < p.spin; i++ {
		if p.seq.Load() >= target {
			return
		}
		if i%spinYield == spinYield-1 {
			runtime.Gosched()
		}
	}
	for {
		w.parked.Store(true)
		if p.seq.Load() >= target {
			w.parked.Store(false)
			return
		}
		<-w.wake
		w.parked.Store(false)
	}
}

// publish makes desc the current phase and releases the workers. Leader
// only, and only after the previous phase fully arrived, so the plain desc
// write and the counter resets cannot race with worker reads.
func (p *fusedPool) publish(d phaseDesc) {
	p.desc = d
	p.next.Store(0)
	p.done.Store(0)
	p.seq.Add(1)
	for i := range p.workers {
		w := &p.workers[i]
		if w.parked.Load() {
			select {
			case w.wake <- struct{}{}:
			default:
			}
		}
	}
}

// awaitDone blocks the leader until every worker arrived at the current
// phase's end: spin, then park (the last arriver wakes us).
func (p *fusedPool) awaitDone() {
	target := int64(len(p.workers))
	for i := 0; i < p.spin; i++ {
		if p.done.Load() >= target {
			return
		}
		if i%spinYield == spinYield-1 {
			runtime.Gosched()
		}
	}
	for {
		p.leaderParked.Store(true)
		if p.done.Load() >= target {
			p.leaderParked.Store(false)
			return
		}
		<-p.leaderWake
		p.leaderParked.Store(false)
	}
}

// close releases the worker goroutines. Idempotent: the engine's explicit
// Close and its GC cleanup hook may both reach it.
func (p *fusedPool) close() {
	p.closing.Do(func() { p.publish(phaseDesc{stop: true}) })
}

// fanOut runs run(i) for every i in [0, n). Three execution paths, all
// bit-identical by construction (they execute the same canonical per-shard
// algorithm; only the goroutine running each shard differs):
//
//   - sequential engine (Workers <= 1): plain loop;
//   - parallel engine, small tick (adaptive serial cutover): plain loop on
//     the caller, zero worker wakeups — the post-convergence fast path;
//   - parallel engine, real work: fused dispatch, with the caller claiming
//     items alongside the workers.
func (e *Engine) fanOut(n int, run func(int, *rng.RNG)) {
	p := e.fused
	if p == nil || !e.parTick {
		for i := 0; i < n; i++ {
			run(i, &e.seqRNG)
		}
		return
	}
	p.publish(phaseDesc{n: n, run: run})
	for {
		i := int(p.next.Add(1)) - 1
		if i >= n {
			break
		}
		run(i, &e.seqRNG)
	}
	p.awaitDone()
	// Every worker is past its last read of desc (done.Add happens-before
	// awaitDone returning); drop the closure so idle workers retain no
	// reference to this engine.
	p.desc.run = nil
}
