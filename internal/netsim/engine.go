// The unified simulation engine. Every public entry point runs the one
// engine in this file: one packet struct (epacket), one link-FIFO/active-
// list core (linkStore: dense for materialized graphs, with one FIFO per
// edge; sparse for implicit topologies, with FIFOs keyed by arc (u, v) that
// exist only while busy), one future-arrival ring, one injection law, and
// one per-cycle phase order
//
//	tick → apply topology changes → deliver arrivals → fire retransmission
//	timers → inject (or test the drain break) → advance links
//
// parameterized by closures for the parts that genuinely differ: routing
// (BFS tables / adaptive spread / algebraic Router, with or without fault
// detours), delivery bookkeeping (plain counters vs. flow-table duplicate
// suppression), hop-limit policy (hard error vs. counted drop), and fault
// handling. The closures capture each variant's statistics directly, so the
// engine itself holds no Stats. The materialized entry points, Run and
// RunFaulty, each wire their own hooks; the three implicit ones —
// RunImplicit, RunImplicitFaulty, RunSharded — share the one hook set of the
// lane engine (lane.go).
//
// The injection law: every node makes one independent Bernoulli(rate) trial
// per injection cycle. Run and RunFaulty draw it node by node; the lane
// engine skips geometrically from one success to the next (nextInjector),
// which is the same law at O(injections) rather than O(nodes) per cycle.
//
// Bit-for-bit compatibility contract: every variant must consume the run's
// RNG in exactly the order its recorded fixtures did (injection draws,
// adaptive/detour choices) and emit probe events in the same sequence.
// TestEngineGoldenParity pins this against fixtures recorded from the
// original loops (the implicit ones from the geometric-skip sampler).
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/graph"
	"repro/internal/obs"
)

// epacket is the one in-flight packet representation shared by all engine
// variants. Materialized runs use only the narrow prefix (id, dst, born,
// measured); ttl backs RunFaulty's detour budget, hops the livelock
// watchdogs, and degraded RunImplicitFaulty's detoured-delivery counter.
// For RunFaulty, id doubles as the flow sequence number.
type epacket struct {
	id       int64
	dst      int64
	born     int
	hops     int
	ttl      int
	measured bool
	degraded bool
}

// elink is the FIFO of one directed link u -> v. downCnt is the
// reference-counted liveness used by the materialized fault simulator
// (overlapping transient faults); the implicit fault simulator keeps
// liveness in its FaultSink instead.
type elink struct {
	u, v    int64
	queue   []epacket // the queued packets are queue[head:], oldest first
	head    int
	freeAt  int
	downCnt int
}

// pending returns the queued packets, oldest first.
func (lk *elink) pending() []epacket { return lk.queue[lk.head:] }

// push appends pkt. Pops only advance head, so the array keeps its front; a
// full array is compacted when at least half of it has been popped and
// grown otherwise, which keeps both operations amortized O(1).
func (lk *elink) push(pkt epacket) {
	if len(lk.queue) == cap(lk.queue) && lk.head > 0 {
		live := lk.queue[lk.head:]
		if 2*lk.head >= len(lk.queue) {
			lk.queue = lk.queue[:copy(lk.queue, live)]
		} else {
			lk.queue = append(make([]epacket, 0, 2*cap(lk.queue)), live...)
		}
		lk.head = 0
	}
	lk.queue = append(lk.queue, pkt)
}

// pop removes and returns the oldest packet; the FIFO must not be empty.
func (lk *elink) pop() epacket {
	pkt := lk.queue[lk.head]
	lk.head++
	if lk.head == len(lk.queue) {
		lk.queue, lk.head = lk.queue[:0], 0
	}
	return pkt
}

// take empties the FIFO and returns the packets it held. The array goes
// with them: a caller re-routing them may push onto this FIFO meanwhile.
func (lk *elink) take() []epacket {
	q := lk.pending()
	lk.queue, lk.head = nil, 0
	return q
}

// earrival is one scheduled packet arrival in the future-arrival ring.
type earrival struct {
	node int64
	pkt  epacket
}

// linkStore is the adjacency-side parameterization of the engine: how link
// FIFOs are stored and in what deterministic order the advance phase visits
// them. denseLinks materializes one FIFO per directed edge of a
// *graph.Graph; sparseLinks keeps only links that currently hold (or
// recently transmitted) a packet, keyed by their arc (u, v).
type linkStore interface {
	// get returns the FIFO of arc u->v, creating it if needed. It errors
	// when v is not a neighbor of u — a routing-layer bug.
	get(u, v int64) (*elink, error)
	// advance visits the store's links in its deterministic order and
	// transmits the queue head of every link that is free and not blocked.
	advance(now int, e *engine) error
}

// engine is the shared clock/link/arrival core. The exported Run* functions
// assemble one, point the hook closures at their own statistics, and call
// run(). Hooks left nil are skipped (fault-free variants have no
// applyChanges/fireRetries/arrivalDead/blocked phase at all).
type engine struct {
	pb         obs.Probe
	store      linkStore
	ring       [][]earrival
	hand       epacket // the packet enqueue is routing
	flits      int
	cutThrough bool
	period     func(u, v int64) int

	total    int // warmup + measure: injection stops here
	deadline int // total + drain: the run stops here

	// route picks the next hop for pkt at node `at`. ok=false drops the
	// copy (the hook has done the accounting); err aborts the run.
	route func(now int, at int64, pkt *epacket) (nh int64, ok bool, err error)
	// deliver performs delivery bookkeeping for a packet that reached
	// pkt.dst (stats, flow state, probe call).
	deliver func(now int, at int64, pkt *epacket)
	// hopLimit > 0 enables the livelock watchdog: a packet with hops >=
	// hopLimit is handed to onHopLimit instead of being routed, which
	// either accounts a drop (nil error) or aborts the run.
	hopLimit   int
	onHopLimit func(now int, at int64, pkt *epacket) error

	// Optional per-cycle phases, in engine.run order.
	applyChanges func(now int) error
	arrivalDead  func(now int, node int64, pkt *epacket) bool
	fireRetries  func(now int) error
	inject       func(now int) error
	canStop      func(now int) bool
	// blocked gates the advance phase: a true return holds the link's
	// queue this cycle (dead node, dead link).
	blocked func(lk *elink) bool
	// crossSend intercepts a transmitted packet whose head node another
	// lane owns (sharded runs): a true return means the hook captured the
	// packet (into a cross-lane outbox) and it must not enter the local
	// arrival ring. Nil — every sequential variant — keeps everything local.
	crossSend func(now, delay int, dst int64, pkt epacket) bool
}

// run executes the clock loop until the drain deadline, the variant's early
// break, or an error, and returns the cycle it stopped at (the deadline when
// no early break fired).
func (e *engine) run() (end int, err error) {
	for now := 0; now < e.deadline; now++ {
		stop, err := e.step(now)
		if err != nil {
			return now, err
		}
		if stop {
			return now, nil
		}
	}
	return e.deadline, nil
}

// step executes one cycle of the clock loop: tick, topology changes,
// arrivals, retransmission timers, injection (or the drain break), link
// advance. The sharded simulator drives lanes through it window by window;
// run() is the sequential wrapper. stop reports the variant's early break.
func (e *engine) step(now int) (stop bool, err error) {
	if e.pb != nil {
		e.pb.Tick(now)
	}
	if e.applyChanges != nil {
		if err := e.applyChanges(now); err != nil {
			return false, err
		}
	}
	slot := now % len(e.ring)
	for i := range e.ring[slot] {
		a := &e.ring[slot][i]
		if e.arrivalDead != nil && e.arrivalDead(now, a.node, &a.pkt) {
			continue
		}
		if err := e.enqueue(now, a.node, a.pkt); err != nil {
			return false, err
		}
	}
	e.ring[slot] = e.ring[slot][:0]
	if e.fireRetries != nil {
		if err := e.fireRetries(now); err != nil {
			return false, err
		}
	}
	if now < e.total {
		if err := e.inject(now); err != nil {
			return false, err
		}
	} else if e.canStop(now) {
		return true, nil
	}
	if err := e.store.advance(now, e); err != nil {
		return false, err
	}
	return false, nil
}

// enqueue routes one packet copy at node `at`: deliver it, drop it on the
// hop watchdog, or append it to the next hop's link FIFO.
func (e *engine) enqueue(now int, at int64, in epacket) error {
	// The hooks take the packet by pointer through func values, which
	// escape analysis must assume retain it; handing them &in would move
	// every routed packet to the heap. They get the engine's hand slot
	// instead. No hook keeps the pointer or re-enters enqueue.
	e.hand = in
	pkt := &e.hand
	if pkt.dst == at {
		e.deliver(now, at, pkt)
		return nil
	}
	if e.hopLimit > 0 && pkt.hops >= e.hopLimit {
		return e.onHopLimit(now, at, pkt)
	}
	nh, ok, err := e.route(now, at, pkt)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	lk, err := e.store.get(at, nh)
	if err != nil {
		return err
	}
	lk.push(*pkt)
	if e.pb != nil {
		e.pb.Enqueue(now, pkt.id, at, nh, len(lk.pending()))
	}
	return nil
}

// transmit moves the queue head of a free link onto the arrival ring.
func (e *engine) transmit(now int, lk *elink) {
	pkt := lk.pop()
	p := e.period(lk.u, lk.v)
	occupy := p * e.flits
	lk.freeAt = now + occupy
	delay := occupy // store-and-forward: the whole message arrives together
	if e.cutThrough {
		delay = p // head proceeds while the tail drains
	}
	pkt.hops++
	if e.pb != nil {
		e.pb.Hop(now, pkt.id, lk.u, lk.v, occupy, len(lk.pending()))
	}
	if e.crossSend != nil && e.crossSend(now, delay, lk.v, pkt) {
		return
	}
	s := (now + delay) % len(e.ring)
	e.ring[s] = append(e.ring[s], earrival{node: lk.v, pkt: pkt})
}

// ---------------------------------------------------------------------------
// Dense link store: one FIFO per directed edge of a materialized graph,
// visited in (node, adjacency slot) order.

type denseLinks struct {
	links  [][]elink
	slotOf []map[int32]int
}

func newDenseLinks(g *graph.Graph) *denseLinks {
	n := g.N()
	d := &denseLinks{links: make([][]elink, n), slotOf: make([]map[int32]int, n)}
	for u := 0; u < n; u++ {
		adj := g.Neighbors(int32(u))
		d.links[u] = make([]elink, len(adj))
		d.slotOf[u] = make(map[int32]int, len(adj))
		for s, v := range adj {
			d.links[u][s] = elink{u: int64(u), v: int64(v)}
			d.slotOf[u][v] = s
		}
	}
	return d
}

func (d *denseLinks) get(u, v int64) (*elink, error) {
	s, ok := d.slotOf[u][int32(v)]
	if !ok {
		return nil, fmt.Errorf("netsim: next hop %d from %d is not a neighbor", v, u)
	}
	return &d.links[u][s], nil
}

// at returns the FIFO of arc u->v, or nil when v is not a neighbor of u.
// The fault machinery uses it for liveness marks and queue kills.
func (d *denseLinks) at(u, v int64) *elink {
	s, ok := d.slotOf[u][int32(v)]
	if !ok {
		return nil
	}
	return &d.links[u][s]
}

func (d *denseLinks) advance(now int, e *engine) error {
	for u := range d.links {
		for s := range d.links[u] {
			lk := &d.links[u][s]
			if len(lk.pending()) == 0 || lk.freeAt > now {
				continue
			}
			if e.blocked != nil && e.blocked(lk) {
				continue
			}
			e.transmit(now, lk)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Sparse link store: only links that currently hold or recently transmitted
// a packet exist, keyed by their arc (u, v). Adjacency is checked once, when
// a FIFO is created; a FIFO that exists was checked then. The active list
// keeps insertion order so the advance phase — and therefore the whole run —
// is deterministic; idle links go to a free list with their queue arrays.

// adjacencyOracle is the optional Topology extension that answers whether
// the arc u -> v exists without listing u's neighbors; topo.Implicit,
// topo.Materialized and topo.HypercubeTopo implement it. Without it the
// link store binary-searches Neighbors(u).
type adjacencyOracle interface {
	Adjacent(u, v int64) bool
}

type sparseLinks struct {
	topo   Topology
	adj    adjacencyOracle // nil: fall back to Neighbors
	links  map[[2]int64]*elink
	active []*elink
	free   []*elink
	nbrBuf []int64
}

func newSparseLinks(t Topology) *sparseLinks {
	adj, _ := t.(adjacencyOracle)
	return &sparseLinks{
		topo:   t,
		adj:    adj,
		links:  make(map[[2]int64]*elink),
		nbrBuf: make([]int64, 0, t.MaxDegree()),
	}
}

// adjacent reports whether the arc u -> v exists.
func (s *sparseLinks) adjacent(u, v int64) bool {
	if s.adj != nil {
		return s.adj.Adjacent(u, v)
	}
	s.nbrBuf = s.topo.Neighbors(u, s.nbrBuf)
	_, ok := slices.BinarySearch(s.nbrBuf, v)
	return ok
}

func (s *sparseLinks) get(u, v int64) (*elink, error) {
	if lk, ok := s.links[[2]int64{u, v}]; ok {
		return lk, nil
	}
	if !s.adjacent(u, v) {
		return nil, fmt.Errorf("netsim: next hop %d from %d is not a neighbor", v, u)
	}
	var lk *elink
	if n := len(s.free); n > 0 {
		lk = s.free[n-1]
		s.free = s.free[:n-1]
		lk.u, lk.v = u, v
	} else {
		lk = &elink{u: u, v: v}
	}
	s.links[[2]int64{u, v}] = lk
	s.active = append(s.active, lk)
	return lk, nil
}

// peek returns the FIFO of arc u->v when it exists, nil otherwise (v not a
// neighbor, or the link currently idle and reclaimed).
func (s *sparseLinks) peek(u, v int64) *elink {
	return s.links[[2]int64{u, v}]
}

// eachFrom visits the live FIFOs of u's outgoing links u -> v in ascending
// order of v, the order of Neighbors(u).
func (s *sparseLinks) eachFrom(u int64, fn func(*elink)) {
	s.nbrBuf = s.topo.Neighbors(u, s.nbrBuf)
	for _, v := range s.nbrBuf {
		if lk, ok := s.links[[2]int64{u, v}]; ok {
			fn(lk)
		}
	}
}

func (s *sparseLinks) advance(now int, e *engine) error {
	live := s.active[:0]
	for _, lk := range s.active {
		if len(lk.pending()) == 0 {
			if lk.freeAt <= now {
				delete(s.links, [2]int64{lk.u, lk.v})
				*lk = elink{queue: lk.queue[:0]}
				s.free = append(s.free, lk)
				continue
			}
			live = append(live, lk)
			continue
		}
		if lk.freeAt > now {
			live = append(live, lk)
			continue
		}
		if e.blocked != nil && e.blocked(lk) {
			// Dead tail or dead link: the queue waits for a repair.
			live = append(live, lk)
			continue
		}
		e.transmit(now, lk)
		live = append(live, lk)
	}
	s.active = live
	return nil
}

// ---------------------------------------------------------------------------
// Injection sampling, shared by the implicit simulators and the sharded
// engine.

// skipScale returns the scale s of the geometric skip for injection rate p:
// the number of failed Bernoulli(p) trials before the next success is
// ⌊E·s⌋ with E ~ Exp(1) and s = −1/ln(1−p), because P(⌊E·s⌋ ≥ k) =
// e^(−k/s) = (1−p)^k. Rate 1 gives s = 0 (every trial succeeds); rate 0,
// and rates too small for s to be finite (below about 5.6e-309), give +Inf
// (none does).
func skipScale(rate float64) float64 { return -1 / math.Log1p(-rate) }

// nextInjector returns the first index j in (i, n) whose Bernoulli trial
// succeeds this cycle, or n when none does; s is skipScale(rate). Walking
// j = nextInjector(-1, …), nextInjector(j, …), … until n gives every one of
// the n nodes one independent trial per cycle — the law of the materialized
// simulator's per-node loop — with one ExpFloat64 per success plus one, so a
// cycle costs O(injections + 1) whatever n is. Rates 0 and 1 draw nothing.
func nextInjector(i, n int64, s float64, rng *rand.Rand) int64 {
	switch {
	case s == 0:
		return i + 1
	case math.IsInf(s, 1):
		return n
	}
	// Compared in float64, so a gap beyond int64 never reaches the
	// conversion.
	gap := math.Floor(rng.ExpFloat64() * s)
	if !(gap < float64(n-1-i)) {
		return n
	}
	return i + 1 + int64(gap)
}

// uniformDst64 draws a uniformly random destination != src over [0, n).
func uniformDst64(src, n int64, rng *rand.Rand) int64 {
	d := rng.Int63n(n - 1)
	if d >= src {
		d++
	}
	return d
}
