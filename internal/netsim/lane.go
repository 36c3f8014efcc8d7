// The lane engine: every implicit run — RunImplicit, RunImplicitFaulty and
// RunSharded — is a set of lanes, each one engine plus the hooks, routing
// oracles, RNG stream and statistics of the nodes it owns. In the paper's
// nucleus-per-module packing a lane is a set of modules. The sequential
// entry points are the one-lane case: one lane owns every node, nothing
// crosses lanes, and the engine's own loop decides when the run stops.
// RunSharded is the many-lane case, with cross-lane packets exchanged at
// window barriers (sharded.go).
//
// The entry points differ only in what they hand the lane engine — the
// lane RNG, the owned-node enumeration, the link period policy, the probe,
// the ownership map, the script — never in the hooks themselves, so a
// semantic fix to routing, delivery, drops or fault handling lands here
// once.
package netsim

import (
	"fmt"
	"math/rand"

	"repro/internal/obs"
)

// laneRun is what every lane of one implicit run shares: the clock, the
// link service policy, the injection law and the fault schedule.
type laneRun struct {
	// Set by the caller before init.
	rate                   float64
	warmup, measure, drain int
	flits                  int
	cutThrough             bool
	offPeriod              int // OffModulePeriod
	maxHops                int
	pattern                func(src, n int64, rng *rand.Rand) int64
	// plan is the fault schedule. A non-empty plan (faulty) switches the
	// fault hooks on and turns router errors and hop overruns into counted
	// drops; without one they abort the run.
	plan *FaultPlan

	// Derived by init.
	skip       float64 // skipScale(rate), the injection sampler's scale
	n          int64
	directed   bool
	total      int // warmup + measure: injection stops here
	deadline   int // total + drain: the run stops here
	faulty     bool
	changesAt  map[int][]laneChange
	lastChange int

	// Set by the caller after init. lanes is the lane count (the packet id
	// stride); laneOf maps a node to the lane owning it. A nil laneOf means
	// one lane owns every node: no packet crosses lanes and the lane's own
	// loop decides when to stop.
	ringLen int
	period  func(u, v int64) int
	lanes   int64
	laneOf  func(u int64) int
}

// init validates the caller-set fields against topology t, applies the
// defaults the implicit configurations document, and derives the rest.
func (r *laneRun) init(t Topology) error {
	if !(r.rate >= 0 && r.rate <= 1) { // NaN fails too
		return fmt.Errorf("netsim: injection rate %v out of [0,1]", r.rate)
	}
	r.skip = skipScale(r.rate)
	if r.drain == 0 {
		r.drain = 10 * (r.warmup + r.measure)
	}
	r.flits = max(r.flits, 1)
	r.offPeriod = max(r.offPeriod, 1)
	if r.maxHops < 1 {
		r.maxHops = 4096
	}
	r.n, r.directed = t.N(), t.Directed()
	r.total = r.warmup + r.measure
	r.deadline = r.total + r.drain
	r.faulty = r.plan.Len() > 0
	r.changesAt, r.lastChange = planChanges(r.plan)
	return nil
}

// drained reports whether a run past its injection window may stop at cycle
// now: no measured packet is in flight and every scheduled fault event has
// been applied.
func (r *laneRun) drained(now, inFlight int) bool {
	return inFlight == 0 && now > r.lastChange
}

// laneChange is a scheduled fault event in the form every lane applies.
type laneChange struct {
	kind FaultKind
	u, v int64
	down bool
}

// planChanges buckets the plan by cycle and returns the last event cycle
// (-1 for an empty plan). The map is built once and read concurrently.
func planChanges(p *FaultPlan) (map[int][]laneChange, int) {
	changesAt := map[int][]laneChange{}
	lastChange := -1
	for _, ev := range p.sorted() {
		changesAt[ev.Cycle] = append(changesAt[ev.Cycle], laneChange{kind: ev.Kind, u: int64(ev.U), v: int64(ev.V), down: true})
		if ev.Cycle > lastChange {
			lastChange = ev.Cycle
		}
		if ev.Transient() {
			changesAt[ev.Repair] = append(changesAt[ev.Repair], laneChange{kind: ev.Kind, u: int64(ev.U), v: int64(ev.V), down: false})
			if ev.Repair > lastChange {
				lastChange = ev.Repair
			}
		}
	}
	return changesAt, lastChange
}

// simLane is one lane: an engine plus everything it owns. The caller fills
// the fields above eng and calls build.
type simLane struct {
	idx    int
	topo   Topology
	router Router
	faults FaultSink
	rng    *rand.Rand
	pb     obs.Probe // the run's probe (one lane) or the lane's EventLog
	// nOwned nodes inject here: owned index i in [0, nOwned) is node
	// srcOf(i), or node i itself when srcOf is nil. Each makes its own
	// Bernoulli trial every injection cycle, in index order.
	nOwned int64
	srcOf  func(i int64) int64
	script []Injection // injected after each cycle's random traffic, sorted by At

	eng    *engine
	sparse *sparseLinks
	log    *obs.EventLog // sharded runs with a probe
	outbox [][]laneSend  // sharded runs: indexed by destination lane

	st         FaultStats
	latencySum int64
	inFlight   int // measured packets injected here minus measured packets retired here (may go negative; the lane sum is the global in-flight count)
	nextSeq    int64
	err        error

	statser                 routerStatser
	routerBase              obs.RouterStats
	counter                 rerouteCounter
	rerouteBase, detourBase uint64
}

// build snapshots the lane router's counters and wires the lane's engine
// hooks for run r.
func (ln *simLane) build(r *laneRun) {
	ln.sparse = newSparseLinks(ln.topo)
	ln.statser, _ = ln.router.(routerStatser)
	if ln.statser != nil {
		ln.routerBase = ln.statser.RouterStats()
	}
	ln.counter, _ = ln.router.(rerouteCounter)
	if ln.counter != nil {
		ln.rerouteBase, ln.detourBase = ln.counter.RerouteCounts()
	}
	ln.eng = &engine{
		pb:         ln.pb, // nil fast path: no obs code runs uninstrumented
		store:      ln.sparse,
		ring:       make([][]earrival, r.ringLen),
		flits:      r.flits,
		cutThrough: r.cutThrough,
		period:     r.period,
		total:      r.total,
		deadline:   r.deadline,
		hopLimit:   r.maxHops,
	}
	e, pb := ln.eng, ln.pb
	owns := func(u int64) bool { return r.laneOf == nil || r.laneOf(u) == ln.idx }

	// lose drops a packet; like RunFaulty, loss counters track measured
	// traffic only, so Injected == Delivered + Lost + Expired. The probe,
	// in contrast, sees every dropped copy (measured or not), tagged with
	// where and why it died.
	lose := func(now int, at int64, pkt *epacket, reason obs.DropReason) {
		if pkt.measured {
			ln.st.Lost++
			ln.inFlight--
		}
		if pb != nil {
			pb.Drop(now, pkt.id, at, reason)
		}
	}
	e.deliver = func(now int, at int64, pkt *epacket) {
		lat := now - pkt.born
		if pkt.measured {
			ln.st.Delivered++
			if pkt.degraded {
				ln.st.DeliveredDegraded++
			}
			ln.inFlight--
			ln.latencySum += int64(lat)
			if lat > ln.st.MaxLatency {
				ln.st.MaxLatency = lat
			}
		}
		if pb != nil {
			pb.Deliver(now, pkt.id, at, lat, pkt.measured)
		}
	}
	flagged, _ := ln.router.(flaggedRouter)
	e.route = func(now int, at int64, pkt *epacket) (int64, bool, error) {
		var nh int64
		var detoured bool
		var err error
		if r.faulty && flagged != nil {
			nh, detoured, err = flagged.NextHopFlagged(at, pkt.dst)
		} else {
			nh, err = ln.router.NextHop(at, pkt.dst)
		}
		if err != nil {
			// Without faults an algebraic router is a deterministic oracle
			// and an error is a bug. Under faults the destination may be
			// dead or its region cut off: the packet is lost, the run goes
			// on. (A non-neighbor next hop is a router bug either way: the
			// link store's hard error stops the run.)
			if !r.faulty {
				return 0, false, err
			}
			lose(now, at, pkt, obs.DropNoRoute)
			return 0, false, nil
		}
		pkt.degraded = pkt.degraded || detoured
		return nh, true, nil
	}
	// Livelock watchdog: without faults an overrun means a cycling router,
	// so the run aborts; under faults it is a property of the fault
	// pattern, so the packet dies, not the run.
	e.onHopLimit = func(now int, at int64, pkt *epacket) error {
		if !r.faulty {
			return fmt.Errorf("netsim: packet for %d exceeded %d hops at %d (router livelock?)", pkt.dst, r.maxHops, at)
		}
		if pkt.measured {
			ln.st.HopLimitDrops++
		}
		lose(now, at, pkt, obs.DropHopLimit)
		return nil
	}
	send := func(now int, src, dst int64) error {
		if r.faulty && (ln.faults.NodeDown(src) || ln.faults.NodeDown(dst)) {
			return nil // dead sources stay silent; dead sinks are skipped
		}
		measured := now >= r.warmup
		if measured {
			ln.st.Injected++
			ln.inFlight++
		}
		id := ln.nextSeq*r.lanes + int64(ln.idx) // unique and Shards-independent
		ln.nextSeq++
		if pb != nil {
			pb.Inject(now, id, src, dst, measured)
		}
		return e.enqueue(now, src, epacket{id: id, dst: dst, born: now, measured: measured})
	}
	e.inject = func(now int) error {
		n := ln.nOwned
		for i := nextInjector(-1, n, r.skip, ln.rng); i < n; i = nextInjector(i, n, r.skip, ln.rng) {
			src := i
			if ln.srcOf != nil {
				src = ln.srcOf(i)
			}
			var dst int64
			if r.pattern != nil {
				dst = r.pattern(src, r.n, ln.rng)
			} else {
				dst = uniformDst64(src, r.n, ln.rng)
			}
			if dst == src || dst < 0 || dst >= r.n {
				continue
			}
			if err := send(now, src, dst); err != nil {
				return err
			}
		}
		for len(ln.script) > 0 && ln.script[0].At == now {
			sc := ln.script[0]
			ln.script = ln.script[1:]
			if err := send(now, sc.Src, sc.Dst); err != nil {
				return err
			}
		}
		return nil
	}
	if r.laneOf == nil {
		e.canStop = func(now int) bool { return r.drained(now, ln.inFlight) }
	} else {
		e.canStop = func(int) bool { return false } // the coordinator stops runs at barriers
		e.crossSend = func(now, delay int, dst int64, pkt epacket) bool {
			d := r.laneOf(dst)
			if d == ln.idx {
				return false
			}
			ln.outbox[d] = append(ln.outbox[d], laneSend{cycle: now + delay, node: dst, pkt: pkt})
			return true
		}
	}
	if !r.faulty {
		return
	}

	// strand re-routes everything queued on a link that just died, from the
	// link's tail node; dead-node drops are handled by applyChange.
	strand := func(now int, lk *elink) error {
		for _, pkt := range lk.take() {
			if err := e.enqueue(now, lk.u, pkt); err != nil {
				return err
			}
		}
		return nil
	}
	// Every lane applies the liveness change to its own sink (the routers
	// need global knowledge); only the lane owning the affected queues
	// performs the side effects and emits the probe event. The fault-set
	// epoch bump on each change invalidates the router's cached routes.
	applyChange := func(now int, c laneChange) error {
		switch c.kind {
		case NodeFault:
			owned := owns(c.u)
			if owned && pb != nil {
				pb.Fault(now, c.u, -1, true, c.down)
			}
			if !c.down {
				ln.faults.RepairNode(c.u)
				return nil
			}
			ln.faults.FailNode(c.u)
			if owned && ln.faults.NodeDown(c.u) {
				// Everything queued on the dead node's outgoing links is
				// lost (first strike or overlapping, the queues are dead
				// either way).
				ln.sparse.eachFrom(c.u, func(lk *elink) {
					q := lk.take()
					for i := range q {
						lose(now, c.u, &q[i], obs.DropQueueKilled)
					}
				})
			}
		case LinkFault:
			if owns(c.u) && pb != nil {
				pb.Fault(now, c.u, c.v, false, c.down)
			}
			if !c.down {
				ln.faults.RepairLink(c.u, c.v)
				if !r.directed {
					ln.faults.RepairLink(c.v, c.u)
				}
				return nil
			}
			ln.faults.FailLink(c.u, c.v)
			if !r.directed {
				ln.faults.FailLink(c.v, c.u)
			}
			for _, arc := range [2][2]int64{{c.u, c.v}, {c.v, c.u}} {
				if r.directed && arc != [2]int64{c.u, c.v} {
					continue
				}
				if !owns(arc[0]) {
					continue
				}
				if lk := ln.sparse.peek(arc[0], arc[1]); lk != nil && len(lk.pending()) > 0 {
					if err := strand(now, lk); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	e.applyChanges = func(now int) error {
		for _, c := range r.changesAt[now] {
			if err := applyChange(now, c); err != nil {
				return err
			}
		}
		return nil
	}
	e.arrivalDead = func(now int, node int64, pkt *epacket) bool {
		if ln.faults.NodeDown(node) {
			lose(now, node, pkt, obs.DropDeadRouter) // arrived at a dead router
			return true
		}
		return false
	}
	// Dead tail or dead link: the queue waits for a repair (a link strike
	// re-routes it via strand; this path holds packets queued on links that
	// died while busy).
	e.blocked = func(lk *elink) bool {
		return ln.faults.NodeDown(lk.u) || ln.faults.LinkDown(lk.u, lk.v)
	}
}

// fold sums the lanes' statistics into the run's result. end is the cycle
// the run stopped at; probe is the run's own probe.
func (r *laneRun) fold(lanes []*simLane, end int, probe obs.Probe) ImplicitFaultStats {
	var out ImplicitFaultStats
	st := &out.FaultStats
	var latencySum int64
	inFlight := 0
	anyRouterStats := false
	for _, ln := range lanes {
		st.Injected += ln.st.Injected
		st.Delivered += ln.st.Delivered
		st.Lost += ln.st.Lost
		st.DeliveredDegraded += ln.st.DeliveredDegraded
		st.HopLimitDrops += ln.st.HopLimitDrops
		if ln.st.MaxLatency > st.MaxLatency {
			st.MaxLatency = ln.st.MaxLatency
		}
		latencySum += ln.latencySum
		inFlight += ln.inFlight
		if ln.counter != nil {
			re, dh := ln.counter.RerouteCounts()
			st.RerouteEvents += int(re - ln.rerouteBase)
			st.MisroutedHops += int(dh - ln.detourBase)
		}
		if ln.statser != nil {
			anyRouterStats = true
			out.Router = out.Router.Add(ln.statser.RouterStats().Delta(ln.routerBase))
		}
	}
	st.Expired = inFlight
	if st.Delivered > 0 {
		st.AvgLatency = float64(latencySum) / float64(st.Delivered)
	}
	if r.measure > 0 {
		st.Throughput = float64(st.Delivered) / float64(r.n) / float64(r.measure)
	}
	// Every lane applied the same events at the same cycles, so the fault
	// event counts follow from the plan and the stop cycle.
	for _, ev := range r.plan.sorted() {
		if ev.Cycle < end {
			st.FaultsInjected++
		}
		if ev.Transient() && ev.Repair < end {
			st.FaultsRepaired++
		}
	}
	st.fillQuantiles(probe)
	if anyRouterStats {
		if ro, ok := probe.(obs.RouterObserver); ok {
			ro.ObserveRouter(out.Router)
		}
	}
	return out
}
