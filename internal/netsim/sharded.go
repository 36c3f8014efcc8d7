// Sharded parallel simulation: RunSharded partitions an implicit topology's
// nodes by module id into fixed logical lanes, runs one engine per lane, and
// executes the lanes on Shards worker goroutines under a conservative
// lookahead window — classic conservative parallel discrete-event simulation
// with the window set to the minimum cross-lane link delay. Because lanes
// (not workers) own all mutable state — link FIFOs, arrival rings, RNG
// streams, routers, fault sets, statistics, probe buffers — and cross-lane
// packets are exchanged only at window barriers in a fixed (destination
// lane, source lane, FIFO order) merge, the results are bit-for-bit
// identical for every Shards value: Shards chooses how many lanes run at
// once, never what they compute. TestShardedDeterminism pins this.
//
// The window works because lanes partition modules: every cross-lane link
// crosses a module boundary, so its delay is exactly OffModulePeriod (cut-
// through) or OffModulePeriod*Flits (store-and-forward) cycles, and a packet
// transmitted during window k cannot arrive before window k+1 begins. Intra-
// lane traffic never waits for a barrier.
//
// The lanes are those of the lane engine (lane.go) that RunImplicit and
// RunImplicitFaulty run as a single lane: the hooks — routing, delivery,
// drops, fault application — are the same code. What the many-lane run
// changes is the RNG (one splitmix64-derived stream per lane instead of
// Seed's own stream), the source enumeration (each lane draws over the
// nodes of its modules), the stop test (at window barriers rather than every
// cycle) and the probe (buffered per lane and replayed). So a sharded run
// is not packet-for-packet comparable with RunImplicit, and its Lanes value
// is part of its identity; what it preserves is the model: same injection
// law per node, same routing, same link service, same fault semantics.
package netsim

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/obs"
)

// ModuleSpace is the closed-form module partition the sharded simulator
// shards by: a dense module id space with uniform module size and an O(1)
// inverse enumeration. topo.Implicit (nucleus-per-module packing) and
// topo.SubcubeSpace (hypercube subcubes) implement it. Implementations must
// be safe for concurrent use — every lane queries the space while routing
// cross-lane traffic.
type ModuleSpace interface {
	// Modules returns the module count M_total; ids are dense in [0, M_total).
	Modules() int64
	// Module returns the module id of node u.
	Module(u int64) int64
	// ModuleSize returns the uniform node count of every module.
	ModuleSize() int64
	// ModuleNode returns the off-th node of module mod, off in
	// [0, ModuleSize()); enumerating off yields each member exactly once.
	ModuleNode(mod, off int64) int64
}

// identitySpace is the degenerate partition used when no ModuleSpace is
// configured: every node is its own module (and all links have period 1,
// mirroring ImplicitConfig.ModuleOf == nil).
type identitySpace struct{ n int64 }

func (s identitySpace) Modules() int64              { return s.n }
func (s identitySpace) Module(u int64) int64        { return u }
func (s identitySpace) ModuleSize() int64           { return 1 }
func (s identitySpace) ModuleNode(m, _ int64) int64 { return m }

// ShardedConfig parameterizes RunSharded.
type ShardedConfig struct {
	// NewLane builds one lane's private simulation oracles: the topology,
	// the router, and (for faulty runs) the fault sink the router consults.
	// It is called Lanes times, because none of the three is required to be
	// safe for concurrent use — each lane owns its own instances (e.g. one
	// topo.NewImplicit + topo.NewFaultAware + topo.NewFaultSet triple per
	// call). Fault-free runs may return a nil FaultSink.
	NewLane func() (Topology, Router, FaultSink, error)
	// Space is the module partition to shard by; lane(u) = Module(u) %
	// Lanes. Links crossing a module boundary cost OffModulePeriod, links
	// inside a module cost 1. Nil means no module structure: every link has
	// period 1 and nodes are dealt to lanes round-robin by id.
	Space ModuleSpace
	// InjectionRate, WarmupCycles, MeasureCycles, DrainCycles, Seed, Flits,
	// CutThrough, OffModulePeriod, MaxHops as in ImplicitConfig. Seed is
	// split into per-lane streams, so two runs differing only in Shards
	// draw identical randomness.
	InjectionRate                            float64
	WarmupCycles, MeasureCycles, DrainCycles int
	Seed                                     int64
	Flits                                    int
	CutThrough                               bool
	OffModulePeriod                          int
	MaxHops                                  int
	// Shards is the worker goroutine count (default 1). Any value from 1
	// to Lanes produces identical results; values above Lanes are clamped.
	Shards int
	// Lanes is the logical partition count (default 64). It IS part of the
	// run's identity: changing Lanes re-deals nodes to RNG streams and
	// changes results; changing Shards never does.
	Lanes int
	// Plan schedules faults as in ImplicitFaultConfig (nil/empty =
	// fault-free). Every lane applies the full plan to its own FaultSink at
	// the scheduled cycles — liveness is global knowledge — while queue
	// kills and stranded-packet re-routes happen only in the owning lane.
	Plan *FaultPlan
	// Pattern as in ImplicitConfig; it must depend only on its arguments
	// (it is called from concurrent lanes with per-lane RNGs).
	Pattern func(src int64, n int64, rng *rand.Rand) int64
	// Probe observes the run. Lanes buffer their events privately
	// (obs.EventLog) and the coordinator replays them between windows —
	// Tick(c), then each lane's cycle-c events in lane order — so the
	// probe runs on one goroutine and sees one deterministic sequence
	// regardless of Shards.
	Probe obs.Probe
}

func (cfg *ShardedConfig) normalize() error {
	if cfg.NewLane == nil {
		return fmt.Errorf("netsim: sharded runs need a NewLane factory")
	}
	if cfg.Lanes < 1 {
		cfg.Lanes = 64
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Shards > cfg.Lanes {
		cfg.Shards = cfg.Lanes
	}
	return nil
}

// laneSeed splits the run seed into per-lane streams (splitmix64 finalizer:
// well-mixed, collision-free in the lane index).
func laneSeed(seed int64, lane int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(lane+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// laneSend is one cross-lane packet in a lane's outbox: deliver pkt to node
// at the given cycle, in the destination lane's ring.
type laneSend struct {
	cycle int
	node  int64
	pkt   epacket
}

// RunSharded executes the implicit-topology simulation partitioned into
// cfg.Lanes lanes on cfg.Shards workers. Results are deterministic in the
// configuration minus Shards: for fixed everything-else, every Shards value
// produces identical ImplicitFaultStats and an identical probe event
// sequence. With a nil/empty Plan the fault machinery is disabled and the
// run mirrors RunImplicit's semantics; with a plan it mirrors
// RunImplicitFaulty's (drops counted, no retransmission).
func RunSharded(cfg ShardedConfig) (ImplicitFaultStats, error) {
	var out ImplicitFaultStats
	if err := cfg.normalize(); err != nil {
		return out, err
	}
	faulty := cfg.Plan.Len() > 0

	lanes := make([]*simLane, cfg.Lanes)
	for i := range lanes {
		t, r, fs, err := cfg.NewLane()
		if err != nil {
			return out, fmt.Errorf("netsim: lane %d: %w", i, err)
		}
		if t == nil || r == nil {
			return out, fmt.Errorf("netsim: lane %d: NewLane returned a nil topology or router", i)
		}
		if faulty && fs == nil {
			return out, fmt.Errorf("netsim: lane %d: a fault plan needs a FaultSink shared with the lane's router", i)
		}
		lanes[i] = &simLane{idx: i, topo: t, router: r, faults: fs}
	}
	n := lanes[0].topo.N()
	if n < 2 {
		return out, fmt.Errorf("netsim: need a topology with at least 2 nodes")
	}
	for _, ln := range lanes[1:] {
		if ln.topo.N() != n {
			return out, fmt.Errorf("netsim: lane %d topology has %d nodes, lane 0 has %d", ln.idx, ln.topo.N(), n)
		}
	}
	if err := cfg.Plan.ValidateTopo(lanes[0].topo); err != nil {
		return out, err
	}

	space := cfg.Space
	if space == nil {
		space = identitySpace{n: n}
	}
	if space.Modules()*space.ModuleSize() != n {
		return out, fmt.Errorf("netsim: module space covers %d*%d nodes, topology has %d",
			space.Modules(), space.ModuleSize(), n)
	}
	run := &laneRun{rate: cfg.InjectionRate, warmup: cfg.WarmupCycles, measure: cfg.MeasureCycles,
		drain: cfg.DrainCycles, flits: cfg.Flits, cutThrough: cfg.CutThrough,
		offPeriod: cfg.OffModulePeriod, maxHops: cfg.MaxHops, pattern: cfg.Pattern, plan: cfg.Plan}
	if err := run.init(lanes[0].topo); err != nil {
		return out, err
	}
	L := int64(cfg.Lanes)
	run.lanes = L
	run.laneOf = func(u int64) int { return int(space.Module(u) % L) }
	run.period = func(u, v int64) int {
		if cfg.Space == nil || space.Module(u) == space.Module(v) {
			return 1
		}
		return run.offPeriod
	}
	// The conservative lookahead: every cross-lane link crosses a module
	// boundary, so its delay is exactly this many cycles and arrivals from
	// window k land in window k+1 or later.
	crossPeriod := 1
	if cfg.Space != nil {
		crossPeriod = run.offPeriod
	}
	window := crossPeriod
	if !run.cutThrough {
		window *= run.flits
	}
	run.ringLen = crossPeriod*run.flits + 1
	total, deadline := run.total, run.deadline
	M, S := space.Modules(), space.ModuleSize()

	for _, ln := range lanes {
		base := int64(ln.idx)
		ln.rng = rand.New(rand.NewSource(laneSeed(cfg.Seed, ln.idx)))
		ln.outbox = make([][]laneSend, cfg.Lanes)
		if base < M {
			ln.nOwned = ((M-1-base)/L + 1) * S
		}
		ln.srcOf = func(i int64) int64 { return space.ModuleNode(base+(i/S)*L, i%S) }
		if cfg.Probe != nil {
			ln.log = &obs.EventLog{}
			ln.pb = ln.log
		}
		ln.build(run)
	}

	// The window loop: lanes run [start, end) in parallel, then the
	// coordinator merges cross-lane outboxes in (destination lane, source
	// lane, FIFO) order, replays the probe, and decides termination.
	start := 0
	for start < deadline {
		if start >= total {
			inFlight := 0
			for _, ln := range lanes {
				inFlight += ln.inFlight
			}
			if run.drained(start, inFlight) {
				break
			}
		}
		end := start + window
		if end > deadline {
			end = deadline
		}
		if cfg.Shards == 1 {
			for _, ln := range lanes {
				ln.runWindow(start, end)
			}
		} else {
			var wg sync.WaitGroup
			for w := 0; w < cfg.Shards; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for li := w; li < cfg.Lanes; li += cfg.Shards {
						lanes[li].runWindow(start, end)
					}
				}(w)
			}
			wg.Wait()
		}
		for _, ln := range lanes {
			if ln.err != nil {
				return out, ln.err
			}
		}
		for _, dst := range lanes {
			for _, src := range lanes {
				box := src.outbox[dst.idx]
				for _, snd := range box {
					slot := snd.cycle % run.ringLen
					dst.eng.ring[slot] = append(dst.eng.ring[slot], earrival{node: snd.node, pkt: snd.pkt})
				}
				src.outbox[dst.idx] = box[:0]
			}
		}
		if cfg.Probe != nil {
			for c := start; c < end; c++ {
				cfg.Probe.Tick(c)
				for _, ln := range lanes {
					ln.log.ReplayCycle(c, cfg.Probe)
				}
			}
			for _, ln := range lanes {
				ln.log.Reset()
			}
		}
		start = end
	}

	return run.fold(lanes, start, cfg.Probe), nil
}

// runWindow steps the lane's engine through cycles [start, end); an error
// parks in ln.err for the coordinator (lane errors must not tear down other
// lanes mid-window).
func (ln *simLane) runWindow(start, end int) {
	if ln.err != nil {
		return
	}
	for c := start; c < end; c++ {
		if _, err := ln.eng.step(c); err != nil {
			ln.err = err
			return
		}
	}
}
