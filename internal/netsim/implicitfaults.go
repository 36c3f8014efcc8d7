// Degraded-mode simulation over implicit topologies: RunImplicitFaulty is
// the marriage of RunImplicit (per-node-O(1) memory, never materializes the
// graph) and RunFaulty (scheduled link/node failures and repairs mid-run).
// Where RunFaulty repairs routes by rebuilding O(N) BFS tables, the implicit
// simulator owns no tables at all: it shares a FaultSink (topo.FaultSet)
// with a fault-aware algebraic router, applies the FaultPlan to it as the
// clock passes each event, and lets the router's generator-conjugate detours
// absorb the failures in O(route length) work per affected packet. Fault
// notification is immediate — the fault set IS the topology's liveness, and
// the router's epoch check purges stale cached routes the moment it changes
// — so there is no NotifyDelay and no retransmission protocol; a packet that
// cannot be rerouted (destination dead, region disconnected, or hop budget
// exhausted) is dropped and counted rather than recovered end-to-end.
package netsim

import "fmt"

// FaultSink is the id-space liveness store shared between RunImplicitFaulty
// and a fault-aware router. It is satisfied by *topo.FaultSet; declaring it
// here keeps netsim decoupled from the topo package. Link mutations are
// directed arcs — the simulator calls both directions on undirected
// topologies.
type FaultSink interface {
	FailLink(u, v int64)
	RepairLink(u, v int64)
	FailNode(u int64)
	RepairNode(u int64)
	LinkDown(u, v int64) bool
	NodeDown(u int64) bool
	Blocked(u, v int64) bool
}

// flaggedRouter is the optional router extension that reports whether a hop
// belongs to a fault-detoured route; topo.FaultAware implements it. Without
// it, DeliveredDegraded stays zero.
type flaggedRouter interface {
	NextHopFlagged(cur, dst int64) (int64, bool, error)
}

// rerouteCounter is the optional router extension exposing cumulative
// reroute/detour-hop counters; topo.FaultAware implements it. The simulator
// snapshots the counters around the run to fill RerouteEvents and
// MisroutedHops.
type rerouteCounter interface {
	RerouteCounts() (reroutes, detourHops uint64)
}

// ImplicitFaultConfig parameterizes fault injection for RunImplicitFaulty.
type ImplicitFaultConfig struct {
	// Plan is the fault schedule (nil or empty = fault-free run). It is
	// validated against the implicit topology (ValidateTopo) — no graph is
	// ever built.
	Plan *FaultPlan
	// Faults is the liveness store the plan is applied to. It MUST be the
	// same object the fault-aware router consults (e.g. the topo.FaultSet a
	// topo.FaultAware was constructed with), otherwise packets keep routing
	// into dead components. Required whenever Plan is non-empty.
	Faults FaultSink
}

// RunImplicitFaulty executes the implicit-topology simulation under fc.Plan.
// With a nil/empty plan it is RunImplicit: same RNG stream, stat-identical
// results (the embedded Stats match field for field), and a router error or
// hop overrun aborts the run. Runs are deterministic in the configuration:
// fault application, algebraic rerouting, and packet drops consume no
// randomness.
//
// Degraded-mode semantics, mirroring RunFaulty where both have the concept:
//   - Scheduled faults (and repairs) are applied when the clock reaches
//     their cycle: link faults kill the arc (both arcs when the topology is
//     undirected), node faults kill the node and drop everything queued on
//     its outgoing links.
//   - A packet arriving at a dead node is lost.
//   - A packet stranded on a link that just died is re-routed from the
//     link's tail through the (fault-aware) router.
//   - Dead sources stay silent and dead destinations are not selected for
//     injection (the draws still happen, keeping the RNG stream aligned).
//   - A packet exceeding ImplicitConfig.MaxHops is dropped and counted
//     (HopLimitDrops + Lost) instead of aborting the run: under faults,
//     livelock-like trajectories are a property of the fault pattern, not
//     necessarily a router bug.
//   - A router that cannot produce a next hop (destination dead or region
//     disconnected) costs the packet its life: Lost++, run continues.
func RunImplicitFaulty(cfg ImplicitConfig, fc ImplicitFaultConfig) (ImplicitFaultStats, error) {
	if err := cfg.normalize(); err != nil {
		return ImplicitFaultStats{}, err
	}
	if fc.Plan.Len() > 0 && fc.Faults == nil {
		return ImplicitFaultStats{}, fmt.Errorf("netsim: a fault plan needs a FaultSink shared with the router")
	}
	if err := fc.Plan.ValidateTopo(cfg.Topo); err != nil {
		return ImplicitFaultStats{}, err
	}
	return runOneLane(&cfg, fc.Plan, fc.Faults)
}
