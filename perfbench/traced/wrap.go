package main

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/topo"
)

// layer indexes the spans a lane's tracer aggregates.
type layer int

const (
	layerRoute     layer = iota // the router handed to the engine
	layerInner                  // the PathRouter inside a FaultAware
	layerNeighbors              // Topology.Neighbors
	numLayers
)

var layerNames = [numLayers]string{"route", "route_inner", "neighbors"}

// span aggregates every call into one layer of one lane.
type span struct {
	Calls   int64 `json:"calls"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"` // total minus the time in nested wrapped calls
}

// tracer times one lane's wrapped calls. Each lane runs on one goroutine at
// a time and owns its tracer, so it needs no locking.
type tracer struct {
	spans [numLayers]span
	child []int64 // per open call: ns spent in wrapped calls nested in it
}

func (t *tracer) begin() time.Time {
	t.child = append(t.child, 0)
	return time.Now()
}

func (t *tracer) end(l layer, start time.Time) {
	d := int64(time.Since(start))
	top := len(t.child) - 1
	s := &t.spans[l]
	s.Calls++
	s.TotalNs += d
	s.SelfNs += d - t.child[top]
	t.child = t.child[:top]
	if top > 0 {
		t.child[top-1] += d
	}
}

// topoWrap times the neighbour oracle.
type topoWrap struct {
	t  *topo.Implicit
	tr *tracer
}

func (w *topoWrap) N() int64       { return w.t.N() }
func (w *topoWrap) MaxDegree() int { return w.t.MaxDegree() }
func (w *topoWrap) Directed() bool { return w.t.Directed() }
func (w *topoWrap) Neighbors(u int64, buf []int64) []int64 {
	start := w.tr.begin()
	buf = w.t.Neighbors(u, buf)
	w.tr.end(layerNeighbors, start)
	return buf
}

// algWrap times an Algebraic router, as the engine's router or as the inner
// PathRouter of a FaultAware. It forwards RouterStats, the optional
// interface the engines read from an Algebraic router.
type algWrap struct {
	r  *topo.Algebraic
	tr *tracer
	l  layer
}

func (w *algWrap) NextHop(cur, dst int64) (int64, error) {
	start := w.tr.begin()
	nh, err := w.r.NextHop(cur, dst)
	w.tr.end(w.l, start)
	return nh, err
}

func (w *algWrap) Path(src, dst int64) ([]int64, error) {
	start := w.tr.begin()
	p, err := w.r.Path(src, dst)
	w.tr.end(w.l, start)
	return p, err
}

func (w *algWrap) RouterStats() obs.RouterStats { return w.r.RouterStats() }

// faultWrap times a FaultAware router and forwards all three optional
// interfaces the engines type-assert on it: NextHopFlagged (without it
// DeliveredDegraded drops to 0), RerouteCounts and RouterStats. The
// traced-versus-untraced parity check fails if one is lost.
type faultWrap struct {
	r  *topo.FaultAware
	tr *tracer
}

func (w *faultWrap) NextHop(cur, dst int64) (int64, error) {
	nh, _, err := w.NextHopFlagged(cur, dst)
	return nh, err
}

func (w *faultWrap) NextHopFlagged(cur, dst int64) (int64, bool, error) {
	start := w.tr.begin()
	nh, detoured, err := w.r.NextHopFlagged(cur, dst)
	w.tr.end(layerRoute, start)
	return nh, detoured, err
}

func (w *faultWrap) RerouteCounts() (uint64, uint64) { return w.r.RerouteCounts() }
func (w *faultWrap) RouterStats() obs.RouterStats    { return w.r.RouterStats() }

// moduleWrap times module arithmetic: the ModuleOf function or the
// ModuleSpace handed to the engine. The sharded engine queries its space
// from every lane at once, so the counters are atomic. Module calls are
// never nested in other wrapped calls, so they need no tracer stack.
type moduleWrap struct {
	imp       *topo.Implicit
	calls, ns atomic.Int64
}

func (m *moduleWrap) done(start time.Time) {
	m.calls.Add(1)
	m.ns.Add(int64(time.Since(start)))
}

func (m *moduleWrap) Modules() int64    { return m.imp.Modules() }
func (m *moduleWrap) ModuleSize() int64 { return m.imp.ModuleSize() }

func (m *moduleWrap) Module(u int64) int64 {
	start := time.Now()
	mod := m.imp.Module(u)
	m.done(start)
	return mod
}

func (m *moduleWrap) ModuleNode(mod, off int64) int64 {
	start := time.Now()
	u := m.imp.ModuleNode(mod, off)
	m.done(start)
	return u
}

// pktRec is what the probe keeps per packet.
type pktRec struct {
	src, dst            int64
	hops                int32
	measured, delivered bool
}

// probe collects Tick times, Hop events per packet and per lane, and the
// injected (src, dst) pairs. Its hooks run on one goroutine: inline in the
// sequential engines, in the coordinator's replay on the sharded one.
type probe struct {
	obs.NopProbe
	pkts   []pktRec // by packet id
	hops   int64
	cycles int

	// Sharded engine only (lanes > 0).
	lanes     int
	laneOf    func(u int64) int
	laneHops  []int64
	crossLane int64
	window    int
	lastTick  time.Time
	windowNs  []float64 // host time per window, from the replayed Ticks
}

// Tick records cycles and, on the sharded engine, window times: the replay
// runs after each window's barrier and merge, so the gap from the last Tick
// of one window to the first Tick of the next is the next window's lane
// steps, barrier and merge (plus the replay of one cycle's events).
func (p *probe) Tick(c int) {
	p.cycles++
	if p.lanes == 0 {
		return
	}
	now := time.Now()
	if c%p.window == 0 && !p.lastTick.IsZero() {
		p.windowNs = append(p.windowNs, float64(now.Sub(p.lastTick)))
	}
	p.lastTick = now
}

func (p *probe) Inject(_ int, id int64, src, dst int64, measured bool) {
	for int64(len(p.pkts)) <= id {
		p.pkts = append(p.pkts, pktRec{})
	}
	p.pkts[id] = pktRec{src: src, dst: dst, measured: measured}
}

func (p *probe) Hop(_ int, id int64, from, to int64, _, _ int) {
	p.pkts[id].hops++
	p.hops++
	if p.lanes > 0 {
		lf := p.laneOf(from)
		p.laneHops[lf]++
		if p.laneOf(to) != lf {
			p.crossLane++
		}
	}
}

func (p *probe) Deliver(_ int, id int64, _ int64, _ int, _ bool) {
	p.pkts[id].delivered = true
}
