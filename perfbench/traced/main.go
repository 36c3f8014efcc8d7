// Command traced is the benchmark's per-layer program. It first takes the
// untraced measurement of e2e (the reference for the parity check,
// trace.overhead and sharded.scaling), then runs the workload once more with
// every layer boundary the engine calls wrapped in a timing wrapper and a
// probe attached, and prints the per-layer metrics as the last line of
// standard output. The wrappers live here, apart from the untraced program,
// so an interface change in the simulator packages costs the per-layer
// numbers only.
// See ../README.md.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/benchkit"
	"repro/internal/netsim"
	"repro/internal/symbols"
	"repro/internal/topo"
	"repro/perfbench/workload"
)

// traceDir holds the aggregated spans each traced run writes, relative to
// the directory the benchmark runs from.
const traceDir = ".bench_build/trace"

func main() {
	a, err := workload.ParseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	env := benchkit.CollectEnv()
	workload.Print(map[string]any{"env": env})
	m, err := workload.Measure(a.W, a.Seed, a.Seconds)
	res := workload.Result{Metrics: metricSet{}}
	var spans *traceFile
	if err == nil {
		spans, err = traced(a, m, res.Metrics)
	}
	if err == nil {
		err = isolated(a, res.Metrics)
	}
	if err == nil {
		err = divergence(a.Seed, res.Metrics)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	if spans != nil {
		spans.Env = env
		if werr := spans.write(); werr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", werr)
		}
	}
	res.Correct = err == nil
	res.Attempted = m.Attempted() + 2 // plus the traced run and the divergence probe
	res.Failed = m.Failed()
	workload.Print(res)
	if err != nil {
		os.Exit(1)
	}
}

// metricSet collects the per-layer metrics by name.
type metricSet map[string]workload.Metric

func (s metricSet) put(name, unit string, v float64) { s[name] = workload.Metric{Value: v, Unit: unit} }

// traceFile is the aggregated trace a traced run writes at the end.
type traceFile struct {
	Env       benchkit.Env       `json:"env"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	WallNs    int64              `json:"wall_ns"`
	Lanes     []map[string]span  `json:"lanes"` // per lane, per layer
	Module    span               `json:"module"`
	Cycles    int                `json:"cycles"`
	Hops      int64              `json:"hops"`
	WindowsUs map[string]float64 `json:"windows_us,omitempty"`
	Metrics   metricSet          `json:"metrics"`
}

func (t *traceFile) write() error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", t.Workload, t.Seed)), b, 0o644)
}

// gcSample reads the runtime's GC and CPU accounting.
func gcSample() []metrics.Sample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s
}

// traced runs the workload once with every layer wrapped, checks that it
// simulates exactly what the untraced runs did, and fills the per-layer
// metrics.
func traced(a workload.Args, m *workload.Measurement, out metricSet) (*traceFile, error) {
	w := a.W
	in, err := w.Setup(a.Seed)
	if err != nil {
		return nil, err
	}
	var lanes []*tracer
	mw := &moduleWrap{imp: in.Imp}
	pb := &probe{}
	shards := 1
	var run func() (workload.Outcome, error)
	switch w.Engine {
	case workload.Sequential, workload.Faulty:
		tr := &tracer{}
		lanes = append(lanes, tr)
		tw := &topoWrap{t: in.Imp, tr: tr}
		cfg := in.ImplicitConfig()
		cfg.Topo = tw
		cfg.ModuleOf = mw.Module
		cfg.Probe = pb
		if w.Engine == workload.Sequential {
			cfg.Router = &algWrap{r: in.Alg, tr: tr, l: layerRoute}
			run = func() (workload.Outcome, error) {
				st, err := netsim.RunImplicit(cfg)
				return workload.FromImplicit(st), err
			}
			break
		}
		fa := topo.NewFaultAware(tw, &algWrap{r: in.Alg, tr: tr, l: layerInner}, in.Faults)
		cfg.Router = &faultWrap{r: fa, tr: tr}
		run = func() (workload.Outcome, error) {
			st, err := netsim.RunImplicitFaulty(cfg, netsim.ImplicitFaultConfig{Plan: in.Plan, Faults: in.Faults})
			return workload.FromFault(st), err
		}
	case workload.Sharded:
		shards = workload.Shards
		cfg := in.ShardedConfig(shards)
		cfg.Space = mw
		cfg.Probe = pb
		cfg.NewLane = func() (netsim.Topology, netsim.Router, netsim.FaultSink, error) {
			t, r, fs, err := in.NewLane()
			if err != nil {
				return nil, nil, nil, err
			}
			imp, okT := t.(*topo.Implicit)
			alg, okR := r.(*topo.Algebraic)
			if !okT || !okR {
				return nil, nil, nil, fmt.Errorf("lane built a %T and a %T; the tracer wraps *topo.Implicit and *topo.Algebraic", t, r)
			}
			tr := &tracer{}
			lanes = append(lanes, tr)
			return &topoWrap{t: imp, tr: tr}, &algWrap{r: alg, tr: tr, l: layerRoute}, fs, nil
		}
		const defaultLanes = 64 // ShardedConfig.Lanes left at its default
		pb.lanes = defaultLanes
		pb.laneHops = make([]int64, defaultLanes)
		pb.laneOf = func(u int64) int { return int(in.Imp.Module(u) % defaultLanes) }
		pb.window = workload.OffModulePeriod // store-and-forward, one flit
		run = func() (workload.Outcome, error) {
			st, err := netsim.RunSharded(cfg)
			return workload.FromFault(st), err
		}
	}

	runtime.GC()
	g0 := gcSample()
	t0 := time.Now()
	o, err := run()
	wall := time.Since(t0)
	g1 := gcSample()
	if err != nil {
		return nil, fmt.Errorf("%s: traced run: %w", w.Name, err)
	}
	if ref := m.Warmup.Out; m.Warmup.Err == nil && o.Stats != ref.Stats {
		return nil, fmt.Errorf("%s: traced run simulated different stats than the untraced runs:\n  untraced %+v\n  traced   %+v",
			w.Name, ref.Stats, o.Stats)
	}

	// Sum the lanes. On the sharded engine the wrapped calls of the lanes
	// overlap in time, so shares are taken of wall × Shards, and the engine
	// residual includes the workers' barrier waits.
	var sum [numLayers]span
	tf := &traceFile{Workload: w.Name, Seed: a.Seed, WallNs: int64(wall), Cycles: pb.cycles, Hops: pb.hops,
		Module: span{Calls: mw.calls.Load(), TotalNs: mw.ns.Load(), SelfNs: mw.ns.Load()}}
	for _, tr := range lanes {
		perLane := map[string]span{}
		for l, s := range tr.spans {
			sum[l].Calls += s.Calls
			sum[l].TotalNs += s.TotalNs
			sum[l].SelfNs += s.SelfNs
			perLane[layerNames[l]] = s
		}
		tf.Lanes = append(tf.Lanes, perLane)
	}
	capacity := float64(wall) * float64(shards)
	residual := capacity - float64(sum[layerRoute].SelfNs+sum[layerInner].SelfNs+sum[layerNeighbors].SelfNs+tf.Module.SelfNs)
	hops := float64(pb.hops)
	put := out.put
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}

	put("engine.self_share", "ratio", residual/capacity)
	put("engine.ns_per_hop", "ns/hop", ratio(residual, hops))
	put("engine.ns_per_cycle", "ns/cycle", ratio(residual, float64(pb.cycles)))
	put("route.calls_per_hop", "calls/hop", ratio(float64(sum[layerRoute].Calls), hops))
	put("route.ns_per_call", "ns/call", ratio(float64(sum[layerRoute].TotalNs), float64(sum[layerRoute].Calls)))
	put("route.self_share", "ratio", float64(sum[layerRoute].SelfNs+sum[layerInner].SelfNs)/capacity)
	put("neighbors.calls_per_hop", "calls/hop", ratio(float64(sum[layerNeighbors].Calls), hops))
	put("neighbors.ns_per_call", "ns/call", ratio(float64(sum[layerNeighbors].TotalNs), float64(sum[layerNeighbors].Calls)))
	put("neighbors.self_share", "ratio", float64(sum[layerNeighbors].SelfNs)/capacity)
	put("module.calls_per_hop", "calls/hop", ratio(float64(tf.Module.Calls), hops))
	put("module.ns_per_call", "ns/call", ratio(float64(tf.Module.TotalNs), float64(tf.Module.Calls)))

	// Sharded engine; 0 on the sequential ones.
	var windows, p50, p99, cross, imbalance, scaling float64
	if pb.lanes > 0 {
		windows = float64((pb.cycles + pb.window - 1) / pb.window)
		p50 = workload.Quantile(pb.windowNs, 0.50) / 1e3
		p99 = workload.Quantile(pb.windowNs, 0.99) / 1e3
		cross = float64(pb.crossLane)
		var maxHops int64
		for _, h := range pb.laneHops {
			maxHops = max(maxHops, h)
		}
		imbalance = ratio(float64(maxHops), hops/float64(pb.lanes))
		scaling = ratio(m.Warmup.RunS, m.RunS())
		tf.WindowsUs = map[string]float64{"count": windows, "p50": p50, "p99": p99}
	}
	put("sharded.windows", "count", windows)
	put("sharded.window_us_p50", "us", p50)
	put("sharded.window_us_p99", "us", p99)
	put("sharded.cross_lane_share", "ratio", ratio(cross, hops))
	put("sharded.cross_lane_per_window", "pkts/window", ratio(cross, windows))
	put("sharded.lane_imbalance", "ratio", imbalance)
	put("sharded.scaling", "ratio", scaling)

	// Fault handling; 0 on the fault-free workloads.
	var faultSelf float64
	if w.Engine == workload.Faulty {
		faultSelf = float64(sum[layerRoute].SelfNs) / capacity
	}
	put("faults.self_share", "ratio", faultSelf)
	put("faults.reroutes", "count", float64(o.Reroutes))
	put("faults.detour_hops", "count", float64(o.DetourHops))
	put("faults.degraded_share", "ratio", ratio(float64(o.Degraded), float64(o.Delivered)))

	if err := fidelity(in, pb, put); err != nil {
		return nil, err
	}

	put("gc.cpu_share", "ratio", ratio(g1[0].Value.Float64()-g0[0].Value.Float64(),
		(g1[1].Value.Float64()-g0[1].Value.Float64())-(g1[2].Value.Float64()-g0[2].Value.Float64())))
	put("gc.cycles", "count", float64(g1[3].Value.Uint64()-g0[3].Value.Uint64()))
	put("trace.overhead", "ratio", wall.Seconds()/m.RunS()-1)
	tf.Metrics = out
	return tf, nil
}

// fidelity compares each measured delivered packet's hops with the length
// of its source route, from Path on a fresh router after the run.
func fidelity(in *workload.Instance, pb *probe, put func(name, unit string, v float64)) error {
	r, err := topo.NewAlgebraic(in.Net.Super())
	if err != nil {
		return err
	}
	var n, hops, stretch, over float64
	for _, p := range pb.pkts {
		if !p.measured || !p.delivered {
			continue
		}
		path, err := r.Path(p.src, p.dst)
		if err != nil {
			return fmt.Errorf("fidelity: route %d -> %d: %w", p.src, p.dst, err)
		}
		s := float64(p.hops) / float64(len(path)-1)
		n++
		hops += float64(p.hops)
		stretch += s
		if s > 1 {
			over++
		}
	}
	if n == 0 {
		return errors.New("fidelity: no measured packet was delivered")
	}
	put("fidelity.hops_per_pkt", "hops", hops/n)
	put("fidelity.stretch_mean", "ratio", stretch/n)
	put("fidelity.stretch_gt1_share", "ratio", over/n)
	return nil
}

// isolated times the layers outside the engine, on the workload's network,
// over nodes and pairs drawn from the seed.
func isolated(a workload.Args, out metricSet) error {
	in, err := a.W.Setup(a.Seed)
	if err != nil {
		return err
	}
	r, err := topo.NewAlgebraic(in.Net.Super())
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(a.Seed))
	n := in.Imp.N()
	const pairs, nodes = 2000, 20000
	src, dst := make([]int64, pairs), make([]int64, pairs)
	for i := range src {
		src[i] = rng.Int63n(n)
		dst[i] = (src[i] + 1 + rng.Int63n(n-1)) % n
	}
	ids := make([]int64, nodes)
	for i := range ids {
		ids[i] = rng.Int63n(n)
	}
	// timeLoop returns ns and heap allocations per call of f over k calls.
	timeLoop := func(k int, f func(i int) error) (float64, float64, error) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		t0 := time.Now()
		for i := 0; i < k; i++ {
			if err := f(i); err != nil {
				return 0, 0, err
			}
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&ms)
		return float64(el) / float64(k), float64(ms.Mallocs-before) / float64(k), nil
	}
	put := out.put

	ns, allocs, err := timeLoop(pairs, func(i int) error {
		_, err := r.Path(src[i], dst[i])
		return err
	})
	if err != nil {
		return fmt.Errorf("isolated Path: %w", err)
	}
	put("route.isolated_ns", "ns/call", ns)
	put("route.isolated_allocs", "allocs/call", allocs)

	var buf []int64
	ns, allocs, _ = timeLoop(nodes, func(i int) error {
		buf = in.Imp.Neighbors(ids[i], buf)
		return nil
	})
	put("neighbors.isolated_ns", "ns/call", ns)
	put("neighbors.isolated_allocs", "allocs/call", allocs)

	rk := in.Imp.Ranker()
	labels := make([]symbols.Label, nodes)
	ns, _, _ = timeLoop(nodes, func(i int) error {
		labels[i] = rk.Unrank(ids[i], labels[i])
		return nil
	})
	put("core.unrank_ns", "ns/call", ns)
	ns, _, err = timeLoop(nodes, func(i int) error {
		id, err := rk.Rank(labels[i])
		if err == nil && id != ids[i] {
			err = fmt.Errorf("Rank(Unrank(%d)) = %d", ids[i], id)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("isolated Rank: %w", err)
	}
	put("core.rank_ns", "ns/call", ns)
	return nil
}

// divergenceProbe is the sharded routing-divergence reproduction: fault-free
// RunSharded on the symmetric sym-HSN(3;Q3) at a rate the sequential engine
// delivers in full. The drain cap bounds the livelocked drain; the packets
// it leaves in flight are the expiries the metric counts.
var divergenceProbe = workload.Workload{Name: "divergence-probe", L: 3, Q: 3, Sym: true,
	Rate: 0.002, Warmup: 50, Measure: 300, Engine: workload.Sharded}

const divergenceDrain = 350

func divergence(seed int64, out metricSet) error {
	in, err := divergenceProbe.Setup(seed)
	if err != nil {
		return err
	}
	cfg := in.ShardedConfig(workload.Shards)
	cfg.DrainCycles = divergenceDrain
	st, err := netsim.RunSharded(cfg)
	if err != nil {
		return fmt.Errorf("divergence probe: %w", err)
	}
	o := workload.FromFault(st)
	if err := o.CheckConservation(); err != nil {
		return fmt.Errorf("divergence probe: %w", err)
	}
	out.put("fidelity.sym_sharded_failed_frac", "ratio", float64(o.Undelivered())/float64(o.Injected))
	return nil
}
