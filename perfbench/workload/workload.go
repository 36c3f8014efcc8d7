// Package workload defines the benchmark's whole-run workloads and runs them
// untraced: it builds each network through the public entry points that
// `simulate -implicit` uses (superip spec → topo.NewImplicit /
// topo.NewAlgebraic / topo.NewFaultAware → netsim.RunImplicit / RunSharded /
// RunImplicitFaulty), times set-up and run separately, checks the simulated
// statistics, and reduces the repeats to the end-to-end metrics.
//
// The traced program (../traced) reuses Setup and the config constructors here and
// only swaps in its wrappers, so the two programs simulate the same model.
package workload

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/netsim"
	"repro/internal/superip"
	"repro/internal/topo"
)

// Engine selects the netsim entry point a workload runs on.
type Engine int

const (
	Sequential Engine = iota // RunImplicit + Algebraic
	Sharded                  // RunSharded, one Implicit + Algebraic per lane
	Faulty                   // RunImplicitFaulty + FaultAware over Algebraic
)

// Model constants shared by every workload: off-module links take 4 cycles,
// packets are one flit, store-and-forward.
const (
	OffModulePeriod = 4
	// Shards is the worker count of the sharded workload, matching the two
	// vCPUs of the box the seed numbers were measured on.
	Shards = 2
)

// Workload is one batch simulation: a super-IP network, an engine and an
// open-loop Bernoulli injection rate with uniform destinations.
type Workload struct {
	Name            string
	L, Q            int  // HSN(L; Q_Q)
	Sym             bool // symmetric (Cayley) variant
	Rate            float64
	Warmup, Measure int
	Engine          Engine
}

// All lists the workloads; README.md says why each was chosen.
var All = []Workload{
	{Name: "uniform-seq", L: 2, Q: 5, Rate: 0.02, Warmup: 200, Measure: 4000, Engine: Sequential},
	{Name: "uniform-sharded", L: 2, Q: 5, Rate: 0.02, Warmup: 200, Measure: 4000, Engine: Sharded},
	{Name: "light-sym", L: 3, Q: 4, Sym: true, Rate: 0.00005, Warmup: 200, Measure: 4000, Engine: Sequential},
	{Name: "faults-sym", L: 3, Q: 3, Sym: true, Rate: 0.01, Warmup: 200, Measure: 2000, Engine: Faulty},
}

// ByName returns the named workload.
func ByName(name string) (Workload, error) {
	for _, w := range All {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Net returns the workload's super-IP specification.
func (w Workload) Net() *superip.Net {
	net := superip.HSN(w.L, superip.NucleusHypercube(w.Q))
	if w.Sym {
		net = net.SymmetricVariant()
	}
	return net
}

// Fault process of the faulty workload (the plan seed is the workload seed).
const (
	faultMTBF         = 100
	faultRepair       = 300
	faultNodeFraction = 0.25
)

// Instance is everything a workload builds before the run call.
type Instance struct {
	W    Workload
	Seed int64
	Net  *superip.Net
	Imp  *topo.Implicit
	Alg  *topo.Algebraic // nil on the sharded engine: lanes build their own
	// Faulty engine only.
	Faults *topo.FaultSet
	Plan   *netsim.FaultPlan
	Router netsim.Router // Alg, or the FaultAware wrapper around it
}

// Setup builds the spec, the implicit topology, the router, and for the
// faulty workload the fault set and the fault plan.
func (w Workload) Setup(seed int64) (*Instance, error) {
	in := &Instance{W: w, Seed: seed, Net: w.Net()}
	var err error
	if in.Imp, err = topo.NewImplicit(in.Net.Super()); err != nil {
		return nil, err
	}
	if w.Engine == Sharded {
		return in, nil
	}
	if in.Alg, err = topo.NewAlgebraic(in.Net.Super()); err != nil {
		return nil, err
	}
	in.Router = in.Alg
	if w.Engine == Faulty {
		in.Plan, err = netsim.RandomFaults{
			MTBF:         faultMTBF,
			RepairTime:   faultRepair,
			NodeFraction: faultNodeFraction,
			Start:        w.Warmup,
			Horizon:      w.Warmup + w.Measure,
			Seed:         seed,
		}.PlanTopo(in.Imp)
		if err != nil {
			return nil, err
		}
		in.Faults = topo.NewFaultSet()
		in.Router = topo.NewFaultAware(in.Imp, in.Alg, in.Faults)
	}
	return in, nil
}

// ImplicitConfig is the sequential engines' configuration.
func (in *Instance) ImplicitConfig() netsim.ImplicitConfig {
	return netsim.ImplicitConfig{
		Topo:            in.Imp,
		Router:          in.Router,
		ModuleOf:        in.Imp.Module,
		OffModulePeriod: OffModulePeriod,
		InjectionRate:   in.W.Rate,
		WarmupCycles:    in.W.Warmup,
		MeasureCycles:   in.W.Measure,
		Seed:            in.Seed,
	}
}

// NewLane builds one lane's private topology and router, as `simulate
// -implicit -shards` does.
func (in *Instance) NewLane() (netsim.Topology, netsim.Router, netsim.FaultSink, error) {
	t, err := topo.NewImplicit(in.Net.Super())
	if err != nil {
		return nil, nil, nil, err
	}
	r, err := topo.NewAlgebraic(in.Net.Super())
	if err != nil {
		return nil, nil, nil, err
	}
	return t, r, nil, nil
}

// ShardedConfig is the sharded engine's configuration (default 64 lanes).
func (in *Instance) ShardedConfig(shards int) netsim.ShardedConfig {
	return netsim.ShardedConfig{
		NewLane:         in.NewLane,
		Space:           in.Imp,
		OffModulePeriod: OffModulePeriod,
		InjectionRate:   in.W.Rate,
		WarmupCycles:    in.W.Warmup,
		MeasureCycles:   in.W.Measure,
		Seed:            in.Seed,
		Shards:          shards,
	}
}

// Run executes the workload untraced. shards is used by the sharded engine
// only.
func (in *Instance) Run(shards int) (Outcome, error) {
	switch in.W.Engine {
	case Sequential:
		st, err := netsim.RunImplicit(in.ImplicitConfig())
		return FromImplicit(st), err
	case Sharded:
		st, err := netsim.RunSharded(in.ShardedConfig(shards))
		return FromFault(st), err
	default:
		st, err := netsim.RunImplicitFaulty(in.ImplicitConfig(),
			netsim.ImplicitFaultConfig{Plan: in.Plan, Faults: in.Faults})
		return FromFault(st), err
	}
}

// Outcome is a run's simulated result: the engine's full stats value
// (comparable with ==) plus the fields the checks and metrics read.
type Outcome struct {
	Stats                                         any
	Injected, Delivered, Expired, Lost            int
	HopLimitDrops, Degraded, Reroutes, DetourHops int
	AvgLatency                                    float64
}

// FromImplicit summarizes a RunImplicit result.
func FromImplicit(st netsim.ImplicitStats) Outcome {
	return Outcome{Stats: st, Injected: st.Injected, Delivered: st.Delivered,
		Expired: st.Expired, AvgLatency: st.AvgLatency}
}

// FromFault summarizes a RunImplicitFaulty or RunSharded result.
func FromFault(st netsim.ImplicitFaultStats) Outcome {
	return Outcome{Stats: st, Injected: st.Injected, Delivered: st.Delivered,
		Expired: st.Expired, Lost: st.Lost, HopLimitDrops: st.HopLimitDrops,
		Degraded: st.DeliveredDegraded, Reroutes: st.RerouteEvents, DetourHops: st.MisroutedHops,
		AvgLatency: st.AvgLatency}
}

// Undelivered counts measured packets that expired, were lost, or were
// dropped at the hop limit (a subset of Lost).
func (o Outcome) Undelivered() int { return o.Expired + o.Lost }

// CheckConservation applies the packet conservation laws documented on
// netsim.Stats (Injected == Delivered + Expired) and netsim.FaultStats
// (Lost added; HopLimitDrops ⊆ Lost; DeliveredDegraded ⊆ Delivered).
func (o Outcome) CheckConservation() error {
	if o.Injected != o.Delivered+o.Expired+o.Lost {
		return fmt.Errorf("conservation: injected %d != delivered %d + expired %d + lost %d",
			o.Injected, o.Delivered, o.Expired, o.Lost)
	}
	if o.HopLimitDrops > o.Lost || o.Degraded > o.Delivered {
		return fmt.Errorf("conservation: hop-limit drops %d > lost %d or degraded %d > delivered %d",
			o.HopLimitDrops, o.Lost, o.Degraded, o.Delivered)
	}
	if o.Injected == 0 {
		return fmt.Errorf("conservation: no measured packet was injected")
	}
	return nil
}

// Sample is one run and the set-ups timed before it.
type Sample struct {
	SetupS  []float64
	RunS    float64
	Mallocs uint64
	Out     Outcome
	Err     error // the run call's error; Out is then meaningless
}

// DeliveredFrac is delivered ÷ injected measured packets; a run that
// returned an error scores 0.
func (s Sample) DeliveredFrac() float64 {
	if s.Err != nil || s.Out.Injected == 0 {
		return 0
	}
	return float64(s.Out.Delivered) / float64(s.Out.Injected)
}

// Measurement is one invocation's untraced runs.
type Measurement struct {
	W Workload
	// Timed holds the timed repeats. Warmup is the untimed first run: on
	// the sharded engine it runs at Shards 1 (the shard-parity reference),
	// elsewhere it is a repeat of the timed configuration.
	Timed  []Sample
	Warmup Sample
}

// setupsPerRun is how many set-ups are timed before each run. A set-up
// takes well under a millisecond, so its median needs many, and spreading
// them over the invocation exposes them to the same host as the runs.
const setupsPerRun = 50

// minTimed is the fewest timed repeats a measurement takes, whatever
// --seconds says: the median needs three.
const minTimed = 3

// once times setupsPerRun set-ups, then runs the last instance and times
// the run. A fresh set-up per run matters: routers keep per-packet route
// caches that would otherwise carry over between runs.
func once(w Workload, seed int64, shards int) (Sample, error) {
	var s Sample
	var in *Instance
	for i := 0; i < setupsPerRun; i++ {
		t0 := time.Now()
		var err error
		if in, err = w.Setup(seed); err != nil {
			return s, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		s.SetupS = append(s.SetupS, time.Since(t0).Seconds())
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	t0 := time.Now()
	out, runErr := in.Run(shards)
	s.RunS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms)
	s.Mallocs = ms.Mallocs - before
	s.Out, s.Err = out, runErr
	return s, nil
}

// Measure runs the workload for at least `seconds` of timed repeats after
// one warm-up run, checking every run. A non-nil error is a failed check
// (or a failed set-up); the measurement so far is returned with it.
func Measure(w Workload, seed int64, seconds float64) (*Measurement, error) {
	m := &Measurement{W: w}
	warmShards := Shards
	if w.Engine == Sharded {
		warmShards = 1
	}
	var err error
	if m.Warmup, err = once(w, seed, warmShards); err != nil {
		return m, err
	}
	fmt.Fprintf(os.Stderr, "%s warm-up (shards %d): run %.4fs\n", w.Name, warmShards, m.Warmup.RunS)
	if err := m.check(m.Warmup); err != nil {
		return m, err
	}
	start := time.Now()
	for len(m.Timed) < minTimed || time.Since(start).Seconds() < seconds {
		s, err := once(w, seed, Shards)
		if err != nil {
			return m, err
		}
		m.Timed = append(m.Timed, s)
		fmt.Fprintf(os.Stderr, "%s repeat %d: run %.4fs\n", w.Name, len(m.Timed), s.RunS)
		if err := m.check(s); err != nil {
			return m, err
		}
	}
	return m, nil
}

// check validates one run: conservation, and identical simulated stats to
// the warm-up run. On the sharded engine the warm-up ran at Shards 1, so
// this is also the engine's documented shard-count invariance.
func (m *Measurement) check(s Sample) error {
	if s.Err != nil {
		return nil // counted in Failed and scored in delivered_frac
	}
	if err := s.Out.CheckConservation(); err != nil {
		return fmt.Errorf("%s: %w", m.W.Name, err)
	}
	if m.Warmup.Err == nil && s.Out.Stats != m.Warmup.Out.Stats {
		return fmt.Errorf("%s: simulated stats differ between runs at one seed:\n  %+v\n  %+v",
			m.W.Name, m.Warmup.Out.Stats, s.Out.Stats)
	}
	return nil
}

// Attempted and Failed count the invocation's simulation runs and the ones
// whose run call returned an error.
func (m *Measurement) Attempted() int { return 1 + len(m.Timed) }

func (m *Measurement) Failed() int {
	n := 0
	for _, s := range append([]Sample{m.Warmup}, m.Timed...) {
		if s.Err != nil {
			n++
		}
	}
	return n
}

// RunS is the median host time of the timed run calls.
func (m *Measurement) RunS() float64 {
	return median(collect(m.Timed, func(s Sample) float64 { return s.RunS }))
}

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// EndToEnd reduces the measurement to the end-to-end metrics.
func (m *Measurement) EndToEnd() map[string]Metric {
	setups := append([]float64(nil), m.Warmup.SetupS...)
	var pktsPerS, allocsPerPkt []float64
	for _, s := range m.Timed {
		setups = append(setups, s.SetupS...)
		if s.Err != nil || s.Out.Delivered == 0 {
			pktsPerS = append(pktsPerS, 0)
			continue
		}
		pktsPerS = append(pktsPerS, float64(s.Out.Delivered)/s.RunS)
		allocsPerPkt = append(allocsPerPkt, float64(s.Mallocs)/float64(s.Out.Delivered))
	}
	return map[string]Metric{
		"setup_s":             {median(setups), "s"},
		"run_s":               {m.RunS(), "s"},
		"pkts_per_s":          {median(pktsPerS), "1/s"},
		"allocs_per_pkt":      {median(allocsPerPkt), "count"},
		"peak_rss_mib":        {PeakRSSMiB(), "MiB"},
		"delivered_frac":      {median(collect(m.Timed, Sample.DeliveredFrac)), "ratio"},
		"latency_mean_cycles": {median(collect(m.Timed, func(s Sample) float64 { return s.Out.AvgLatency })), "cycles"},
	}
}

func collect(ss []Sample, f func(Sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Quantile of xs by linear interpolation, q in [0,1] (0 for none).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// PeakRSSMiB is the process's peak resident set size.
func PeakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Result is the benchmark's last line of output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Print writes v as one JSON line to standard output.
func Print(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// Args are the command-line arguments both programs take.
type Args struct {
	W       Workload
	Seed    int64
	Seconds float64
	Trace   int
}

// ParseArgs parses --workload, --seed, --seconds and --trace.
func ParseArgs(args []string) (Args, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: uniform-seq, uniform-sharded, light-sym or faults-sym")
	seed := fs.Int64("seed", 1, "workload seed (traffic and fault plan)")
	secs := fs.Float64("seconds", 10, "timed seconds of repeats")
	trace := fs.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return Args{}, err
	}
	w, err := ByName(*name)
	if err != nil {
		return Args{}, err
	}
	if *trace != 0 && *trace != 1 || *secs <= 0 {
		return Args{}, fmt.Errorf("--trace must be 0 or 1 and --seconds positive")
	}
	return Args{W: w, Seed: *seed, Seconds: *secs, Trace: *trace}, nil
}
