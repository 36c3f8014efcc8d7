package benchkit

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Alpha is the significance threshold for the Mann-Whitney test: deltas
// with p < Alpha earn a '*' marker and are eligible to trip the gate.
const Alpha = 0.05

// minSamplesForTest is the per-side sample floor below which the rank test
// has no power (with 3 vs 3 the best achievable two-sided p is 0.1); under
// it the gate falls back to comparing medians alone.
const minSamplesForTest = 4

// Delta is one (benchmark, metric) comparison between two runs.
type Delta struct {
	Name   string
	Metric string
	Old    Stat
	New    Stat
	Pct    float64 // (new.median - old.median) / old.median * 100
	P      float64 // Mann-Whitney p-value; NaN when not computable
}

// Significant reports whether the delta passed the rank test at Alpha.
func (d Delta) Significant() bool { return !math.IsNaN(d.P) && d.P < Alpha }

// tested reports whether both sides had enough samples for the rank test
// to be meaningful.
func (d Delta) tested() bool {
	return d.Old.N >= minSamplesForTest && d.New.N >= minSamplesForTest && !math.IsNaN(d.P)
}

// Diff compares two runs metric-by-metric over the benchmarks they share.
// Restrict the metric set with metrics (nil = every shared metric).
// Results come back sorted by benchmark name then metric rank.
func Diff(old, new *Run, metrics []string) []Delta {
	want := map[string]bool{}
	for _, m := range metrics {
		want[m] = true
	}
	var deltas []Delta
	for i := range new.Results {
		nr := &new.Results[i]
		or := old.Result(nr.Name)
		if or == nil {
			continue
		}
		for _, unit := range metricUnits(nr.Samples) {
			if len(want) > 0 && !want[unit] {
				continue
			}
			os, ok := or.Summary[unit]
			if !ok {
				continue
			}
			ns := nr.Summary[unit]
			d := Delta{
				Name: nr.Name, Metric: unit, Old: os, New: ns,
				P: MannWhitneyU(metricValues(or.Samples, unit), metricValues(nr.Samples, unit)),
			}
			if os.Median != 0 {
				d.Pct = (ns.Median - os.Median) / os.Median * 100
			} else if ns.Median != 0 {
				d.Pct = math.Inf(1)
			}
			deltas = append(deltas, d)
		}
	}
	sort.Slice(deltas, func(i, j int) bool {
		if deltas[i].Name != deltas[j].Name {
			return deltas[i].Name < deltas[j].Name
		}
		return unitRank(deltas[i].Metric) < unitRank(deltas[j].Metric)
	})
	return deltas
}

// FormatTable renders deltas as the ASCII table cmd/bench prints:
//
//	benchmark            metric     old           new           delta     p
//	AllPairsHSN3Q4       ns/op      12.3M ± 2%    14.1M ± 3%    +14.6%    0.008 *
//
// '*' marks statistically significant deltas (p < Alpha), '~' marks
// indistinguishable ones, and '?' means too few samples to test.
func FormatTable(w io.Writer, deltas []Delta) {
	if len(deltas) == 0 {
		fmt.Fprintln(w, "no shared benchmarks to compare")
		return
	}
	nameW := len("benchmark")
	for _, d := range deltas {
		if len(d.Name) > nameW {
			nameW = len(d.Name)
		}
	}
	fmt.Fprintf(w, "%-*s  %-10s %-13s %-13s %-9s %s\n",
		nameW, "benchmark", "metric", "old", "new", "delta", "p")
	for _, d := range deltas {
		mark := "~"
		switch {
		case !d.tested():
			mark = "?"
		case d.Significant():
			mark = "*"
		}
		p := "n/a"
		if !math.IsNaN(d.P) {
			p = strconv.FormatFloat(d.P, 'f', 3, 64)
		}
		fmt.Fprintf(w, "%-*s  %-10s %-13s %-13s %-9s %s %s\n",
			nameW, d.Name, d.Metric,
			statCell(d.Old), statCell(d.New),
			fmt.Sprintf("%+.1f%%", d.Pct), p, mark)
	}
}

func statCell(s Stat) string {
	if s.N == 0 {
		return "-"
	}
	cell := siValue(s.Median)
	if s.N > 1 && s.Median != 0 {
		cell += fmt.Sprintf(" ±%.0f%%", s.Stddev/math.Abs(s.Median)*100)
	}
	return cell
}

// siValue prints a metric value compactly with an SI magnitude suffix.
func siValue(v float64) string {
	abs := math.Abs(v)
	switch {
	case abs >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case abs >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case abs >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	case abs == 0 || abs >= 1:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Budget is one regression budget: benchmarks whose name matches Pattern
// may not slow down (grow their Metric) by more than MaxPct percent.
type Budget struct {
	Pattern *regexp.Regexp
	Metric  string // "" = ns/op
	MaxPct  float64
}

// ParseBudgets parses a -gate spec: comma-separated `pattern:+N%` entries,
// each optionally naming a metric as `pattern:metric:+N%`.
//
//	AllPairs.*:+10%
//	Netsim:+5%,Routing:allocs/op:+0%
//
// The pattern is a Go regexp matched (unanchored, like -bench) against the
// benchmark name without its "Benchmark" prefix.
func ParseBudgets(spec string) ([]Budget, error) {
	var budgets []Budget
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("benchkit: bad gate entry %q (want pattern:+N%% or pattern:metric:+N%%)", entry)
		}
		re, err := regexp.Compile(parts[0])
		if err != nil {
			return nil, fmt.Errorf("benchkit: bad gate pattern %q: %w", parts[0], err)
		}
		b := Budget{Pattern: re, Metric: "ns/op"}
		if len(parts) == 3 {
			b.Metric = parts[1]
		}
		pctStr := strings.TrimSuffix(strings.TrimPrefix(parts[len(parts)-1], "+"), "%")
		pct, err := strconv.ParseFloat(pctStr, 64)
		if err != nil || pct < 0 {
			return nil, fmt.Errorf("benchkit: bad gate budget %q (want +N%%)", parts[len(parts)-1])
		}
		b.MaxPct = pct
		budgets = append(budgets, b)
	}
	if len(budgets) == 0 {
		return nil, fmt.Errorf("benchkit: empty gate spec")
	}
	return budgets, nil
}

// Violation is a delta that broke its budget.
type Violation struct {
	Delta
	Budget Budget
}

func (v Violation) String() string {
	return fmt.Sprintf("%s %s regressed %+.1f%% (budget +%.0f%%, p=%.3f)",
		v.Name, v.Metric, v.Pct, v.Budget.MaxPct, v.P)
}

// Gate applies budgets to deltas. A delta violates its budget when its
// median regression exceeds MaxPct AND the regression is statistically
// significant — or, when either run carries too few samples for the rank
// test to have power, when the median delta alone exceeds the budget.
// Improvements (negative deltas) never violate.
func Gate(deltas []Delta, budgets []Budget) []Violation {
	var out []Violation
	for _, d := range deltas {
		for _, b := range budgets {
			if b.Metric != d.Metric || !b.Pattern.MatchString(d.Name) {
				continue
			}
			if d.Pct <= b.MaxPct {
				continue
			}
			if d.tested() && !d.Significant() {
				continue // over budget but within noise
			}
			out = append(out, Violation{Delta: d, Budget: b})
			break // one violation per delta is enough
		}
	}
	return out
}

// Unbaselined returns the benchmarks of new that a budget gates but old has
// no result for, in new's order. Diff skips them, so Gate cannot see them;
// a gate must fail on them rather than pass a benchmark it never checked.
func Unbaselined(old, new *Run, budgets []Budget) []string {
	var names []string
	for _, r := range new.Results {
		if old.Result(r.Name) != nil {
			continue
		}
		for _, b := range budgets {
			if b.Pattern.MatchString(r.Name) {
				names = append(names, r.Name)
				break
			}
		}
	}
	return names
}

// GatedNames returns the benchmark names among deltas that violated,
// deduplicated — the set to capture profiles for.
func GatedNames(violations []Violation) []string {
	seen := map[string]bool{}
	var names []string
	for _, v := range violations {
		if !seen[v.Name] {
			seen[v.Name] = true
			names = append(names, v.Name)
		}
	}
	return names
}
