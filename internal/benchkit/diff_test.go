package benchkit

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// mkRun builds a Run with one benchmark per entry; each value list becomes
// that benchmark's ns/op samples.
func mkRun(benchmarks map[string][]float64) *Run {
	run := &Run{Schema: SchemaVersion, ID: "test", Time: time.Unix(0, 0)}
	for name, vals := range benchmarks {
		res := Result{Name: name}
		for _, v := range vals {
			res.Samples = append(res.Samples, Sample{
				Iters:   100,
				Metrics: map[string]float64{"ns/op": v, "allocs/op": 10},
			})
		}
		run.Results = append(run.Results, res)
	}
	run.Summarize()
	return run
}

func TestGateFlagsSyntheticSlowdown(t *testing.T) {
	// The acceptance scenario: a ≥10% slowdown on a gated benchmark must
	// trip the gate; an unchanged benchmark must not.
	old := mkRun(map[string][]float64{
		"AllPairsHSN3Q4": {100, 101, 99, 100, 102},
		"Routing":        {50, 51, 49, 50, 52},
	})
	slow := mkRun(map[string][]float64{
		"AllPairsHSN3Q4": {115, 116, 114, 115, 117}, // +15%
		"Routing":        {50, 51, 49, 50, 52},      // unchanged
	})
	budgets, err := ParseBudgets("AllPairs.*:+10%,Routing:+10%")
	if err != nil {
		t.Fatal(err)
	}

	violations := Gate(Diff(old, slow, nil), budgets)
	if len(violations) != 1 {
		t.Fatalf("violations = %+v, want exactly the AllPairs one", violations)
	}
	if v := violations[0]; v.Name != "AllPairsHSN3Q4" || v.Metric != "ns/op" {
		t.Errorf("violation = %+v", v)
	}
	if violations[0].Pct < 10 {
		t.Errorf("violation pct = %v, want >= 10", violations[0].Pct)
	}

	// Unchanged run against itself: clean pass.
	if v := Gate(Diff(old, old, nil), budgets); len(v) != 0 {
		t.Errorf("self-comparison produced violations: %+v", v)
	}
}

func TestGateRequiresSignificanceWhenTestable(t *testing.T) {
	// Median is 12% up but the samples are wildly noisy and overlapping:
	// the rank test can't distinguish them, so the gate must not fire.
	old := mkRun(map[string][]float64{"Noisy": {100, 140, 90, 130, 95}})
	new := mkRun(map[string][]float64{"Noisy": {112, 100, 145, 92, 135}})
	budgets, _ := ParseBudgets("Noisy:+10%")
	if v := Gate(Diff(old, new, nil), budgets); len(v) != 0 {
		t.Errorf("noise tripped the gate: %+v", v)
	}
}

func TestGateFallsBackToMedianWithFewSamples(t *testing.T) {
	// One sample per side: no rank test possible, median delta decides.
	old := mkRun(map[string][]float64{"Single": {100}})
	new := mkRun(map[string][]float64{"Single": {120}})
	budgets, _ := ParseBudgets("Single:+10%")
	if v := Gate(Diff(old, new, nil), budgets); len(v) != 1 {
		t.Errorf("single-sample regression not caught: %+v", v)
	}
}

func TestGateIgnoresImprovements(t *testing.T) {
	old := mkRun(map[string][]float64{"Fast": {100, 101, 99, 100, 102}})
	new := mkRun(map[string][]float64{"Fast": {80, 81, 79, 80, 82}})
	budgets, _ := ParseBudgets("Fast:+0%")
	if v := Gate(Diff(old, new, nil), budgets); len(v) != 0 {
		t.Errorf("improvement tripped the gate: %+v", v)
	}
}

func TestGateMetricSelector(t *testing.T) {
	// pattern:metric:+N% watches a non-default metric.
	old := mkRun(map[string][]float64{"Alloc": {100, 100, 100, 100, 100}})
	new := mkRun(map[string][]float64{"Alloc": {100, 100, 100, 100, 100}})
	for i := range new.Results[0].Samples {
		new.Results[0].Samples[i].Metrics["allocs/op"] = 20 // 10 -> 20
	}
	new.Summarize()
	budgets, err := ParseBudgets("Alloc:allocs/op:+50%")
	if err != nil {
		t.Fatal(err)
	}
	v := Gate(Diff(old, new, nil), budgets)
	if len(v) != 1 || v[0].Metric != "allocs/op" {
		t.Errorf("allocs/op budget: violations = %+v", v)
	}
}

func TestParseBudgetsErrors(t *testing.T) {
	for _, bad := range []string{"", "NoBudget", "X:+ten%", "(:+10%", "a:b:c:+10%", "X:-10%"} {
		if _, err := ParseBudgets(bad); err == nil {
			t.Errorf("ParseBudgets(%q) accepted", bad)
		}
	}
	budgets, err := ParseBudgets("A.*:+10%, B:ns/op:+0%")
	if err != nil {
		t.Fatal(err)
	}
	if len(budgets) != 2 || budgets[0].MaxPct != 10 || budgets[1].MaxPct != 0 {
		t.Errorf("budgets = %+v", budgets)
	}
}

func TestFormatTableMarkers(t *testing.T) {
	old := mkRun(map[string][]float64{
		"Regressed": {100, 101, 99, 100, 102},
		"Same":      {100, 140, 90, 130, 95},
	})
	new := mkRun(map[string][]float64{
		"Regressed": {150, 151, 149, 150, 152},
		"Same":      {112, 100, 145, 92, 135},
	})
	var buf bytes.Buffer
	FormatTable(&buf, Diff(old, new, []string{"ns/op"}))
	out := buf.String()
	if !strings.Contains(out, "Regressed") || !strings.Contains(out, "+50.0%") {
		t.Errorf("table missing regression row:\n%s", out)
	}
	var starLine, tildeLine bool
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "Regressed") && strings.HasSuffix(strings.TrimSpace(line), "*") {
			starLine = true
		}
		if strings.Contains(line, "Same") && strings.HasSuffix(strings.TrimSpace(line), "~") {
			tildeLine = true
		}
	}
	if !starLine || !tildeLine {
		t.Errorf("significance markers wrong (star=%v tilde=%v):\n%s", starLine, tildeLine, out)
	}
}

func TestUnbaselinedNamesGatedBenchmarksWithoutBaseline(t *testing.T) {
	old := mkRun(map[string][]float64{"Routing": {50, 51, 49, 50, 52}})
	cur := mkRun(map[string][]float64{
		"Routing":          {50, 51, 49, 50, 52},
		"InjectionSampler": {10, 11, 10, 10, 11}, // gated, no baseline row
		"Ungated":          {1, 1, 1, 1, 1},      // not gated
	})
	budgets, err := ParseBudgets("^(Routing|InjectionSampler)$:allocs/op:+5%")
	if err != nil {
		t.Fatal(err)
	}
	// Diff skips the new benchmark, so Gate alone passes the run.
	if v := Gate(Diff(old, cur, nil), budgets); len(v) != 0 {
		t.Fatalf("violations = %+v", v)
	}
	if got := Unbaselined(old, cur, budgets); len(got) != 1 || got[0] != "InjectionSampler" {
		t.Errorf("Unbaselined = %v, want [InjectionSampler]", got)
	}
	if got := Unbaselined(cur, cur, budgets); len(got) != 0 {
		t.Errorf("self-comparison Unbaselined = %v", got)
	}
}
