package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/benchkit"
)

func mkRun(names ...string) *benchkit.Run {
	r := &benchkit.Run{Schema: benchkit.SchemaVersion, ID: "test", Time: time.Unix(0, 0)}
	for _, name := range names {
		res := benchkit.Result{Name: name}
		for i := 0; i < 5; i++ {
			res.Samples = append(res.Samples, benchkit.Sample{Iters: 100,
				Metrics: map[string]float64{"ns/op": 100, "allocs/op": 0}})
		}
		r.Results = append(r.Results, res)
	}
	r.Summarize()
	return r
}

// TestGateFailsWithoutBaselineRow checks that a gated benchmark missing
// from the baseline fails the gate by name instead of passing unchecked,
// and that ungated extras and a complete baseline still pass.
func TestGateFailsWithoutBaselineRow(t *testing.T) {
	budgets, err := benchkit.ParseBudgets("^(RunQ6|InjectionSampler/.*)$:allocs/op:+5%")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if _, pass := gate(&out, mkRun("RunQ6"), mkRun("RunQ6", "InjectionSampler/n=16"), budgets); pass {
		t.Fatalf("gate passed a gated benchmark with no baseline row:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "no baseline row for InjectionSampler/n=16") {
		t.Errorf("gate output does not name the missing row:\n%s", out.String())
	}
	for _, newRun := range []*benchkit.Run{mkRun("RunQ6", "InjectionSampler/n=16"), mkRun("RunQ6", "Ungated")} {
		out.Reset()
		if _, pass := gate(&out, mkRun("RunQ6", "InjectionSampler/n=16"), newRun, budgets); !pass {
			t.Errorf("gate failed a covered run:\n%s", out.String())
		}
	}
}
