// Command bench is the repo's continuous-benchmarking driver. It runs the
// existing `go test -bench` suite through internal/benchkit, records
// schema-versioned BENCH_<runid>.json files with environment metadata,
// diffs two records into a significance-annotated delta table, and
// enforces regression budgets for CI — optionally capturing CPU/heap
// profiles (with `go tool pprof -top` summaries) for every benchmark that
// trips the gate, so a flagged regression arrives with its profile.
//
// Record a run (repo root; writes BENCH_<timestamp>-<commit>.json):
//
//	bench -record
//	bench -record -bench 'AllPairs|Netsim' -count 10 -benchtime 100ms -out perf/
//
// Diff two records (old first):
//
//	bench -diff BENCH_a.json BENCH_b.json
//
// Gate a fresh run against a committed baseline — exits 1 on a significant
// over-budget regression or on a gated benchmark the baseline has no row
// for, 2 on usage/infrastructure errors:
//
//	bench -baseline BENCH_baseline.json \
//	      -gate 'BuildHSN3Q4|Routing|Netsim:+10%' \
//	      -cpuprofile-dir prof/cpu -memprofile-dir prof/mem
//
// or gate one record against another without re-running anything:
//
//	bench -gate 'AllPairs.*:+10%' BENCH_old.json BENCH_new.json
//
// Gate spec grammar: comma-separated `pattern:+N%` (metric ns/op) or
// `pattern:metric:+N%` entries; the pattern is an unanchored Go regexp
// against the benchmark name without its "Benchmark" prefix, exactly like
// `go test -bench`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/benchkit"
)

func main() {
	var (
		record   = flag.Bool("record", false, "run the benchmark suite and write a BENCH_<runid>.json record")
		diff     = flag.Bool("diff", false, "compare two records: bench -diff old.json new.json")
		gateSpec = flag.String("gate", "", "regression budget spec, e.g. 'AllPairs.*:+10%,Netsim:allocs/op:+0%'; exits 1 when a budget is broken")
		baseline = flag.String("baseline", "", "with -gate: record a fresh run of the gated benchmarks and compare against this BENCH_*.json")

		benchRe   = flag.String("bench", ".", "benchmark regex, as in go test -bench")
		pkgs      = flag.String("pkg", "./...", "comma-separated package patterns to benchmark")
		count     = flag.Int("count", 5, "repetitions per benchmark")
		benchtime = flag.String("benchtime", "", "per-repetition -benchtime (e.g. 100ms, 10x); empty = go default")
		timeout   = flag.String("timeout", "20m", "go test -timeout per invocation")
		out       = flag.String("out", ".", "output path for -record: a directory (conventional name) or a file")
		verbose   = flag.Bool("v", false, "stream raw go test output to stderr")

		cpuDir   = flag.String("cpuprofile-dir", "", "capture per-benchmark CPU profiles (+ top-functions summaries) into this directory")
		memDir   = flag.String("memprofile-dir", "", "capture per-benchmark heap profiles (+ alloc_space summaries) into this directory")
		profTime = flag.String("profile-benchtime", "2s", "-benchtime for profile-capture reruns (profiles want more samples than timing passes)")
		profAll  = flag.Bool("profile-all", false, "with -record: profile every recorded benchmark, not just gate violations")
	)
	flag.Parse()

	modes := 0
	for _, on := range []bool{*record, *diff, *gateSpec != ""} {
		if on {
			modes++
		}
	}
	if modes == 0 || (*diff && *gateSpec != "") {
		fmt.Fprintln(os.Stderr, "bench: pick one mode: -record, -diff old.json new.json, or -gate 'spec' (with -baseline or two record files)")
		flag.Usage()
		os.Exit(2)
	}

	spec := benchkit.Spec{
		Packages:  splitList(*pkgs),
		Bench:     *benchRe,
		Benchtime: *benchtime,
		Count:     *count,
		Timeout:   *timeout,
	}
	if *verbose {
		spec.Verbose = os.Stderr
	}
	prof := benchkit.ProfileSpec{
		CPUDir:    *cpuDir,
		MemDir:    *memDir,
		Benchtime: *profTime,
		Timeout:   *timeout,
		Verbose:   spec.Verbose,
	}

	switch {
	case *diff:
		if flag.NArg() != 2 {
			fatalf("bench -diff wants exactly two record files, got %d", flag.NArg())
		}
		oldRun, newRun := readRun(flag.Arg(0)), readRun(flag.Arg(1))
		warnEnvMismatch(oldRun, newRun)
		benchkit.FormatTable(os.Stdout, benchkit.Diff(oldRun, newRun, nil))

	case *gateSpec != "":
		budgets, err := benchkit.ParseBudgets(*gateSpec)
		exitIf(err)
		var oldRun, newRun *benchkit.Run
		switch {
		case flag.NArg() == 2:
			oldRun, newRun = readRun(flag.Arg(0)), readRun(flag.Arg(1))
		case *baseline != "" && flag.NArg() == 0:
			oldRun = readRun(*baseline)
			fmt.Fprintf(os.Stderr, "bench: recording gated run (bench=%q count=%d benchtime=%q)...\n",
				*benchRe, *count, *benchtime)
			newRun, err = benchkit.Record(spec)
			exitIf(err)
			if path, werr := newRun.WriteFile(*out); werr == nil {
				fmt.Fprintf(os.Stderr, "bench: wrote %s\n", path)
			}
		default:
			fatalf("bench -gate wants either -baseline <file> or two record files")
		}
		warnEnvMismatch(oldRun, newRun)
		violations, pass := gate(os.Stdout, oldRun, newRun, budgets)
		if pass {
			return
		}
		if len(violations) > 0 && (prof.CPUDir != "" || prof.MemDir != "") {
			// Only meaningful when the regressed code is in this tree,
			// i.e. the new run was recorded live or matches HEAD.
			captureProfiles(newRun, benchkit.GatedNames(violations), prof)
		}
		os.Exit(1)

	case *record:
		run, err := benchkit.Record(spec)
		if run == nil {
			exitIf(err)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: warning: %v\n", err)
		}
		path, err := run.WriteFile(*out)
		exitIf(err)
		fmt.Printf("recorded %d benchmarks x %d reps -> %s\n", len(run.Results), *count, path)
		printRunSummary(run)
		if (prof.CPUDir != "" || prof.MemDir != "") && *profAll {
			names := make([]string, len(run.Results))
			for i := range run.Results {
				names[i] = run.Results[i].Name
			}
			captureProfiles(run, names, prof)
		}
	}
}

// gate prints the delta table of newRun against oldRun and the verdict to
// w. It passes when no delta breaks its budget and every gated benchmark of
// newRun has a baseline row in oldRun; violations are the broken budgets.
func gate(w io.Writer, oldRun, newRun *benchkit.Run, budgets []benchkit.Budget) (violations []benchkit.Violation, pass bool) {
	deltas := benchkit.Diff(oldRun, newRun, nil)
	benchkit.FormatTable(w, deltas)
	violations = benchkit.Gate(deltas, budgets)
	missing := benchkit.Unbaselined(oldRun, newRun, budgets)
	if len(violations) == 0 && len(missing) == 0 {
		fmt.Fprintln(w, "\ngate: PASS")
		return nil, true
	}
	fmt.Fprintf(w, "\ngate: FAIL (%d violation(s), %d without a baseline row)\n", len(violations), len(missing))
	for _, v := range violations {
		fmt.Fprintf(w, "  %s\n", v)
	}
	for _, name := range missing {
		fmt.Fprintf(w, "  no baseline row for %s\n", name)
	}
	return violations, false
}

func printRunSummary(run *benchkit.Run) {
	nameW := len("benchmark")
	for _, r := range run.Results {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	fmt.Printf("%-*s  %12s %12s %12s\n", nameW, "benchmark", "ns/op", "B/op", "allocs/op")
	for _, r := range run.Results {
		fmt.Printf("%-*s  %12s %12s %12s\n", nameW, r.Name,
			medianCell(r, "ns/op"), medianCell(r, "B/op"), medianCell(r, "allocs/op"))
	}
}

func medianCell(r benchkit.Result, unit string) string {
	st, ok := r.Summary[unit]
	if !ok || st.N == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g", st.Median)
}

func captureProfiles(run *benchkit.Run, names []string, prof benchkit.ProfileSpec) {
	fmt.Fprintf(os.Stderr, "bench: capturing profiles for %d benchmark(s)...\n", len(names))
	profiles, err := benchkit.CaptureProfiles(run, names, prof)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: profile capture: %v\n", err)
	}
	for _, p := range profiles {
		line := fmt.Sprintf("  %s %s -> %s", p.Bench, p.Kind, p.Path)
		if p.TopPath != "" {
			line += " (top: " + p.TopPath + ")"
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

func warnEnvMismatch(oldRun, newRun *benchkit.Run) {
	for _, d := range benchkit.EnvMismatch(oldRun.Env, newRun.Env) {
		fmt.Fprintf(os.Stderr, "bench: warning: env mismatch, comparison may be unfair — %s\n", d)
	}
}

func readRun(path string) *benchkit.Run {
	run, err := benchkit.ReadFile(path)
	exitIf(err)
	return run
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

func exitIf(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
}
