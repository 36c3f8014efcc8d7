// Command e2e is the benchmark's untraced program: it runs one workload for
// --seconds of timed repeats and prints the end-to-end metrics as the last
// line of standard output. See ../README.md.
package main

import (
	"fmt"
	"os"

	"repro/internal/benchkit"
	"repro/perfbench/workload"
)

func main() {
	a, err := workload.ParseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if a.Trace != 0 {
		fmt.Fprintln(os.Stderr, "perfbench: e2e runs --trace 0 only; run.sh picks the traced one")
		os.Exit(2)
	}
	workload.Print(map[string]any{"env": benchkit.CollectEnv()})
	m, err := workload.Measure(a.W, a.Seed, a.Seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	workload.Print(workload.Result{
		Correct:   err == nil,
		Attempted: m.Attempted(),
		Failed:    m.Failed(),
		Metrics:   m.EndToEnd(),
	})
	if err != nil {
		os.Exit(1)
	}
}
