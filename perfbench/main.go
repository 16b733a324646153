// Command perfbench is the repository's benchmark. It runs one named
// workload of the cluster simulator, checks the workload's outcome, and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object with the run's result.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run is a series of iterations, each a fresh child process that sets
// up the workload from the seed, runs it to the end and reports one
// Result. Iterations start until --seconds of wall time would be
// exceeded (at least minIterations). Host-clock metrics are medians over
// the iterations; sim-clock metrics and deterministic counts must be
// identical in every iteration, and in every earlier run of the same
// binary on the same workload and seed, or the run is not correct.
//
// With --trace 1 iterations alternate untraced and traced. Traced
// iterations profile the run with runtime/pprof and time the
// benchmark's own calls into each layer; the run reports the per-layer
// metrics and the tracing overhead against the untraced iterations.
package main

import (
	"flag"
	"fmt"
	"os"
)

// workloads maps each workload name to the function that runs one
// iteration of it.
var workloads = map[string]func(seed uint64, m *meter) error{
	"migrate_ring":     runRing,
	"drain_under_load": runDrain,
	"gossip_churn":     runGossip,
}

func main() {
	workload := flag.String("workload", "", "workload name: migrate_ring, drain_under_load or gossip_churn")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 30, "wall seconds to measure for")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	out := flag.String("out", ".bench_build/perfbench", "directory for the replay ledger")
	child := flag.Bool("child", false, "run one iteration and print its Result as JSON")
	profile := flag.Bool("profile", false, "with -child: profile the iteration and time its spans")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *child {
		os.Exit(childMain(*workload, run, *seed, *profile))
	}
	os.Exit(parentMain(*workload, *seed, *seconds, *trace == 1, *out))
}
