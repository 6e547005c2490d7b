// Command bench is the repository's end-to-end benchmark. One invocation
// runs one workload in a closed loop for a fixed window and prints every
// metric as "workload metric value unit", then a JSON verdict as its last
// line:
//
//	bench -workload paper-grid -seed 1 -seconds 25 -trace 0
//
// -trace 0 reports the end-to-end metrics of untraced experiment.Run
// calls; -trace 1 reports the per-layer metrics, from counters of untraced
// runs and from a traced mirror of the stack (trace.go). Two subcommands
// drive it: "sweep" runs every workload repeatedly, each invocation in its
// own child process, into a result file stamped with its provenance, and
// "compare" judges two result files against the bounds in BENCHMARK.json.
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	// Two processors: one per shard of the sharded workloads, and the
	// same on every host, so results compare across machines.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "sweep":
		err = sweep(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = compare(os.Args[2:])
	default:
		err = runMain(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same simulation configs")
	seconds := fs.Int("seconds", 25, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics, 0 = end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := workloadByName(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	prov, _ := json.Marshal(stamp([]int64{*seed}, *seconds)) // plain strings and numbers: cannot fail
	fmt.Printf("%s%s\n", provenancePrefix, prov)

	c, err := newClock()
	if err != nil {
		return err
	}
	var t tally
	window := time.Duration(*seconds) * time.Second
	setup := measureSetup(w, *seed, &t)
	var metrics map[string]metric
	if *trace == 1 {
		metrics = perLayer(w, *seed, window, setup, &t)
	} else {
		passes, f := closedLoop(w, *seed, window, c, &t)
		var extra map[string]metric
		metrics, extra = endToEnd(c, setup, passes, f)
		extra["fail_frac"] = metric{float64(t.failed) / float64(t.attempted), "fraction"}
		printMetrics(w.name, extra)
	}
	printMetrics(w.name, metrics)
	for _, e := range t.errs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d checks failed", t.failed, t.attempted)
	}
	return nil
}

func printMetrics(workload string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %s %.6g %s\n", workload, n, ms[n].Value, ms[n].Unit)
	}
}
