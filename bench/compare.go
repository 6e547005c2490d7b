package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// spec is the part of BENCHMARK.json that compare judges by.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// values collects one metric of one workload over a file's invocations,
// in run order.
func values(rf *resultFile, workload, name string, trace int) []float64 {
	var xs []float64
	for _, r := range rf.Runs {
		if m, ok := r.Result.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// summarize prints each workload's metric medians and spreads.
func summarize(w io.Writer, rf *resultFile) {
	fmt.Fprintf(w, "%-26s %-36s %12s %8s %4s\n", "workload", "metric", "median", "iqr/med", "n")
	seen := map[string]bool{}
	for _, r := range rf.Runs {
		key := fmt.Sprint(r.Workload, r.Trace)
		if seen[key] {
			continue
		}
		seen[key] = true
		names := make([]string, 0, len(r.Result.Metrics))
		for n := range r.Result.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			xs := values(rf, r.Workload, n, r.Trace)
			q1, med, q3 := quartiles(xs)
			fmt.Fprintf(w, "%-26s %-36s %12.5g %7.2f%% %4d\n", r.Workload, n, med, 100*ratio(q3-q1, med), len(xs))
		}
	}
}

// compare judges file B (the change) against file A (the base), metric by
// metric and workload by workload. An end-to-end metric is
//   - unresolved when A's own spread (IQR over median) exceeds its bound,
//     unless every B run beats every A run;
//   - regressed when B's median is worse than A's by more than the bound;
//   - improved when B wins at least nine tenths of the index-paired runs
//     (ties count for neither) and the medians differ by more than A's
//     IQR;
//   - within-bound otherwise.
//
// Per-layer medians are listed without a verdict. Regressions make the
// command exit non-zero.
func compare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: compare [-spec BENCHMARK.json] A.json B.json")
	}
	var sp spec
	var a, b resultFile
	for path, v := range map[string]any{*specPath: &sp, fs.Arg(0): &a, fs.Arg(1): &b} {
		if err := readJSON(path, v); err != nil {
			return err
		}
	}
	if err := paired(&a, &b); err != nil {
		return err
	}
	fmt.Printf("A = %s (commit %s, %s)\nB = %s (commit %s, %s)\n",
		fs.Arg(0), a.Provenance.Commit, a.Provenance.Start, fs.Arg(1), b.Provenance.Commit, b.Provenance.Start)
	fmt.Printf("%-26s %-18s %-34s %-34s %-20s %6s %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A (base A)", "wins", "verdict")
	regressed := 0
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			av, bv := values(&a, wl.Name, m.Name, 0), values(&b, wl.Name, m.Name, 0)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v, wins, pairs := judge(m, av, bv)
			if v == "regressed" {
				regressed++
			}
			fmt.Printf("%-26s %-18s %-34s %-34s %-20s %3d/%-2d %s\n", wl.Name, m.Name,
				quartileText(av), quartileText(bv), ratioText(av, bv), wins, pairs, v)
		}
	}
	fmt.Printf("\n%-26s %-36s %14s %14s %s\n", "workload", "per-layer metric", "A median", "B median", "B/A (base A)")
	for _, wl := range sp.Workloads {
		for _, m := range sp.PerLayer {
			av, bv := values(&a, wl.Name, m.Name, 1), values(&b, wl.Name, m.Name, 1)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			_, am, _ := quartiles(av)
			_, bm, _ := quartiles(bv)
			fmt.Printf("%-26s %-36s %14.5g %14.5g %s\n", wl.Name, m.Name, am, bm, ratioText(av, bv))
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d end-to-end metrics regressed", regressed)
	}
	return nil
}

// paired checks that two result files can be compared run by run: judge
// pairs runs by index, so both sides must have run the same seeds with the
// same window.
func paired(a, b *resultFile) error {
	pa, pb := a.Provenance, b.Provenance
	if !slices.Equal(pa.Seeds, pb.Seeds) || pa.Seconds != pb.Seconds {
		return fmt.Errorf("A ran seeds %v for %d s, B seeds %v for %d s: rerun one side to match",
			pa.Seeds, pa.Seconds, pb.Seeds, pb.Seconds)
	}
	return nil
}

// judge returns the verdict on one end-to-end metric, with the number of
// index-paired runs B won.
func judge(m specMetric, av, bv []float64) (verdict string, wins, pairs int) {
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	aq1, am, aq3 := quartiles(av)
	_, bm, _ := quartiles(bv)
	pairs = min(len(av), len(bv))
	for i := 0; i < pairs; i++ {
		if better(bv[i], av[i]) {
			wins++
		}
	}
	allBetter := true
	for _, x := range bv {
		for _, y := range av {
			allBetter = allBetter && better(x, y)
		}
	}
	worse := ratio(bm-am, am) // relative change of the median, base A
	if m.Better == "higher" {
		worse = -worse
	}
	iqr := aq3 - aq1
	switch {
	case ratio(iqr, am) > m.Bound && !allBetter:
		return "unresolved", wins, pairs
	case worse > m.Bound:
		return "regressed", wins, pairs
	case 10*wins >= 9*pairs && better(bm, am) && math.Abs(bm-am) > iqr:
		return "improved", wins, pairs
	}
	return "within-bound", wins, pairs
}

func quartileText(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", med, q1, q3)
}

func ratioText(av, bv []float64) string {
	_, am, _ := quartiles(av)
	_, bm, _ := quartiles(bv)
	return fmt.Sprintf("%.4f (A %.5g)", ratio(bm, am), am)
}
