package main

import (
	"testing"

	"rmac/internal/experiment"
	"rmac/internal/geom"
	"rmac/internal/sim"
)

// smallConfig is a 30-node network that runs in milliseconds.
func smallConfig(p experiment.Protocol, sc experiment.Scenario) experiment.Config {
	cfg := experiment.DefaultConfig()
	cfg.Protocol, cfg.Scenario = p, sc
	cfg.Nodes = 30
	cfg.Field = geom.Rect{W: 320, H: 200}
	cfg.Packets, cfg.Rate = 20, 40
	cfg.Warmup, cfg.Drain = sim.Second, sim.Second/2
	cfg.Seed = 7
	return cfg
}

// TestMirrorMatchesRun guards the traced mirror against drift from
// experiment.Run: same stack, same random draws, same result, for every
// MAC, stationary and mobile. It also checks every layer boundary saw
// traffic, so a wrapper that silently stopped being called shows.
func TestMirrorMatchesRun(t *testing.T) {
	tr := newTracer()
	for _, p := range experiment.Protocols {
		for _, sc := range []experiment.Scenario{experiment.Stationary, experiment.Speed2} {
			cfg := smallConfig(p, sc)
			want := experiment.Run(cfg)
			if err := checkRun(&want); err != nil {
				t.Fatalf("%v/%v: %v", p, sc, err)
			}
			got, err := tracedRun(cfg, tr)
			if err != nil {
				t.Fatalf("%v/%v: traced run: %v", p, sc, err)
			}
			if got.Fingerprint() != want.Fingerprint() {
				t.Errorf("%v/%v: traced mirror fingerprint differs from experiment.Run", p, sc)
			}
		}
	}
	for l, name := range layerNames {
		if tr.calls[l] == 0 || tr.self[l] <= 0 {
			t.Errorf("layer %s: %d calls, %v self time", name, tr.calls[l], tr.self[l])
		}
	}
	if len(tr.stack) != 1 {
		t.Errorf("span stack left at depth %d, want 1", len(tr.stack))
	}
}

// TestShardedRerunIdentical checks the sharded engine's determinism
// guarantee (bit-identical reruns for a fixed seed and shard count) on
// the configs the sharded workloads use, scaled down.
func TestShardedRerunIdentical(t *testing.T) {
	for _, sc := range []experiment.Scenario{experiment.Stationary, experiment.Speed1} {
		cfg := largeConfig(3, 160, geom.Rect{W: 640, H: 320}, 2, 4)
		cfg.Topo = experiment.TopoPoisson
		cfg.Scenario = sc
		cfg.Shards = 2
		a, b := experiment.Run(cfg), experiment.Run(cfg)
		if err := checkRun(&a); err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
		if a.Shards[0].MsgsOut == 0 {
			t.Fatalf("%v: no cross-shard traffic; the check would prove nothing", sc)
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("%v: sharded rerun fingerprint differs", sc)
		}
	}
}

// TestSpecMatchesBenchmark keeps BENCHMARK.json and the code in step: the
// same workloads in the same order, and exactly the metrics, with their
// units, that a run reports in each mode.
func TestSpecMatchesBenchmark(t *testing.T) {
	var sp spec
	if err := readJSON("../BENCHMARK.json", &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}

	tiny := &workload{name: "tiny", panel: func() []experiment.Config {
		return []experiment.Config{smallConfig(experiment.RMAC, experiment.Stationary)}
	}}
	c, err := newClock()
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	setup := measureSetup(tiny, 1, &tl)
	passes, f := closedLoop(tiny, 1, 0, c, &tl)
	e2e, _ := endToEnd(c, setup, passes, f)
	layers := perLayer(tiny, 1, 0, setup, &tl)
	if tl.failed > 0 {
		t.Fatalf("checks failed: %v", tl.errs)
	}
	for _, tc := range []struct {
		mode string
		got  map[string]metric
		want []specMetric
	}{{"end-to-end", e2e, sp.EndToEnd}, {"per-layer", layers, sp.PerLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s: run reports %d metrics, BENCHMARK.json lists %d", tc.mode, len(tc.got), len(tc.want))
		}
		for _, m := range tc.want {
			if g, ok := tc.got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s metric %s (%s): run reports %+v", tc.mode, m.Name, m.Unit, g)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5}, 1, 3, 4.5},
		{[]float64{2, 7}, 0.75, 4.5, 8.25},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "run_s.p50", Better: "lower", Bound: 0.1}
	base := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", base, base, "lower", "within-bound"},
		{"slower", base, scale(base, 1.2), "lower", "regressed"},
		{"faster", base, scale(base, 0.8), "lower", "improved"},
		{"faster is worse when higher is better", base, scale(base, 0.8), "higher", "regressed"},
		{"spread wider than bound", noisy, scale(noisy, 1.2), "lower", "unresolved"},
		{"every run better despite spread", noisy, scale(noisy, 0.1), "lower", "improved"},
	} {
		m := lower
		m.Better = tc.better
		if got, _, _ := judge(m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestPairedNeedsSameSeedsAndWindow(t *testing.T) {
	file := func(seconds int, seeds ...int64) *resultFile {
		return &resultFile{Provenance: provenance{Seeds: seeds, Seconds: seconds}}
	}
	if err := paired(file(25, 1, 2, 3), file(25, 1, 2, 3)); err != nil {
		t.Errorf("same seeds and window: %v", err)
	}
	if paired(file(25, 1, 2, 3), file(25, 4, 5, 6)) == nil {
		t.Error("different seeds compared")
	}
	if paired(file(25, 1, 2, 3), file(20, 1, 2, 3)) == nil {
		t.Error("different windows compared")
	}
}
