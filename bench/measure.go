package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"rmac/internal/experiment"
	"rmac/internal/topo"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable verdict for one invocation:
// the last line of its standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts checked operations and keeps the first failures for the
// report.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) check(what string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 8 {
			t.errs = append(t.errs, what+": "+err.Error())
		}
	}
}

// checkRun is the correctness oracle for one untraced run: it finished,
// the protocol-invariant auditor and the deadlock audit stayed silent, and
// every source generated its full packet count. Delivery is not checked:
// a mobile tree can lose every packet (BMW and LBP at speed2 deliver none
// on some placements) without any protocol rule being broken.
func checkRun(res *experiment.RunResult) error {
	cfg := res.Config
	switch {
	case res.Failed:
		return fmt.Errorf("failed: %s", res.FailReason)
	case res.Aborted:
		return fmt.Errorf("aborted: %s", res.AbortReason)
	case res.ViolationCount > 0:
		return fmt.Errorf("%d audit violations, first: %v", res.ViolationCount, res.Violations[0])
	case len(res.Deadlocks) > 0:
		return fmt.Errorf("%d deadlocked nodes, first: %+v", len(res.Deadlocks), res.Deadlocks[0])
	}
	if want := uint64(max(cfg.Sources, 1) * cfg.Packets); res.Metrics.Generated != want {
		return fmt.Errorf("generated %d packets, want %d", res.Metrics.Generated, want)
	}
	if cfg.Shards > 1 && len(res.Shards) != cfg.Shards {
		return fmt.Errorf("%d shard stats for %d shards", len(res.Shards), cfg.Shards)
	}
	return nil
}

// zeroHorizon strips cfg's traffic and warm-up, leaving a run that does
// placement, stack construction and collection only.
func zeroHorizon(cfg experiment.Config) experiment.Config {
	cfg.Packets, cfg.Warmup, cfg.Drain = 0, 0, 0
	return cfg
}

// placement times cfg's topology generator on its own. It repeats
// experiment's unexported makePlacement, with the metro district and gap
// defaults of Config.metroDistricts and Config.metroGap; keep it in step.
func placement(cfg experiment.Config) topo.Placement {
	rng := rand.New(rand.NewSource(cfg.Seed ^ experiment.PlacementSeedMix))
	switch cfg.Topo {
	case experiment.TopoUniform:
		return topo.RandomPlacement(cfg.Nodes, cfg.Field, rng)
	case experiment.TopoPoisson:
		return topo.PoissonDiscPlacement(cfg.Nodes, cfg.Field, cfg.NodeSpacing, rng)
	case experiment.TopoMetro:
		districts := cfg.Districts
		if districts <= 0 {
			districts = max(cfg.Shards, 1)
		}
		gap := cfg.DistrictGap
		if gap <= 0 {
			gap = 1.5 * cfg.Phy.CommRange * max(cfg.Phy.InterferenceFactor, 1)
		}
		return topo.MetroPlacement(cfg.Nodes, districts, cfg.Field, gap, rng)
	default:
		p, _ := topo.ConnectedRandomPlacement(cfg.Nodes, cfg.Field, cfg.Phy.CommRange, rng, 500)
		return p
	}
}

// The set-up phase makes at least setupRuns zero-horizon runs and keeps
// going for at least setupTime: one set-up takes milliseconds, and a
// median over a longer stretch rides out more of the host's bursts.
const (
	setupRuns = 12
	setupTime = time.Second
)

// setupStats is the set-up phase's measurement: zero-horizon runs of the
// panel's configs, which also warm the process up.
type setupStats struct {
	wall, place, allocMB []float64
}

func measureSetup(w *workload, seed int64, t *tally) setupStats {
	var s setupStats
	var ms runtime.MemStats
	start := time.Now()
	for p := 0; len(s.wall) < setupRuns || time.Since(start) < setupTime; p++ {
		for _, cfg := range w.pass(seed, p) {
			t0 := time.Now()
			placement(cfg)
			s.place = append(s.place, time.Since(t0).Seconds())

			runtime.ReadMemStats(&ms)
			a0 := ms.TotalAlloc
			t0 = time.Now()
			res := experiment.Run(zeroHorizon(cfg))
			s.wall = append(s.wall, time.Since(t0).Seconds())
			runtime.ReadMemStats(&ms)
			s.allocMB = append(s.allocMB, float64(ms.TotalAlloc-a0)/1e6)
			t.check("setup "+runName(cfg), checkRun(&res))
		}
	}
	return s
}

// passStats is one whole pass of the closed loop over the panel.
type passStats struct {
	walls   []float64 // per run, seconds
	simSecs float64
	allocMB float64 // total over the pass
	rssMB   float64 // mean over the pass's runs of the run's peak resident set size
}

// forPasses calls run on every config of whole passes, one after another,
// until the window has passed (at least one pass).
func forPasses(w *workload, seed int64, window time.Duration, run func(p int, cfg experiment.Config)) {
	start := time.Now()
	for p := 0; p == 0 || time.Since(start) < window; p++ {
		for _, cfg := range w.pass(seed, p) {
			run(p, cfg)
		}
	}
}

// closedLoop is the untraced measurement: experiment.Run on every config
// of the window's passes, each run checked. Every run starts with the heap
// returned to the OS and the peak RSS record reset, so its peak is its own
// and comparable to a fresh process's. It returns the passes and the
// factor that turns their wall seconds into calibrated ones.
func closedLoop(w *workload, seed int64, window time.Duration, c *clock, t *tally) ([]passStats, float64) {
	var passes []passStats
	var ms runtime.MemStats
	loop := func(tick func()) {
		forPasses(w, seed, window, func(p int, cfg experiment.Config) {
			if p == len(passes) {
				passes = append(passes, passStats{})
			}
			ps := &passes[p]
			debug.FreeOSMemory()
			resetPeakRSS()
			tick()
			runtime.ReadMemStats(&ms)
			a0 := ms.TotalAlloc
			t0 := time.Now()
			res := experiment.Run(cfg)
			ps.walls = append(ps.walls, time.Since(t0).Seconds())
			runtime.ReadMemStats(&ms)
			ps.allocMB += float64(ms.TotalAlloc-a0) / 1e6
			ps.simSecs += cfg.Horizon().Seconds()
			err := checkRun(&res)
			if err == nil {
				var rss float64
				rss, err = peakRSSMB()
				ps.rssMB += rss / float64(len(w.panel()))
			}
			t.check(runName(cfg), err)
		})
	}
	// Sharded runs stay raw (see calib.go).
	if w.panel()[0].Shards > 1 {
		loop(func() {})
		return passes, 1
	}
	return passes, c.window(loop)
}

// runName identifies one run in failure reports.
func runName(cfg experiment.Config) string {
	return fmt.Sprintf("%s/%s/%gpps seed %d", cfg.Protocol, cfg.Scenario, cfg.Rate, cfg.Seed)
}

// endToEnd computes the untraced metrics of one invocation, and extra
// figures to print that are not BENCHMARK.json metrics. Every pass runs
// the same configs, so each per-run figure is taken per pass and its
// median over passes reported; a per-run median over paper-grid's
// 24-config passes would jump between the modes of runs several times
// apart in length.
func endToEnd(c *clock, s setupStats, passes []passStats, f float64) (metrics, extra map[string]metric) {
	var runMean, allocs, rss, all []float64
	var wall, simSecs float64
	for _, ps := range passes {
		n := float64(len(ps.walls))
		runMean = append(runMean, sum(ps.walls)/n)
		allocs = append(allocs, ps.allocMB/n)
		rss = append(rss, ps.rssMB)
		all = append(all, ps.walls...)
		wall += sum(ps.walls)
		simSecs += ps.simSecs
	}
	metrics = map[string]metric{
		"simsec_per_s":     {simSecs / (wall * f), "1/s"},
		"run_s.p50":        {quantile(runMean, 0.5) * f, "s"},
		"setup_s":          {quantile(s.wall, 0.5), "s"},
		"alloc_mb_per_run": {quantile(allocs, 0.5), "MB"},
		"peak_rss_mb":      {quantile(rss, 0.5), "MB"},
	}
	extra = map[string]metric{"runs": {float64(len(all)), "count"}}
	if len(c.probes) > 0 {
		extra["probe_s.p50"] = metric{quantile(c.probes, 0.5), "s"}
	}
	// A percentile is reported only with at least ten samples beyond it.
	if len(all) >= 100 {
		extra["run_s.p90"] = metric{quantile(all, 0.9) * f, "s"}
	}
	return metrics, extra
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
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
