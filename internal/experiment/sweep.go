package experiment

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"rmac/internal/stats"
)

// Point aggregates the runs of one (protocol, scenario, rate) cell across
// seeds, exactly as the paper plots data points: "each data point except
// the maximum and 99 percentile values represents the average result of a
// set of ten experiments" (§4.1.2).
type Point struct {
	Protocol Protocol
	Scenario Scenario
	Rate     float64

	Runs []RunResult

	Delivery         float64 // mean R_deliv
	AvgDropRatio     float64
	AvgRetxRatio     float64
	AvgOverheadRatio float64
	AvgDelay         float64

	// DeliveryStd and DelayStd report the spread across seeds (population
	// standard deviation), quantifying placement-to-placement variance.
	DeliveryStd float64
	DelayStd    float64

	// Pooled distributions (Figures 12–13 report avg/99 %ile/max over
	// the whole set).
	MRTSLens    stats.Summary
	AbortRatios stats.Summary

	// FailedRuns counts runs excluded from the averages because they
	// failed (panic or invalid config); AbortedRuns counts runs the
	// watchdog stopped early (their partial metrics ARE averaged, since
	// a truncated run still measured real protocol behaviour).
	FailedRuns  int
	AbortedRuns int

	// Violations sums the invariant auditor's violation counts over the
	// cell's runs (0 when auditing is off or the stack conforms).
	Violations uint64
}

// Sweep describes a grid of runs.
type Sweep struct {
	Base      Config
	Protocols []Protocol
	Scenarios []Scenario
	Rates     []float64
	Seeds     int
	// Parallelism bounds concurrent runs; 0 means GOMAXPROCS.
	Parallelism int
	// Progress, when non-nil, receives (done, total) after each run. It is
	// called from the worker goroutines without holding any sweep lock, so
	// it may run concurrently with itself and must do its own
	// synchronization; done values may arrive out of order.
	Progress func(done, total int)
}

// Cells returns the number of aggregated points the sweep produces.
func (s Sweep) Cells() int { return len(s.Protocols) * len(s.Scenarios) * len(s.Rates) }

// RunSweep executes the grid with a worker pool — one goroutine per
// simulation, each with its own engine (simulations share nothing) — and
// aggregates per cell. Results are ordered by (protocol, scenario, rate)
// in the order given, and each cell's runs by seed, so the aggregates do
// not depend on Parallelism.
func RunSweep(s Sweep) []Point { return RunSweepCtx(context.Background(), s) }

// RunSweepCtx is RunSweep with cooperative cancellation: once ctx is done,
// no further grid points are dispatched, in-flight simulations abort at
// their engines' next periodic check (their partial results are recorded
// as Aborted), and the points aggregate whatever completed. A sweep whose
// context is never canceled is bit-identical to RunSweep.
func RunSweepCtx(ctx context.Context, s Sweep) []Point {
	cells, jobs := s.expand()
	runs := runJobs(ctx, jobs, len(cells), s.Parallelism, s.Progress)
	for i := range cells {
		cells[i].Runs = runs[i]
		cells[i].aggregate()
	}
	return cells
}

// Configs expands the grid into one Config per run, in the order RunSweep
// runs and aggregates them: protocol-major, then scenario, rate and seed.
func (s Sweep) Configs() []Config {
	_, jobs := s.expand()
	cfgs := make([]Config, len(jobs))
	for i, j := range jobs {
		cfgs[i] = j.cfg
	}
	return cfgs
}

// expand lays out the grid's cells and their runs.
func (s Sweep) expand() ([]Point, []sweepJob) {
	var jobs []sweepJob
	cells := make([]Point, 0, s.Cells())
	for _, p := range s.Protocols {
		for _, sc := range s.Scenarios {
			for _, r := range s.Rates {
				cell := len(cells)
				cells = append(cells, Point{Protocol: p, Scenario: sc, Rate: r})
				for seed := 0; seed < s.Seeds; seed++ {
					cfg := s.Base
					cfg.Protocol = p
					cfg.Scenario = sc
					cfg.Rate = r
					cfg.Seed = sweepSeed(sc, seed)
					jobs = append(jobs, sweepJob{cell, cfg})
				}
			}
		}
	}
	return cells, jobs
}

// sweepSeed is the placement seed of a sweep's seed-th run in scenario sc.
// The paper uses identical placements across the compared protocols;
// seeding by (scenario, seed) only achieves that.
func sweepSeed(sc Scenario, seed int) int64 { return int64(seed)*7919 + int64(sc) + 1 }

// sweepJob is one run of a sweep: its config and the cell it folds into.
type sweepJob struct {
	cell int
	cfg  Config
}

// runJobs runs jobs on parallelism workers (GOMAXPROCS when ≤ 0), each
// simulation with its own engine, and returns every cell's runs in job
// order: a result is stored at its job's index, so what a cell
// aggregates does not depend on the order in which runs finish. Once ctx
// is done no further job is dispatched, and the jobs never run are left
// out. progress, when non-nil, receives (done, total) after each run,
// outside any lock: a slow or re-entrant callback must not stall the
// other workers.
func runJobs(ctx context.Context, jobs []sweepJob, cells, parallelism int, progress func(done, total int)) [][]RunResult {
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(jobs))
	results := make([]RunResult, len(jobs))
	ran := make([]bool, len(jobs))
	var done atomic.Int64
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					continue // canceled: drain without running
				}
				results[i], ran[i] = RunCtx(ctx, jobs[i].cfg), true
				if progress != nil {
					progress(int(done.Add(1)), len(jobs))
				}
			}
		}()
	}
feed:
	for i := range jobs {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()

	runs := make([][]RunResult, cells)
	for i, j := range jobs {
		if ran[i] {
			runs[j.cell] = append(runs[j.cell], results[i])
		}
	}
	return runs
}

// aggregate folds the cell's runs into the paper's point shape.
func (p *Point) aggregate() {
	var deliv, drop, retx, ovh, delay stats.Sample
	var lens, aborts stats.Sample
	for _, r := range p.Runs {
		if r.Failed {
			p.FailedRuns++
			continue
		}
		if r.Aborted {
			p.AbortedRuns++
		}
		p.Violations += r.ViolationCount
		deliv.Add(r.Delivery)
		drop.Add(r.AvgDropRatio)
		retx.Add(r.AvgRetxRatio)
		ovh.Add(r.AvgOverheadRatio)
		delay.Add(r.AvgDelay)
		if r.MRTSLens != nil {
			lens.AddAll(r.MRTSLens.Values())
		}
		if r.AbortRatios != nil {
			aborts.AddAll(r.AbortRatios.Values())
		}
	}
	p.Delivery = deliv.Mean()
	p.DeliveryStd = deliv.StdDev()
	p.DelayStd = delay.StdDev()
	p.AvgDropRatio = drop.Mean()
	p.AvgRetxRatio = retx.Mean()
	p.AvgOverheadRatio = ovh.Mean()
	p.AvgDelay = delay.Mean()
	p.MRTSLens = lens.Summarize()
	p.AbortRatios = aborts.Summarize()
}
