package experiment

import (
	"context"
	"fmt"
	"io"

	"rmac/internal/fault"
	"rmac/internal/stats"
)

// ResilienceLevel is one impairment setting of a resilience sweep: a
// named fault configuration applied identically to every compared
// protocol.
type ResilienceLevel struct {
	// Name labels the level in tables and CSV ("burst=0.2", "avail=0.8").
	Name string
	// Fault is the impairment applied at this level.
	Fault fault.Config
}

// DefaultBurstLevels sweeps the Gilbert–Elliott bad-state duty cycle
// from a clean channel to a channel erased 60% of the time.
func DefaultBurstLevels() []ResilienceLevel {
	sevs := []float64{0, 0.05, 0.1, 0.2, 0.4, 0.6}
	out := make([]ResilienceLevel, 0, len(sevs))
	for _, s := range sevs {
		out = append(out, ResilienceLevel{
			Name:  fmt.Sprintf("burst=%.2f", s),
			Fault: fault.Config{Burst: fault.BurstAt(s)},
		})
	}
	return out
}

// DefaultChurnLevels sweeps per-node availability from always-up to
// nodes that are down 40% of the time (the source is spared throughout).
func DefaultChurnLevels() []ResilienceLevel {
	avails := []float64{1, 0.95, 0.9, 0.8, 0.6}
	out := make([]ResilienceLevel, 0, len(avails))
	for _, a := range avails {
		out = append(out, ResilienceLevel{
			Name:  fmt.Sprintf("avail=%.2f", a),
			Fault: fault.Config{Churn: fault.ChurnAt(a)},
		})
	}
	return out
}

// ResiliencePoint aggregates the runs of one (protocol, level) cell.
type ResiliencePoint struct {
	Protocol Protocol
	Level    ResilienceLevel

	Runs []RunResult

	Delivery     float64
	DeliveryStd  float64
	AvgDelay     float64
	AvgDropRatio float64
	AvgRetxRatio float64

	// Fault-layer totals summed over the cell's completed runs.
	BurstErrors uint64
	Crashes     uint64
	Deadlocks   int

	FailedRuns  int
	AbortedRuns int
}

// ResilienceSweep describes a (protocol × impairment level × seed) grid:
// the experiment behind the "delivery vs burst-loss rate / churn rate"
// curves. Every run carries the engine watchdog so a runaway or wedged
// simulation is cut off rather than hanging the sweep.
type ResilienceSweep struct {
	Base      Config
	Protocols []Protocol
	Levels    []ResilienceLevel
	Seeds     int
	// Parallelism bounds concurrent runs; 0 means GOMAXPROCS.
	Parallelism int
	// Progress, when non-nil, receives (done, total) after each run; same
	// concurrency contract as Sweep.Progress.
	Progress func(done, total int)
}

// RunResilienceSweep executes the grid and aggregates per (protocol,
// level) cell. Failed runs are reported, not averaged; watchdog-aborted
// runs contribute their partial metrics.
func RunResilienceSweep(s ResilienceSweep) []ResiliencePoint {
	return RunResilienceSweepCtx(context.Background(), s)
}

// RunResilienceSweepCtx is RunResilienceSweep with cooperative
// cancellation, with the same semantics as RunSweepCtx: no new points are
// dispatched once ctx is done, in-flight runs abort at their engines'
// next periodic check, and completed results are aggregated as usual.
func RunResilienceSweepCtx(ctx context.Context, s ResilienceSweep) []ResiliencePoint {
	var jobs []sweepJob
	// Level-major order, so results group naturally into one table block
	// per impairment level.
	cells := make([]ResiliencePoint, 0, len(s.Protocols)*len(s.Levels))
	for _, lv := range s.Levels {
		for _, p := range s.Protocols {
			cell := len(cells)
			cells = append(cells, ResiliencePoint{Protocol: p, Level: lv})
			for seed := 0; seed < s.Seeds; seed++ {
				cfg := s.Base
				cfg.Protocol = p
				cfg.Fault = lv.Fault
				// Same placement across compared protocols, as in RunSweep.
				cfg.Seed = sweepSeed(cfg.Scenario, seed)
				jobs = append(jobs, sweepJob{cell, cfg})
			}
		}
	}
	runs := runJobs(ctx, jobs, len(cells), s.Parallelism, s.Progress)
	for i := range cells {
		cells[i].Runs = runs[i]
		cells[i].aggregate()
	}
	return cells
}

func (p *ResiliencePoint) aggregate() {
	var deliv, delay, drop, retx stats.Sample
	for _, r := range p.Runs {
		if r.Failed {
			p.FailedRuns++
			continue
		}
		if r.Aborted {
			p.AbortedRuns++
		}
		deliv.Add(r.Delivery)
		delay.Add(r.AvgDelay)
		drop.Add(r.AvgDropRatio)
		retx.Add(r.AvgRetxRatio)
		p.BurstErrors += r.Fault.BurstErrors
		p.Crashes += r.Crashes
		p.Deadlocks += len(r.Deadlocks)
	}
	p.Delivery = deliv.Mean()
	p.DeliveryStd = deliv.StdDev()
	p.AvgDelay = delay.Mean()
	p.AvgDropRatio = drop.Mean()
	p.AvgRetxRatio = retx.Mean()
}

// WriteResilienceTable renders the sweep as one block per impairment
// level, one row per protocol.
func WriteResilienceTable(w io.Writer, points []ResiliencePoint) {
	fmt.Fprintln(w, "== resilience: delivery under bursty loss and node churn ==")
	var lastLevel string
	for _, p := range points {
		if p.Level.Name != lastLevel {
			lastLevel = p.Level.Name
			fmt.Fprintf(w, "-- %s --\n", lastLevel)
			fmt.Fprintf(w, "%10s %10s %10s %10s %10s %8s %8s %6s\n",
				"protocol", "delivery", "drop", "retx", "delay_s", "crashes", "bursterr", "fail")
		}
		fmt.Fprintf(w, "%10v %10.4f %10.4f %10.4f %10.4f %8d %8d %6d\n",
			p.Protocol, p.Delivery, p.AvgDropRatio, p.AvgRetxRatio, p.AvgDelay,
			p.Crashes, p.BurstErrors, p.FailedRuns)
	}
	fmt.Fprintln(w)
}

// WriteResilienceCSV emits the sweep as CSV for external plotting.
func WriteResilienceCSV(w io.Writer, points []ResiliencePoint) error {
	if _, err := fmt.Fprintln(w, "protocol,level,delivery,delivery_std,drop,retx,delay_s,burst_errors,crashes,deadlocks,failed,aborted,runs"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%v,%s,%.6f,%.6f,%.6f,%.6f,%.6f,%d,%d,%d,%d,%d,%d\n",
			p.Protocol, p.Level.Name, p.Delivery, p.DeliveryStd, p.AvgDropRatio, p.AvgRetxRatio,
			p.AvgDelay, p.BurstErrors, p.Crashes, p.Deadlocks, p.FailedRuns, p.AbortedRuns,
			len(p.Runs)); err != nil {
			return err
		}
	}
	return nil
}
