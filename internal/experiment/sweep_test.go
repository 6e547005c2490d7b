package experiment

import (
	"fmt"
	"testing"

	"rmac/internal/geom"
	"rmac/internal/sim"
)

// parallelismBase is a small multi-hop run: short enough that a sweep of
// a dozen of them takes well under a second per worker.
func parallelismBase() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 20
	cfg.Field = geom.Rect{W: 300, H: 200}
	cfg.Packets = 20
	cfg.Warmup = 2 * sim.Second
	cfg.Drain = 2 * sim.Second
	return cfg
}

// seedsOf lists a cell's run seeds in the order the cell holds them.
func seedsOf(runs []RunResult) []int64 {
	seeds := make([]int64, len(runs))
	for i, r := range runs {
		seeds[i] = r.Config.Seed
	}
	return seeds
}

// requireSeedOrder fails unless runs are the cell's seeds, ascending.
func requireSeedOrder(t *testing.T, cell string, runs []RunResult, n int) {
	t.Helper()
	seeds := seedsOf(runs)
	if len(seeds) != n {
		t.Fatalf("%s: %d runs, want %d", cell, len(seeds), n)
	}
	for i := 1; i < len(seeds); i++ {
		if seeds[i] <= seeds[i-1] {
			t.Fatalf("%s: runs in seed order %v, want ascending", cell, seeds)
		}
	}
}

// TestSweepIndependentOfParallelism runs one Sweep and one
// ResilienceSweep on one worker and on four. Each cell must hold its runs
// in seed order and aggregate to the same bits either way: stats.Sample
// sums in insertion order, so a cell filled in finishing order would
// change its means in the last bits from one sweep to the next.
func TestSweepIndependentOfParallelism(t *testing.T) {
	sweep := func(par int) []Point {
		return RunSweep(Sweep{
			Base:        parallelismBase(),
			Protocols:   []Protocol{RMAC, BMMM},
			Scenarios:   []Scenario{Stationary},
			Rates:       []float64{20, 60},
			Seeds:       4,
			Parallelism: par,
		})
	}
	serial, parallel := sweep(1), sweep(4)
	for i := range serial {
		cell := fmt.Sprintf("sweep cell %d", i)
		requireSeedOrder(t, cell, serial[i].Runs, 4)
		requireSeedOrder(t, cell, parallel[i].Runs, 4)
		a, b := serial[i], parallel[i]
		if a.FailedRuns > 0 || a.Delivery == 0 {
			t.Fatalf("%s: %d failed runs, delivery %v: the sweep measures nothing", cell, a.FailedRuns, a.Delivery)
		}
		a.Runs, b.Runs = nil, nil
		if fmt.Sprintf("%#v", a) != fmt.Sprintf("%#v", b) {
			t.Errorf("%s aggregates differ:\nParallelism 1: %#v\nParallelism 4: %#v", cell, a, b)
		}
	}

	resilience := func(par int) []ResiliencePoint {
		return RunResilienceSweep(ResilienceSweep{
			Base:        parallelismBase(),
			Protocols:   []Protocol{RMAC, MX},
			Levels:      DefaultBurstLevels()[2:4],
			Seeds:       3,
			Parallelism: par,
		})
	}
	rserial, rparallel := resilience(1), resilience(4)
	for i := range rserial {
		cell := fmt.Sprintf("resilience cell %d", i)
		requireSeedOrder(t, cell, rserial[i].Runs, 3)
		requireSeedOrder(t, cell, rparallel[i].Runs, 3)
		a, b := rserial[i], rparallel[i]
		if a.FailedRuns > 0 || a.Delivery == 0 {
			t.Fatalf("%s: %d failed runs, delivery %v: the sweep measures nothing", cell, a.FailedRuns, a.Delivery)
		}
		a.Runs, b.Runs = nil, nil
		if fmt.Sprintf("%#v", a) != fmt.Sprintf("%#v", b) {
			t.Errorf("%s aggregates differ:\nParallelism 1: %#v\nParallelism 4: %#v", cell, a, b)
		}
	}
}
