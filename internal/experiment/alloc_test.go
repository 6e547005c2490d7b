package experiment

import (
	"runtime"
	"testing"

	"rmac/internal/geom"
	"rmac/internal/sim"
)

// TestSteadyStateAllocs is the allocation regression gate for the pooled
// frame lifecycle (DESIGN.md §9): once a network is warmed up — pools
// populated, topology converged, queues in steady state — driving the
// simulation forward must allocate (almost) nothing per event. The
// tolerated residue covers genuinely unbounded bookkeeping: the app-level
// duplicate-suppression bitsets and the MRTS length sample both grow with
// unique packets, amortizing to well under one allocation per hundred
// events. A regression that re-introduces per-frame or per-timer garbage
// shows up here as allocs/event jumping by an order of magnitude.
func TestSteadyStateAllocs(t *testing.T) {
	protos := []Protocol{RMAC, BMMM, BMW, LBP, MX, DOT11}
	for _, p := range protos {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Protocol = p
			cfg.Nodes = 25
			cfg.Field = geom.Rect{W: 300, H: 200}
			cfg.Rate = 40
			cfg.Packets = 1 << 20 // keep the source busy past the window
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			eng := build(cfg).stacks[0].eng

			// Warm up: routing convergence plus two seconds of traffic so
			// every pool and reusable buffer reaches working-set size.
			warm := cfg.Warmup + 2*sim.Second
			eng.Run(warm)

			var before, after runtime.MemStats
			ev0 := eng.Processed
			runtime.ReadMemStats(&before)
			eng.Run(warm + 3*sim.Second)
			runtime.ReadMemStats(&after)
			events := eng.Processed - ev0

			if events == 0 {
				t.Fatal("no events in measurement window")
			}
			allocs := after.Mallocs - before.Mallocs
			perEvent := float64(allocs) / float64(events)
			t.Logf("%s: %d allocs over %d events (%.5f allocs/event)", p, allocs, events, perEvent)
			if perEvent > 0.005 {
				t.Errorf("steady state allocates %.5f allocs/event (%d over %d events), want ≤ 0.005",
					perEvent, allocs, events)
			}
		})
	}
}

// metroDistricts is a metro run of d identical districts: 500 nodes in
// each 601.5625 m × 1200 m district, the default 112.5 m gaps between
// them, one 16-packet 40 pps source per district and a 1.5 s warm-up.
func metroDistricts(d int) Config {
	cfg := DefaultConfig()
	cfg.Topo = TopoMetro
	cfg.Nodes = 500 * d
	cfg.Districts = d
	cfg.Sources = d
	cfg.Field = geom.Rect{W: 601.5625*float64(d) + 112.5*float64(d-1), H: 1200}
	cfg.Rate = 40
	cfg.Packets = 16
	cfg.Warmup = 1500 * sim.Millisecond
	cfg.Drain = 500 * sim.Millisecond
	return cfg
}

// TestPerNodeStateLinear is the linearity gate on per-node state: four
// times the districts of the same geometry must cost about the same bytes
// per node. Per-node tables indexed by global node id grow with the
// network and fail it (3.5× at 4000 vs 1000 nodes); tables sized by what a
// node actually hears — its neighbours, its sources — pass near 1×.
func TestPerNodeStateLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 4000-node simulation")
	}
	perNode := func(d int) float64 {
		cfg := metroDistricts(d)
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res := Run(cfg)
		runtime.ReadMemStats(&after)
		if res.Failed {
			t.Fatalf("%d districts failed: %s\n%s", d, res.FailReason, res.Stack)
		}
		if res.Metrics.Receptions == 0 {
			t.Fatalf("%d districts delivered nothing", d)
		}
		b := float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.Nodes)
		t.Logf("%d nodes / %d districts: %.0f B/node", cfg.Nodes, d, b)
		return b
	}
	small, large := perNode(2), perNode(8)
	if ratio := large / small; ratio > 1.25 {
		t.Errorf("bytes per node grow %.2f× from 1000 to 4000 nodes, want ≤ 1.25×", ratio)
	} else {
		t.Logf("bytes per node ratio %.2f×", ratio)
	}
}

// TestMobileSetupPerNode is the per-node gate on what mobility costs to
// set up: building a 1000-node Poisson placement, a moving node may
// allocate at most 1 KB more than a stationary one, on one engine and on
// two shards. A math/rand source seeded per node (4.9 KB of register) or
// a second model per node fails it.
func TestMobileSetupPerNode(t *testing.T) {
	perNode := func(sc Scenario, shards int) float64 {
		cfg := DefaultConfig()
		cfg.Topo = TopoPoisson
		cfg.Nodes = 1000
		cfg.Field = geom.Rect{W: 1840, H: 920}
		cfg.Sources = 4
		cfg.Scenario = sc
		cfg.Shards = shards
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if shards > 1 {
			buildSharded(cfg)
		} else {
			build(cfg)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.Nodes)
	}
	for _, shards := range []int{0, 2} {
		still, moving := perNode(Stationary, shards), perNode(Speed1, shards)
		t.Logf("shards %d: %.0f B/node stationary, %.0f B/node speed1", shards, still, moving)
		if gap := moving - still; gap > 1024 {
			t.Errorf("shards %d: a moving node costs %.0f B more to build than a stationary one, want ≤ 1024", shards, gap)
		}
	}
}
