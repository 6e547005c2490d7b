// Benchmarks regenerating each experiment of the paper's evaluation
// (DESIGN.md E0–E8) at benchmark-friendly scale. Each benchmark runs the
// exact code path of its figure and reports the figure's headline numbers
// as custom metrics; cmd/rmacfigs produces the full-resolution series.
//
// Run them all:
//
//	go test -bench=. -benchmem
package rmac

import (
	"fmt"
	"math"
	"testing"

	"rmac/internal/frame"
	"rmac/internal/phy"
	"rmac/internal/sim"
)

// benchConfig is the reduced-scale network used by the figure benchmarks:
// large enough to have a multi-hop tree with contention, small enough to
// run in tens of milliseconds.
func benchConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 30
	cfg.Field = Rect{W: 320, H: 200}
	cfg.Packets = 60
	cfg.Rate = 40
	return cfg
}

func runPair(b *testing.B, sc Scenario, rate float64) (rmacRes, bmmmRes RunResult) {
	b.Helper()
	cfg := benchConfig()
	cfg.Scenario = sc
	cfg.Rate = rate
	cfg.Seed = int64(b.N) // vary work across iterations deterministically
	r := cfg
	r.Protocol = RMAC
	m := cfg
	m.Protocol = BMMM
	return Run(r), Run(m)
}

// BenchmarkControlOverheadAnalysis reproduces E0, the §2 arithmetic: the
// PLCP overhead (96 µs), the ACK airtime (56 µs + PLCP) and BMMM's 632n µs
// control cost per data frame, measured from the frame codec + PHY timing.
func BenchmarkControlOverheadAnalysis(b *testing.B) {
	cfg := phy.DefaultConfig()
	var per sim.Time
	for i := 0; i < b.N; i++ {
		per = cfg.TxDuration(frame.RTSLen) + cfg.TxDuration(frame.CTSLen) +
			cfg.TxDuration(frame.RAKLen) + cfg.TxDuration(frame.ACKLen)
	}
	if per != 632*sim.Microsecond {
		b.Fatalf("BMMM per-receiver control airtime = %v, want 632µs", per)
	}
	b.ReportMetric(per.Micros(), "µs/receiver")
	b.ReportMetric(phy.PLCPOverhead.Micros(), "µs/PLCP")
}

// BenchmarkTreeTopology reproduces E1 (§4.1.1): tree statistics over
// random connected placements of the paper's network.
func BenchmarkTreeTopology(b *testing.B) {
	var hops, children float64
	n := 0
	for i := 0; i < b.N; i++ {
		ts, ok := AnalyzeTopology(75, Rect{W: 500, H: 300}, 75, int64(i))
		if !ok {
			b.Fatal("no connected placement")
		}
		hops += ts.Hops.Mean
		children += ts.Children.Mean
		n++
	}
	b.ReportMetric(hops/float64(n), "hops-avg")
	b.ReportMetric(children/float64(n), "children-avg")
}

// BenchmarkFig7DeliveryRatio reproduces E2: packet delivery ratio, RMAC
// vs BMMM, stationary panel.
func BenchmarkFig7DeliveryRatio(b *testing.B) {
	var r, m RunResult
	for i := 0; i < b.N; i++ {
		r, m = runPair(b, Stationary, 40)
	}
	b.ReportMetric(r.Delivery, "rmac-deliv")
	b.ReportMetric(m.Delivery, "bmmm-deliv")
}

// BenchmarkFig8DropRatio reproduces E3: average packet drop ratio over
// non-leaf nodes.
func BenchmarkFig8DropRatio(b *testing.B) {
	var r, m RunResult
	for i := 0; i < b.N; i++ {
		r, m = runPair(b, Stationary, 80)
	}
	b.ReportMetric(r.AvgDropRatio, "rmac-drop")
	b.ReportMetric(m.AvgDropRatio, "bmmm-drop")
}

// BenchmarkFig9EndToEndDelay reproduces E4: average end-to-end delay.
func BenchmarkFig9EndToEndDelay(b *testing.B) {
	var r, m RunResult
	for i := 0; i < b.N; i++ {
		r, m = runPair(b, Stationary, 80)
	}
	b.ReportMetric(r.AvgDelay, "rmac-delay-s")
	b.ReportMetric(m.AvgDelay, "bmmm-delay-s")
}

// BenchmarkFig10RetxRatio reproduces E5: average packet retransmission
// ratio.
func BenchmarkFig10RetxRatio(b *testing.B) {
	var r, m RunResult
	for i := 0; i < b.N; i++ {
		r, m = runPair(b, Stationary, 40)
	}
	b.ReportMetric(r.AvgRetxRatio, "rmac-retx")
	b.ReportMetric(m.AvgRetxRatio, "bmmm-retx")
}

// BenchmarkFig11OverheadRatio reproduces E6: average transmission
// overhead ratio (the paper's headline efficiency result: ≈0.2 for RMAC
// vs ≈1.0–1.1 for BMMM when stationary).
func BenchmarkFig11OverheadRatio(b *testing.B) {
	var r, m RunResult
	for i := 0; i < b.N; i++ {
		r, m = runPair(b, Stationary, 40)
	}
	b.ReportMetric(r.AvgOverheadRatio, "rmac-txoh")
	b.ReportMetric(m.AvgOverheadRatio, "bmmm-txoh")
}

// BenchmarkFig12MRTSLength reproduces E7: the MRTS length distribution
// (average / 99 percentile / max bytes).
func BenchmarkFig12MRTSLength(b *testing.B) {
	var s Summary
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.Seed = int64(i + 1)
		res := Run(cfg)
		s = res.MRTSLens.Summarize()
	}
	b.ReportMetric(s.Mean, "mrts-avg-B")
	b.ReportMetric(s.P99, "mrts-p99-B")
	b.ReportMetric(s.Max, "mrts-max-B")
}

// BenchmarkFig13AbortRatio reproduces E8: the MRTS abortion ratio
// distribution across non-leaf nodes.
func BenchmarkFig13AbortRatio(b *testing.B) {
	var s Summary
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.Rate = 80
		cfg.Seed = int64(i + 1)
		res := Run(cfg)
		s = res.AbortRatios.Summarize()
	}
	b.ReportMetric(s.Mean, "abort-avg")
	b.ReportMetric(s.Max, "abort-max")
}

// BenchmarkAblationNoRBT quantifies the DESIGN.md ablation: RMAC with RBT
// protection disabled (hidden-node exposure) against stock RMAC.
func BenchmarkAblationNoRBT(b *testing.B) {
	var on, off RunResult
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.Seed = int64(i + 1)
		on = Run(cfg)
		cfg.RMACOptions = RMACOptions{DisableRBTProtection: true}
		off = Run(cfg)
	}
	b.ReportMetric(on.AvgRetxRatio, "retx-with-rbt")
	b.ReportMetric(off.AvgRetxRatio, "retx-no-rbt")
}

// BenchmarkAblationReceiverLimit exercises the §3.4 receiver limit in a
// dense single-hop star (every node is the root's child, > 20 receivers):
// the stock limit of 20 splits each packet into two Reliable Send
// invocations, an unlimited MRTS sends one long frame. The metrics show
// the overhead cost of splitting against the longer-MRTS exposure.
func BenchmarkAblationReceiverLimit(b *testing.B) {
	var lim, unlim RunResult
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.Nodes = 30 // a 29-receiver one-hop star
		cfg.Field = Rect{W: 70, H: 50}
		cfg.Rate = 20
		cfg.Seed = int64(i + 1)
		lim = Run(cfg)
		cfg.Limits.MaxReceivers = frame.MaxReceivers
		unlim = Run(cfg)
	}
	b.ReportMetric(lim.AvgOverheadRatio, "txoh-limit20")
	b.ReportMetric(unlim.AvgOverheadRatio, "txoh-unlimited")
	b.ReportMetric(lim.MRTSLens.Max(), "mrtsmax-limit20-B")
	b.ReportMetric(unlim.MRTSLens.Max(), "mrtsmax-unlimited-B")
}

// BenchmarkFeedbackDisciplines runs §2's protocol-design comparison:
// delivery ratio under contention for sender-initiated positive feedback
// (RMAC) against leader feedback (LBP) and receiver-initiated busy-tone
// NAKs (802.11MX-style).
func BenchmarkFeedbackDisciplines(b *testing.B) {
	var r, l, m RunResult
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.Rate = 60
		cfg.Seed = int64(i + 1)
		c := cfg
		c.Protocol = RMAC
		r = Run(c)
		c = cfg
		c.Protocol = LBP
		l = Run(c)
		c = cfg
		c.Protocol = MX
		m = Run(c)
	}
	b.ReportMetric(r.Delivery, "rmac-deliv")
	b.ReportMetric(l.Delivery, "lbp-deliv")
	b.ReportMetric(m.Delivery, "mx-deliv")
}

// BenchmarkWholeRun measures whole-run simulator performance per MAC
// protocol (benchRuns' rates) and the total allocation bill of a run
// (allocs/op — setup plus steady state; the steady-state share is asserted
// ≈0 separately by the experiment package's allocation regression test).
// scripts/bench.sh records this suite in BENCH_run.json so the numbers are
// tracked per-commit.
func BenchmarkWholeRun(b *testing.B) {
	protos := []struct {
		name string
		p    Protocol
	}{
		{"rmac", RMAC},
		{"bmmm", BMMM},
		{"bmw", BMW},
		{"lbp", LBP},
		{"mx", MX},
		{"dot11", DOT11},
	}
	for _, tc := range protos {
		b.Run(tc.name, func(b *testing.B) {
			benchRuns(b, func() Config {
				cfg := benchConfig()
				cfg.Protocol = tc.p
				return cfg
			})
		})
	}
}

// benchShardedConfig is the metro workload of the sharded benchmarks:
// eight dense districts separated by more than the interference range,
// one multicast source per district, sized so district density stays near
// the paper's deployment. The district count is pinned at eight for every
// shard count, so shards1 and shards8 simulate the identical topology and
// traffic — the ns/op ratio between them is a pure engine comparison.
func benchShardedConfig(nodes, shards int) Config {
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	cfg.Topo = TopoMetro
	cfg.Districts = 8
	cfg.Sources = 8
	cfg.Shards = shards
	// Field area scales with the population (≈1e-3 nodes/m² inside a
	// district, twice the paper's density); the default inter-district
	// gap of 1.5× the interference range keeps districts RF-decoupled.
	if nodes >= 10000 {
		cfg.Field = Rect{W: 5600, H: 2000}
	} else {
		cfg.Field = Rect{W: 2800, H: 600}
	}
	cfg.Rate = 40
	cfg.Packets = 64
	cfg.Warmup = 2 * sim.Second
	cfg.Drain = sim.Second
	return cfg
}

// benchRuns runs whole simulations of config, seeded 1, 2, …, and reports
// their event throughput, wall time per event, simulated seconds per
// second and wall time per simulated node-second; events count across all
// shards. How many events a simulation takes depends on how the engine
// schedules it, not only on what it simulates, so events/s and ns/event
// compare only builds that schedule alike; simsec/s and ns/node-simsec
// compare any two.
func benchRuns(b *testing.B, config func() Config) {
	b.ReportAllocs()
	var events uint64
	var simulated sim.Time
	var nodeSeconds float64
	for i := 0; i < b.N; i++ {
		cfg := config()
		cfg.Seed = int64(i + 1)
		res := Run(cfg)
		if res.Failed {
			b.Fatal(res.FailReason)
		}
		if res.Aborted {
			b.Fatal(res.AbortReason)
		}
		events += res.Events
		simulated += cfg.Horizon()
		nodeSeconds += float64(cfg.Nodes) * cfg.Horizon().Seconds()
	}
	wall := b.Elapsed()
	b.ReportMetric(float64(events)/wall.Seconds(), "events/s")
	b.ReportMetric(float64(wall.Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(simulated.Seconds()/wall.Seconds(), "simsec/s")
	b.ReportMetric(float64(wall.Nanoseconds())/nodeSeconds, "ns/node-simsec")
}

// BenchmarkWholeRunSharded measures the spatially sharded conservative
// engine (DESIGN.md §14) end to end at 1k and 10k nodes across shard
// counts. shards1 is the plain single-engine path on the same workload,
// so ns/op(shards1)/ns/op(shardsN) is the parallel speedup on the
// recording host; events/s counts events across all shards.
// scripts/bench.sh records this suite in BENCH_shard.json. Parallel
// speedup is bounded by the host's core count (the -GOMAXPROCS suffix in
// the raw benchmark output); the metro districts decouple, so each shard
// runs on a goroutine of its own, and a single-core host serialises them
// and measures only the win of the smaller per-shard working sets.
func BenchmarkWholeRunSharded(b *testing.B) {
	for _, nodes := range []int{1000, 10000} {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("n%d/shards%d", nodes, shards), func(b *testing.B) {
				benchRuns(b, func() Config { return benchShardedConfig(nodes, shards) })
			})
		}
	}
}

// BenchmarkWholeRunShardedMobile is BenchmarkWholeRunSharded with every
// node on a Speed1 random-waypoint trajectory (DESIGN.md §15): the run
// pays for epoch joins, lookahead-matrix rebuilds, ghost-set diffs,
// regrouping as districts couple, and live-position cross-shard physics
// on top of the stationary
// workload. ns_op(stationary)/ns_op(mobile) at equal shard counts is the
// mobility-epoch overhead; scripts/bench.sh records this suite alongside
// the stationary rows in BENCH_shard.json.
func BenchmarkWholeRunShardedMobile(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("n1000/shards%d", shards), func(b *testing.B) {
			benchRuns(b, func() Config {
				cfg := benchShardedConfig(1000, shards)
				cfg.Scenario = Speed1
				return cfg
			})
		})
	}
}

// benchCoupledConfig is the coupled-cut workload of the sharded
// benchmarks: 2000 stationary nodes on a Poisson-disc placement with no
// voids for the strip cuts to fall into, so every shard pair that borders
// is coupled at radio-range lookahead — the poisson-2k-shard2 shape of
// BENCHMARK.json, at any shard count. Four RMAC sources, 16 packets at
// 40 pps, 1.5 s warm-up and 0.5 s drain.
func benchCoupledConfig(shards int) Config {
	cfg := DefaultConfig()
	cfg.Nodes = 2000
	cfg.Topo = TopoPoisson
	cfg.Field = Rect{W: 2600, H: 1300}
	cfg.Sources = 4
	cfg.Shards = shards
	cfg.Rate = 40
	cfg.Packets = 16
	cfg.Warmup = 1500 * sim.Millisecond
	cfg.Drain = 500 * sim.Millisecond
	return cfg
}

// BenchmarkWholeRunShardedCoupled measures the sharded engine where it
// has to synchronize hardest: on a coupled cut, every window is bounded by
// a neighbour's frontier plus a sub-µs lookahead, and every shard is in
// one component that takes turns on one goroutine, so the run's cost is
// the simulation's plus the per-window stepping (DESIGN.md §14). shards1
// is the single engine on the same topology and traffic. scripts/bench.sh
// records this suite in BENCH_shard.json.
func BenchmarkWholeRunShardedCoupled(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("n2000/shards%d", shards), func(b *testing.B) {
			benchRuns(b, func() Config { return benchCoupledConfig(shards) })
		})
	}
}

// benchScaleConfig is the metro workload of BenchmarkWholeRunSharded on
// one engine, on the field shape of the benchmark suite's metro-4k
// (BENCHMARK.json) scaled to any population: 2800·√(N/1000) ×
// 600·√(N/1000) m, so district density stays the same as N grows.
func benchScaleConfig(nodes int) Config {
	s := math.Sqrt(float64(nodes) / 1000)
	cfg := benchShardedConfig(nodes, 1)
	cfg.Field = Rect{W: 2800 * s, H: 600 * s}
	return cfg
}

// BenchmarkWholeRunScale is the scale ladder of one engine: the same
// metro workload at constant district density from 1k to 16k nodes.
// Traffic runs long enough (64 packets from each of the eight sources)
// that events per node per simulated second stay within about 25% along
// the ladder (≈1350 at 1k and 4k nodes, ≈1030 at 16k), so ns/event
// growing with N is mostly engine cost: scattered per-node memory and
// per-event work that depends on N. scripts/bench.sh records this suite
// in BENCH_shard.json.
func BenchmarkWholeRunScale(b *testing.B) {
	for _, nodes := range []int{1000, 2000, 4000, 8000, 16000} {
		b.Run(fmt.Sprintf("n%d", nodes), func(b *testing.B) {
			benchRuns(b, func() Config { return benchScaleConfig(nodes) })
		})
	}
}

// BenchmarkSimulatorThroughput measures raw event throughput of the
// kernel+PHY+MAC stack — the engineering metric for the simulator itself.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var events uint64
	var simulated sim.Time
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.Seed = int64(i + 1)
		res := Run(cfg)
		events += res.Events
		simulated += cfg.Horizon()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(simulated.Seconds()/b.Elapsed().Seconds(), "simsec/s")
}
