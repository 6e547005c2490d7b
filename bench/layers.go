package main

import (
	"fmt"
	"time"

	"rmac/internal/experiment"
)

// counters folds program counters of untraced runs into per-layer ratios.
type counters struct {
	simSecs                    float64
	events                     uint64
	arenaPeak                  int
	decoded, corrupt           uint64
	retx, reliable             uint64
	queueDrops, enqueued       uint64
	receptions, dups, supposed uint64

	// Sharded runs only.
	stallWall, shardWall float64 // seconds; shardWall = shards × run wall
	shardEvents, windows uint64
	imbalance            []float64
	crossMsgs            uint64
	ghostChanges, epochs uint64
}

func (c *counters) add(res *experiment.RunResult, wall float64) {
	tot := &res.Totals
	c.simSecs += res.Config.Horizon().Seconds()
	c.events += res.Events
	c.arenaPeak = max(c.arenaPeak, tot.ArenaCap)
	c.decoded += tot.Medium.FramesDecoded
	c.corrupt += tot.Medium.FramesCorrupt
	c.retx += tot.Retransmissions
	c.reliable += tot.ReliableToTransmit
	c.queueDrops += tot.QueueDrops
	c.enqueued += tot.Enqueued
	c.receptions += res.Metrics.Receptions
	c.dups += res.Metrics.Duplicates
	c.supposed += res.Metrics.Generated * uint64(res.Config.Nodes-1)
	if len(res.Shards) == 0 {
		return
	}
	var most, sum uint64
	for _, s := range res.Shards {
		c.stallWall += s.StallWall.Seconds()
		c.windows += s.Windows
		c.crossMsgs += s.MsgsOut
		c.ghostChanges += s.GhostAdds + s.GhostDels
		c.epochs += s.Epochs
		sum += s.Events
		most = max(most, s.Events)
	}
	c.shardEvents += sum
	c.shardWall += float64(len(res.Shards)) * wall
	c.imbalance = append(c.imbalance, float64(most)*float64(len(res.Shards))/float64(sum))
}

// ratio is num/den, 0 when den is 0 (a layer with no work of that kind).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer is the -trace 1 measurement. Every config of the window's
// passes runs untraced through experiment.Run, for the program counters,
// and unsharded on the traced mirror, for the layer split; the mirror's
// fingerprint must equal the untraced unsharded run's.
func perLayer(w *workload, seed int64, window time.Duration, setup setupStats, t *tally) map[string]metric {
	var c counters
	tr := newTracer()
	var tracedWall, baseWall, tracedSimSecs float64
	forPasses(w, seed, window, func(_ int, cfg experiment.Config) {
		t0 := time.Now()
		res := experiment.Run(cfg)
		wall := time.Since(t0).Seconds()
		t.check(runName(cfg), checkRun(&res))
		c.add(&res, wall)

		// The traced split is of the unsharded stack; a sharded config is
		// re-run unsharded as the mirror's reference.
		ucfg := cfg
		if cfg.Shards > 1 {
			ucfg.Shards = 0
			t0 = time.Now()
			res = experiment.Run(ucfg)
			wall = time.Since(t0).Seconds()
			t.check("unsharded "+runName(ucfg), checkRun(&res))
		}
		t0 = time.Now()
		traced, err := tracedRun(ucfg, tr)
		tracedWall += time.Since(t0).Seconds()
		baseWall += wall
		tracedSimSecs += ucfg.Horizon().Seconds()
		if err == nil && traced.Fingerprint() != res.Fingerprint() {
			err = fmt.Errorf("traced mirror's fingerprint differs from experiment.Run's")
		}
		t.check("traced "+runName(ucfg), err)
	})

	m := map[string]metric{}
	var selfTotal time.Duration
	for _, d := range tr.self {
		selfTotal += d
	}
	for l, name := range layerNames {
		self, calls := float64(tr.self[l]), float64(tr.calls[l])
		m[name+".self_frac"] = metric{ratio(self, float64(selfTotal)), "fraction"}
		m[name+".calls_per_simsec"] = metric{ratio(calls, tracedSimSecs), "1/s"}
		m[name+".ns_per_call"] = metric{ratio(self, calls), "ns"}
	}
	m["mac.timer_calls_per_simsec"] = metric{ratio(float64(tr.timerCalls), tracedSimSecs), "1/s"}
	m["bench.trace_overhead_x"] = metric{ratio(tracedWall, baseWall), "x"}

	m["sim.events_per_simsec"] = metric{ratio(float64(c.events), c.simSecs), "1/s"}
	m["sim.arena_peak"] = metric{float64(c.arenaPeak), "count"}
	m["phy.corrupt_frac"] = metric{ratio(float64(c.corrupt), float64(c.corrupt+c.decoded)), "fraction"}
	m["mac.retx_per_reliable"] = metric{ratio(float64(c.retx), float64(c.reliable)), "fraction"}
	m["mac.queue_drop_frac"] = metric{ratio(float64(c.queueDrops), float64(c.queueDrops+c.enqueued)), "fraction"}
	m["app.dup_frac"] = metric{ratio(float64(c.dups), float64(c.dups+c.receptions)), "fraction"}
	m["app.delivery"] = metric{ratio(float64(c.receptions), float64(c.supposed)), "fraction"}

	place, setupWall := quantile(setup.place, 0.5), quantile(setup.wall, 0.5)
	m["topo.placement_s"] = metric{place, "s"}
	m["experiment.build_s"] = metric{setupWall - place, "s"}
	m["experiment.setup_alloc_mb"] = metric{quantile(setup.allocMB, 0.5), "MB"}

	// Unsharded workloads read 0 here: no shard ever waited or crossed.
	m["sim.shard_stall_frac"] = metric{ratio(c.stallWall, c.shardWall), "fraction"}
	m["sim.shard_events_per_window"] = metric{ratio(float64(c.shardEvents), float64(c.windows)), "count"}
	m["sim.shard_imbalance"] = metric{quantile(c.imbalance, 0.5), "x"}
	m["phy.cross_msgs_per_kevent"] = metric{ratio(float64(c.crossMsgs), float64(c.shardEvents)/1000), "count"}
	m["phy.cross_ghost_changes_per_epoch"] = metric{ratio(float64(c.ghostChanges), float64(c.epochs)), "count"}
	return m
}
