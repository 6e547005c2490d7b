package experiment

import (
	"context"
	"fmt"
	"math/bits"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rmac/internal/geom"
	"rmac/internal/phy"
	"rmac/internal/sim"
	"rmac/internal/topo"
)

// Sharded conservative parallel runs (Config.Shards > 1). The field is cut
// into vertical strips by population quantile (snapped to the widest
// nearby X-gap), each strip gets a complete private stack — engine,
// medium, MACs, routing, apps, fault injector, auditor, built by the
// classic run's network.addStack — and the strips synchronize through the
// frontier protocol of sim.ShardSync with the cross-shard conduit of
// phy.ConnectShards carrying border traffic. Strips that can influence
// each other, a connected component of the lookahead graph, are stepped in
// turn on one goroutine; the components run in parallel. See DESIGN.md §14
// for the protocol, its liveness argument, and the determinism contract.
//
// The protocol runs under *mobility epochs* (DESIGN.md §15): the horizon
// is divided into fixed-length epochs, per-node displacement within one
// epoch is bounded by MaxSpeed·epoch, and at every epoch boundary all
// components join the run's goroutine, which recomputes the lookahead
// matrix, the border-band membership and the components from the
// boundary positions, which it reads from the nodes' own waypoint models.
// A stationary run is the case of envelope 0 and a single epoch that
// outlasts the horizon: it never rolls over.

// ShardSeedMix decorrelates per-shard engine RNG streams from each other
// and from the unsharded stream while keeping them functions of
// (Config.Seed, shard). The 64-bit golden-ratio constant, reinterpreted
// as a signed word.
const ShardSeedMix = int64(-7046029254386353131) // 0x9E3779B97F4A7C15

func shardSeed(seed int64, shard int) int64 {
	return seed ^ int64(shard+1)*ShardSeedMix
}

// ShardRunStats is one shard's scheduler observability. Everything but
// StallWall and StallHist is deterministic for a fixed (Seed, Shards): a
// component's shards are stepped in a fixed order on one goroutine, so
// where windows end and when a shard cannot advance depend neither on
// goroutine scheduling nor on GOMAXPROCS. None of it enters
// RunResult.Fingerprint.
type ShardRunStats struct {
	Shard   int
	Nodes   int
	Events  uint64
	Windows uint64 // Run windows executed
	MsgsOut uint64 // cross-shard messages sent
	MsgsIn  uint64 // cross-shard messages delivered
	// Solo counts the epochs, the last one included, in which the shard
	// was a component of its own: no finite lookahead joined it to another
	// shard, so it ran on a goroutine of its own, in parallel with the
	// rest. A stationary run has one epoch.
	Solo uint64
	// Mobility epoch counters (zero when stationary): boundary rollovers
	// this shard took part in, and ghost record firings it received.
	Epochs    uint64
	GhostAdds uint64
	GhostDels uint64
	// Stalls counts the steps in which the shard could not advance, plus
	// one stall per epoch join. A step stall is attributed to the term that
	// bound the target (see StallBounds): StallBy[k] counts those bound by
	// shard k's frontier plus lookahead. No target has a term of the
	// shard's own, so StallBy[Shard] is always 0. StallEpoch counts the
	// joins, one per rollover.
	Stalls     uint64
	StallBy    []uint64
	StallEpoch uint64
	// StallWall is the wall time the shard's component waited at the
	// epoch joins for the other components; StallHist buckets those waits
	// by power-of-two nanoseconds (bucket i counts waits in [2^(i-1),
	// 2^i)). A coupled component takes turns inside its goroutine and never
	// waits otherwise.
	StallWall time.Duration
	StallHist [40]uint64
}

// StallBounds splits Stalls by the term that bound them: a neighbour's
// frontier or the epoch join.
func (s *ShardRunStats) StallBounds() (neighbour, epoch uint64) {
	for _, n := range s.StallBy {
		neighbour += n
	}
	return neighbour, s.StallEpoch
}

// stalled records one step in which the shard could not advance, bound by
// shard by's term of the target.
func (s *ShardRunStats) stalled(by int) {
	s.Stalls++
	s.StallBy[by]++
}

// joined records one epoch join at which the shard's component waited
// wait for the others.
func (s *ShardRunStats) joined(wait time.Duration) {
	s.Stalls++
	s.StallEpoch++
	s.StallWall += wait
	s.StallHist[min(bits.Len64(uint64(wait.Nanoseconds())), len(s.StallHist)-1)]++
}

// shardedRun is the coordinator state of one sharded simulation: the
// network with one stack per strip, the cross-shard fabric, and the
// coupled components the strips are stepped in. A shard's engine, stats,
// done and frontier are touched only by its component's goroutine within
// an epoch, and by the run's goroutine at the join.
type shardedRun struct {
	*network
	net   *phy.ShardNet
	sync  *sim.ShardSync
	stats []ShardRunStats // by shard
	done  []sim.Time      // by shard: every event at or before done[j] has run
	comps [][]int         // the current epoch's coupled components

	// Mobility epoch state. epoch is sim.MaxTime for a stationary run;
	// posB is read and written only at the join.
	epoch sim.Time
	posB  []geom.Point

	stop   atomic.Bool // an abort or a panic: every component returns
	cancel context.CancelFunc

	mu        sync.Mutex
	panicked  bool
	panicMsg  string
	panicDump string
}

// buildSharded assembles one stack per strip and the cross-shard fabric.
func buildSharded(cfg Config) *shardedRun {
	n := newNetwork(cfg)
	part := topo.PartitionStrips(n.placement, cfg.Shards)
	sr := &shardedRun{network: n, stats: make([]ShardRunStats, cfg.Shards), done: make([]sim.Time, cfg.Shards)}
	mediums := make([]*phy.Medium, cfg.Shards)
	for s := range mediums {
		ids := part.Nodes[s]
		mediums[s] = n.addStack(shardSeed(cfg.Seed, s), ids).medium
		sr.stats[s] = ShardRunStats{Shard: s, Nodes: len(ids), StallBy: make([]uint64, cfg.Shards)}
		sr.done[s] = -1
	}
	sr.epoch = sim.MaxTime
	envelope := cfg.shardEnvelope()
	if envelope > 0 {
		sr.epoch = cfg.shardEpoch()
		if w := part.MinStripWidth(cfg.Field.W); envelope >= w {
			// Sound but hopeless: border bands spanning whole strips pin
			// every pairwise lookahead near the 1 ns floor. Validate already
			// rejects this against the mean strip width; this guard catches
			// placements whose population-quantile cuts came out narrower.
			panic(fmt.Sprintf("experiment: mobility envelope %.1fm exceeds the narrowest %.1fm strip; shorten ShardEpoch or use fewer shards", envelope, w))
		}
		sr.posB = make([]geom.Point, cfg.Nodes)
	}
	sr.net = phy.ConnectShards(mediums, n.placement.Points, part.Shard, cfg.Horizon(), envelope)
	sr.sync = sr.net.Sync()
	for j := range sr.stacks {
		sr.publish(j)
	}
	sr.comps = components(sr.net.Direct())
	return sr
}

// components groups the shards into the connected components of the
// lookahead graph, where a finite direct entry either way couples two
// shards; each component lists its shards in ascending order, and the
// components are ordered by their lowest shard.
func components(direct [][]sim.Time) [][]int {
	seen := make([]bool, len(direct))
	var comps [][]int
	for s := range direct {
		if seen[s] {
			continue
		}
		seen[s] = true
		comp := []int{s}
		for i := 0; i < len(comp); i++ {
			k := comp[i]
			for j := range direct {
				if !seen[j] && (direct[k][j] != sim.MaxTime || direct[j][k] != sim.MaxTime) {
					seen[j] = true
					comp = append(comp, j)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// runSharded executes cfg on the sharded engine. Config must be valid and
// cfg.Shards > 1. A panic while building reaches RunCtx's recover on this
// goroutine; each component recovers its own (runComponent).
func runSharded(ctx context.Context, cfg Config) RunResult {
	sr := buildSharded(cfg)
	ctx, sr.cancel = context.WithCancel(ctx)
	defer sr.cancel()
	sr.arm(ctx)
	end := cfg.Horizon()
	// B is the next epoch boundary: every window of the epoch ends before
	// it, because the current lookahead tables hold only for events
	// strictly before it. The epoch that contains the horizon is the last.
	for B := sr.epoch; ; B += sr.epoch {
		sr.runEpoch(min(B-1, end), B <= end)
		if B > end || sr.stop.Load() {
			break
		}
		sr.join(B)
	}
	if sr.panicked {
		return RunResult{Config: cfg, Failed: true, FailReason: sr.panicMsg, Stack: sr.panicDump}
	}
	return sr.collect()
}

// runEpoch steps every component through limit, each on a goroutine of
// its own except the first, which runs on the caller's, and returns once
// all are done. When a rollover follows, each component's wait for the
// others is charged to its shards as their epoch stall.
func (sr *shardedRun) runEpoch(limit sim.Time, rollover bool) {
	finish := make([]time.Time, len(sr.comps))
	var wg sync.WaitGroup
	for c := 1; c < len(sr.comps); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sr.runComponent(sr.comps[c], limit)
			finish[c] = time.Now()
		}()
	}
	sr.runComponent(sr.comps[0], limit)
	finish[0] = time.Now()
	wg.Wait()
	joined := time.Now()
	for c, comp := range sr.comps {
		for _, j := range comp {
			if len(comp) == 1 {
				sr.stats[j].Solo++
			}
			if rollover {
				sr.stats[j].joined(joined.Sub(finish[c]))
			}
		}
	}
}

// join rolls the run over the epoch boundary B, on the run's goroutine
// once every component has run all its events before B. It rebuilds the
// fabric from the boundary positions — Rebuild delivers the ghost records
// at B, which lowers their receivers' frontiers, and re-closes the
// lookahead — and regroups the shards. Every frontier stays its shard's
// exact next event.
//
// The positions come from the live waypoint models, which no component
// touches during the join; the next epoch's go statements order these
// reads before its shards' own queries. Reading at B raises each model's
// newest query to B, and every later backward query (the conduit's, at
// most a propagation delay behind its shard's clock, which is past B)
// lies far inside the model's retention horizon.
func (sr *shardedRun) join(B sim.Time) {
	for i, mdl := range sr.waypoints {
		sr.posB[i] = mdl.PositionAt(B)
	}
	sr.net.Rebuild(sr.posB, B)
	for j := range sr.stats {
		sr.stats[j].Epochs++
	}
	sr.comps = components(sr.net.Direct())
}

// fail records a component's panic (first one wins).
func (sr *shardedRun) fail(r any, stack []byte) {
	sr.mu.Lock()
	if !sr.panicked {
		sr.panicked = true
		sr.panicMsg = fmt.Sprintf("panic: %v", r)
		sr.panicDump = string(stack)
	}
	sr.mu.Unlock()
}

// abort stops every component at its next step and every engine at its
// next context poll.
func (sr *shardedRun) abort() {
	sr.stop.Store(true)
	sr.cancel()
}

// runComponent steps the shards of one coupled component in rounds, in
// ascending order, until every one has run all its events through limit.
// A round in which no window runs cannot happen while a shard is
// unfinished (DESIGN.md §14): every frontier is its shard's exact next
// event, none changed during the round, and the unfinished shard with the
// earliest next event would have advanced. Such a round is a protocol
// bug, and runComponent panics rather than spin.
func (sr *shardedRun) runComponent(comp []int, limit sim.Time) {
	defer func() {
		if r := recover(); r != nil {
			sr.fail(r, debug.Stack())
			sr.abort()
		}
	}()
	for !sr.stop.Load() {
		ran, finished := false, true
		for _, j := range comp {
			ran = sr.step(j, limit) || ran
			finished = finished && sr.done[j] >= limit
		}
		if finished {
			return
		}
		if !ran {
			panic(fmt.Sprintf("experiment: no shard of component %v can advance toward %v", comp, limit))
		}
	}
}

// step is one turn of shard j: it reads the safe target, runs a window
// through min(target−1, limit) and publishes the frontier the window left
// behind, then asks again, so a window that a cross-shard send cut short
// goes on as far as the receiver's lowered frontier allows. The ask that
// cannot advance ends the step, and counts as a stall if no window ran
// before it. step reports whether a window ran.
func (sr *shardedRun) step(j int, limit sim.Time) (ran bool) {
	for !sr.stop.Load() {
		target, by := sr.sync.Target(j)
		to := min(target-1, limit) // events at exactly `target` are not yet safe
		if to <= sr.done[j] {
			if !ran && sr.done[j] < limit {
				sr.stats[j].stalled(by)
			}
			return ran
		}
		sr.window(j, to)
		sr.publish(j)
		ran = true
	}
	return true
}

// publish sets shard j's frontier to its engine's next event. It runs at
// build and after every window; in between, deliveries to j keep the
// frontier exact by lowering it (phy.ShardNet.Sync).
func (sr *shardedRun) publish(j int) {
	sr.sync.Publish(j, sr.stacks[j].eng.NextLowerBound())
}

// window runs shard j's engine through limit. done[j] advances to limit,
// or, when a cross-shard send cut the window, to just before the cut's
// instant, whose remaining events are still to run. An engine abort
// (watchdog budget or context cancellation — each shard polls the run
// context itself, every 1024 events) stops the whole run.
func (sr *shardedRun) window(j int, limit sim.Time) {
	eng := sr.stacks[j].eng
	eng.Run(limit)
	sr.stats[j].Windows++
	if _, aborted := eng.Aborted(); aborted {
		sr.abort()
	}
	if eng.Stopped() {
		sr.done[j] = eng.Now() - 1
	} else {
		sr.done[j] = limit
	}
}

// collect is the network's collector plus the per-shard scheduler stats.
func (sr *shardedRun) collect() RunResult {
	res := sr.network.collect()
	for j, st := range sr.stacks {
		ss, cs := &sr.stats[j], sr.net.Stats(j)
		ss.Events = st.eng.Processed
		ss.MsgsOut, ss.MsgsIn = cs.MsgsOut, cs.MsgsIn
		ss.GhostAdds, ss.GhostDels = cs.GhostAdds, cs.GhostDels
	}
	res.Shards = sr.stats
	return res
}
