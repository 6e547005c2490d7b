package experiment

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"rmac/internal/geom"
	"rmac/internal/mobility"
	"rmac/internal/phy"
	"rmac/internal/sim"
	"rmac/internal/topo"
)

// Sharded conservative parallel runs (Config.Shards > 1). The field is cut
// into vertical strips by population quantile (snapped to the widest
// nearby X-gap), each strip gets a complete private stack — engine,
// medium, MACs, routing, apps, fault injector, auditor, built by the
// classic run's network.addStack — on its own goroutine, and the strips
// synchronize through the frontier protocol of
// sim.ShardSync with the cross-shard conduit of phy.ConnectShards carrying
// border traffic. See DESIGN.md §14 for the protocol, its liveness
// argument, and the determinism contract.
//
// The protocol runs under *mobility epochs* (DESIGN.md §15): the horizon
// is divided into fixed-length epochs, per-node displacement within one
// epoch is bounded by MaxSpeed·epoch, and at every epoch boundary all
// shards park at a barrier while a rollover leader (shard 0) recomputes the
// lookahead matrix and border-band membership from the boundary positions.
// The leader reads positions from its own shadow replicas of every node's
// waypoint model — trajectories are pure functions of (Seed, node id), so
// no cross-goroutine state is touched. A stationary run is the case of
// envelope 0 and a single epoch that outlasts the horizon: it never rolls
// over.

// ShardSeedMix decorrelates per-shard engine RNG streams from each other
// and from the unsharded stream while keeping them functions of
// (Config.Seed, shard). The 64-bit golden-ratio constant, reinterpreted
// as a signed word.
const ShardSeedMix = int64(-7046029254386353131) // 0x9E3779B97F4A7C15

func shardSeed(seed int64, shard int) int64 {
	return seed ^ int64(shard+1)*ShardSeedMix
}

// ShardRunStats is one shard's scheduler observability. Nodes, Events,
// the conduit message counts and the epoch and ghost counters are
// deterministic for a fixed (Seed, Shards). Windows, Stalls, the stall
// attribution and the wall-clock stall measurements depend on goroutine
// timing: how far a frontier had moved when a shard read it decides where
// its windows end and whether it waits. None of it enters
// RunResult.Fingerprint.
type ShardRunStats struct {
	Shard   int
	Nodes   int
	Events  uint64
	Windows uint64 // Run windows executed
	MsgsOut uint64 // cross-shard messages published
	MsgsIn  uint64 // cross-shard messages drained
	// Mobility epoch counters (zero when stationary): boundary rollovers
	// this shard synchronized on, and ghost record firings it received.
	// All three are deterministic for a fixed (Seed, Shards).
	Epochs    uint64
	GhostAdds uint64
	GhostDels uint64
	// Stalls counts waits: for a foreign frontier or the shard's own sends
	// to move its target, and at the epoch-boundary barrier. Each is
	// attributed to the term that bound the target when the shard stalled
	// (see StallBounds): StallBy[k] counts the waits bound by shard k's
	// frontier plus lookahead, StallBy[Shard] those bound by the shard's
	// own undrained sends plus the round trip (the echo term), and
	// StallEpoch the barrier waits.
	Stalls     uint64
	StallBy    []uint64
	StallEpoch uint64
	// StallWall is total wall time spent waiting; StallHist buckets
	// individual waits by power-of-two nanoseconds (bucket i counts waits
	// in [2^(i-1), 2^i)).
	StallWall time.Duration
	StallHist [40]uint64
}

// StallBounds splits Stalls by the term that bound them: a neighbour's
// frontier, the shard's own undrained sends (echo), or the epoch boundary.
func (s *ShardRunStats) StallBounds() (neighbour, echo, epoch uint64) {
	for k, n := range s.StallBy {
		if k == s.Shard {
			echo += n
		} else {
			neighbour += n
		}
	}
	return neighbour, echo, s.StallEpoch
}

// stalled records one wait that began at begin, bound by shard by's term
// of the target, or by the epoch boundary when by < 0.
func (s *ShardRunStats) stalled(by int, begin time.Time) {
	s.Stalls++
	if by < 0 {
		s.StallEpoch++
	} else {
		s.StallBy[by]++
	}
	wait := time.Since(begin)
	s.StallWall += wait
	s.StallHist[min(bits.Len64(uint64(wait.Nanoseconds())), len(s.StallHist)-1)]++
}

// shardedRun is the coordinator state of one sharded simulation: the
// network with one stack per strip, and the cross-shard fabric.
type shardedRun struct {
	*network
	net   *phy.ShardNet
	sync  *sim.ShardSync
	stats []ShardRunStats // by shard; only shard j's goroutine writes stats[j]

	// Mobility epoch state. epoch is sim.MaxTime for a stationary run.
	// shadow/posB are leader-owned: only shard 0 touches them, inside the
	// boundary barrier. gen is the epoch generation — the leader's
	// release-increment after Rebuild is what publishes the new tables to
	// the followers spinning on it.
	epoch  sim.Time
	shadow []*mobility.RandomWaypoint
	posB   []geom.Point
	gen    atomic.Uint64

	stop   atomic.Bool
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	panicked  bool
	panicMsg  string
	panicDump string
}

// buildSharded assembles one stack per strip and the cross-shard fabric.
func buildSharded(cfg Config) *shardedRun {
	n := newNetwork(cfg)
	part := topo.PartitionStrips(n.placement, cfg.Shards)
	sr := &shardedRun{network: n, stats: make([]ShardRunStats, cfg.Shards)}
	mediums := make([]*phy.Medium, cfg.Shards)
	for s := range mediums {
		ids := part.Nodes[s]
		mediums[s] = n.addStack(shardSeed(cfg.Seed, s), ids).medium
		sr.stats[s] = ShardRunStats{Shard: s, Nodes: len(ids), StallBy: make([]uint64, cfg.Shards)}
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
		sr.shadow = make([]*mobility.RandomWaypoint, cfg.Nodes)
		sr.posB = make([]geom.Point, cfg.Nodes)
		for i := range sr.shadow {
			sr.shadow[i] = n.waypoint(i)
		}
	}
	sr.net = phy.ConnectShards(mediums, n.placement.Points, part.Shard, cfg.Horizon(), envelope)
	sr.sync = sr.net.Sync()
	return sr
}

// rebuildEpoch recomputes the cross-shard fabric for the epoch starting at
// boundary B. Leader-only, inside the barrier: every shard has published a
// frontier ≥ B and is parked draining, so the fabric is quiescent.
func (sr *shardedRun) rebuildEpoch(B sim.Time) {
	for i, mdl := range sr.shadow {
		sr.posB[i] = mdl.PositionAt(B)
	}
	sr.net.Rebuild(sr.posB, B, 0)
	sr.sync.SetLookahead(sr.net.Direct())
}

// fail records a shard goroutine's panic (first one wins).
func (sr *shardedRun) fail(r any, stack []byte) {
	sr.mu.Lock()
	if !sr.panicked {
		sr.panicked = true
		sr.panicMsg = fmt.Sprintf("panic: %v", r)
		sr.panicDump = string(stack)
	}
	sr.mu.Unlock()
}

// publish refreshes shard j's frontier: the earliest future influence it
// can still exert. That is the smaller of its next local event and the
// send time of its earliest outbound message nobody has drained yet. The
// second term is what makes relays safe: until a receiver drains a
// message, the sender's frontier keeps covering that message's send time,
// so third shards bounding the receiver's relay through the path closure
// (foreign frontier + pathLa) never under-estimate it. A receiver's drain
// lowers the receiver's own frontier to the scheduled delivery before it
// releases the slot (sim.ShardSync.Lower), so the cap lifts only once the
// delivery is covered there.
func (sr *shardedRun) publish(j int, eng *sim.Engine) {
	lb := eng.NextLowerBound()
	if c := sr.net.OutCap(j); c < lb {
		lb = c
	}
	sr.sync.Publish(j, lb)
}

// runShard is one shard's frontier loop. The window order is load-bearing:
// the safe target is read BEFORE draining — any cross message with an
// event inside [0, target) was published before the frontier snapshots
// the target was computed from, so it is already visible to that drain
// (ring writes happen-before the frontier store that made the target) —
// and the frontier is re-published only after draining, so everything the
// drain scheduled is reflected in the next-lower-bound it advertises.
//
// The target's own term covers only sends already made, so a window ends
// right after any event that sends across (the conduit stops the engine)
// and the loop asks again: the send's echoes then land after everything
// the window ran. Every wait spins with runtime.Gosched and never sleeps.
func (sr *shardedRun) runShard(j int, endTime sim.Time) {
	eng, ss := sr.stacks[j].eng, &sr.stats[j]
	defer func() {
		if r := recover(); r != nil {
			sr.fail(r, debug.Stack())
			sr.stop.Store(true)
			sr.cancel()
			sr.net.Stop()
		}
		// Terminal frontier: a shard at MaxTime constrains nobody.
		sr.sync.Publish(j, sim.MaxTime)
		sr.wg.Done()
	}()
	done := sim.Time(-1) // every event at or before done has run
	// Mobility epochs: B is the next epoch boundary — a hard cap on every
	// window, because the current lookahead tables are only valid for
	// events strictly before it. gen is the epoch generation this shard has
	// observed. A stationary run has B = MaxTime and never rolls over.
	B := sr.epoch
	var gen uint64
	for !sr.stop.Load() {
		// Our undrained-send cap is read before the frontier scan: a
		// receiver lowers its frontier before it releases our slot, so one
		// of the two reads covers each echo of a send already made.
		target, by := sr.sync.Target(j, sr.net.OutCap(j))
		sr.net.Drain(j)
		sr.publish(j, eng)
		if min(target, B) > endTime {
			// No foreign influence can arrive on or before the horizon
			// anymore: an undrained message would cap its sender's frontier
			// at the send time, pulling our target back under the horizon,
			// and future sends land above their sender's frontier plus
			// lookahead — above target — where the sender-side filter drops
			// them. Echoes of our own sends in this window may not: a send
			// cuts the window, and the loop asks again. The window that
			// reaches the horizon is the last. (It requires B > endTime
			// too, so it never outruns the epoch tables.)
			if endTime > done && sr.window(j, endTime, &done) {
				continue
			}
			return
		}
		if target >= B {
			// Epoch rollover. target ≥ B proves every event strictly before
			// B safe under the *current* tables: finish the epoch's window
			// (a send cuts it, and the loop asks again), then synchronize.
			// The barrier condition is MinFrontier ≥ B — every shard has
			// executed all pre-boundary events and every conduit ring is
			// empty (an undrained message's send time t0 < B would cap its
			// sender's frontier below B; and any message a parked shard
			// drains after the leader's frontier snapshot was provably sent
			// at t0 ≥ B, because its sender's frontier had already been
			// observed at or past B). Everyone keeps draining and
			// re-publishing while parked, so outbound caps release and the
			// leader's ghost records always find ring space.
			if B-1 > done && sr.window(j, B-1, &done) {
				continue
			}
			if sr.stop.Load() {
				return
			}
			sr.publish(j, eng)
			ss.Epochs++
			begin := time.Now()
			if j == 0 {
				for !sr.stop.Load() && sr.sync.MinFrontier() < B {
					sr.net.Drain(j)
					sr.publish(j, eng)
					runtime.Gosched()
				}
			} else {
				for !sr.stop.Load() && sr.gen.Load() == gen {
					sr.net.Drain(j)
					sr.publish(j, eng)
					runtime.Gosched()
				}
			}
			ss.stalled(-1, begin)
			if sr.stop.Load() {
				return
			}
			if j == 0 {
				sr.rebuildEpoch(B)
				sr.gen.Add(1) // release-publishes the new tables
			}
			gen++
			B += sr.epoch
			continue
		}
		if limit := target - 1; limit > done { // events at exactly `target` are not yet safe
			sr.window(j, limit, &done)
			continue
		}
		// Cannot advance: wait for a foreign frontier, or for a receiver to
		// drain our sends, to move the target. Keep draining while waiting
		// — inbound messages never change our target, but consuming them
		// unblocks producers and releases their frontier caps — and keep
		// re-publishing as drains and consumed outbound slots raise our
		// own frontier.
		begin := time.Now()
		for !sr.stop.Load() {
			if t, _ := sr.sync.Target(j, sr.net.OutCap(j)); t > target {
				break
			}
			sr.net.Drain(j)
			sr.publish(j, eng)
			runtime.Gosched()
		}
		ss.stalled(by, begin)
	}
}

// window runs shard j's engine through limit and reports whether a
// cross-shard send cut it short. done advances to limit, or after a cut to
// just before the cut's instant, whose remaining events are still to run.
func (sr *shardedRun) window(j int, limit sim.Time, done *sim.Time) (cut bool) {
	eng := sr.stacks[j].eng
	eng.Run(limit)
	sr.stats[j].Windows++
	sr.checkAborted(eng)
	if eng.Stopped() {
		*done = eng.Now() - 1
		return true
	}
	*done = limit
	return false
}

// checkAborted propagates a shard-local engine abort (watchdog budget or
// context cancellation — each shard polls the run context itself, every
// 1024 events) to every other shard.
func (sr *shardedRun) checkAborted(eng *sim.Engine) {
	if _, aborted := eng.Aborted(); aborted {
		sr.stop.Store(true)
		sr.cancel()
		sr.net.Stop()
	}
}

// runSharded executes cfg on the sharded engine. Config must be valid and
// cfg.Shards > 1. A panic while building reaches RunCtx's recover on this
// goroutine; each shard goroutine recovers its own (runShard).
func runSharded(ctx context.Context, cfg Config) RunResult {
	sr := buildSharded(cfg)
	ctx, sr.cancel = context.WithCancel(ctx)
	defer sr.cancel()
	sr.arm(ctx)
	sr.wg.Add(len(sr.stacks))
	for j := range sr.stacks {
		go sr.runShard(j, cfg.Horizon())
	}
	sr.wg.Wait()
	if sr.panicked {
		return RunResult{Config: cfg, Failed: true, FailReason: sr.panicMsg, Stack: sr.panicDump}
	}
	return sr.collect()
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
