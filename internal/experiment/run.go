package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"

	"rmac/internal/app"
	"rmac/internal/audit"
	"rmac/internal/fault"
	"rmac/internal/frame"
	"rmac/internal/mac"
	"rmac/internal/mac/bmmm"
	"rmac/internal/mac/bmw"
	"rmac/internal/mac/dot11"
	"rmac/internal/mac/lbp"
	"rmac/internal/mac/mx"
	"rmac/internal/mac/rmac"
	"rmac/internal/mobility"
	"rmac/internal/phy"
	"rmac/internal/routing"
	"rmac/internal/sim"
	"rmac/internal/stats"
	"rmac/internal/topo"
	"rmac/internal/trace"
)

// PlacementSeedMix decorrelates the placement RNG stream from the
// engine's contention stream while keeping both functions of Config.Seed.
const PlacementSeedMix = 0x5deece66d

// RunResult carries everything a run measured: the network-wide
// application metrics and the per-node MAC aggregates behind each figure.
type RunResult struct {
	Config Config

	// App-level (Figures 7 and 9).
	Metrics  app.Metrics
	Delivery float64 // R_deliv
	AvgDelay float64 // seconds

	// Per-node ratios averaged over non-leaf nodes (Figures 8, 10, 11).
	AvgDropRatio     float64
	AvgRetxRatio     float64
	AvgOverheadRatio float64
	NonLeafCount     int

	// RMAC-only distributions (Figures 12 and 13). Raw samples are kept
	// so sweeps can pool across seeds.
	MRTSLens    *stats.Sample // bytes, every MRTS sent by any node
	AbortRatios *stats.Sample // per non-leaf-node R_abort

	// Tree shape at the end of the run (§4.1.1 context).
	Tree topo.TreeStats

	// Simulator instrumentation.
	Events uint64
	// BusyTicks sums every node's mac.Backoff.BusyTicks: countdown
	// expiries that found the channel busy although the MAC never called
	// Suspend, each sending the backoff onto its per-slot re-poll. Every
	// MAC reports each busy edge, so a nonzero count means one missed an
	// edge. It enters neither Fingerprint nor Outcome.
	BusyTicks uint64
	// TimerStats is the per-horizon timer census when Config.TimerStats
	// is set (nil otherwise): a sharded run's is the sum of its engines'.
	TimerStats *sim.TimerStats
	// Trace holds the PHY event timeline when Config.TraceCap > 0.
	Trace *trace.Trace

	// Fault carries the impairment layer's counters; Crashes is the
	// medium's count of applied radio crashes.
	Fault   fault.Stats
	Crashes uint64

	// Deadlocks lists nodes the liveness audit flagged at quiesce: stuck
	// in a non-idle protocol state with nothing armed to advance them.
	Deadlocks []Deadlock

	// Violations holds the protocol-invariant auditor's findings when
	// Config.Audit is set (capped with context; ViolationCount is the
	// uncapped total). A conforming protocol stack reports zero.
	Violations     []audit.Violation
	ViolationCount uint64

	// Totals carries the raw, non-derived counters of the run — summed
	// MAC statistics, channel-level medium counters, frame-pool traffic,
	// kernel arena occupancy and per-class audit violations — the numbers
	// the telemetry layer exports (see metrics.go and DESIGN.md §13).
	Totals RunTotals

	// Shards holds per-shard scheduler observability for sharded runs
	// (Config.Shards > 1; nil otherwise). Every count is deterministic for
	// a fixed (Seed, Shards); only the stall wall-clock measurements
	// depend on the host. None of it enters Fingerprint.
	Shards []ShardRunStats

	// Aborted is set when the engine watchdog stopped the run before its
	// horizon; the metrics above then cover only the simulated prefix.
	Aborted     bool
	AbortReason string

	// Failed is set when the run could not produce metrics at all: the
	// configuration was invalid or the simulation panicked. FailReason
	// explains why; Stack holds the panicking goroutine's stack.
	Failed     bool
	FailReason string
	Stack      string
}

// Deadlock identifies one node flagged by the MAC liveness audit.
type Deadlock struct {
	Node  int
	State string
}

// RunTotals aggregates a run's raw counters across all nodes. Unlike the
// averaged per-node ratios above, these are plain monotone sums, so the
// sweep service can fold them into its counter families point by point
// and a Prometheus scrape sees one consistent vocabulary whether the
// source is a batch run (rmacsim -metrics) or a served sweep.
type RunTotals struct {
	// Per-protocol MAC counters summed over all nodes (mac.Stats).
	Enqueued           uint64 `json:"enqueued"`
	QueueDrops         uint64 `json:"queue_drops"`
	ReliableToTransmit uint64 `json:"reliable_to_transmit"`
	ReliableDelivered  uint64 `json:"reliable_delivered"`
	Retransmissions    uint64 `json:"retransmissions"`
	Drops              uint64 `json:"drops"`
	UnreliableSent     uint64 `json:"unreliable_sent"`
	MRTSSent           uint64 `json:"mrts_sent"`
	MRTSAborted        uint64 `json:"mrts_aborted"`
	ABTSent            uint64 `json:"abt_sent"`

	// Channel-level medium counters (phy.MediumStats).
	Medium phy.MediumStats `json:"medium"`

	// Frame-pool traffic (frame.PoolStats).
	FramePool frame.PoolStats `json:"frame_pool"`

	// Kernel event-arena occupancy at collection time: total slots grown
	// and slots still queued.
	ArenaCap  int `json:"arena_cap"`
	ArenaLive int `json:"arena_live"`

	// ViolationsByClass partitions the auditor's Count by invariant
	// class, indexed by audit.Class.
	ViolationsByClass [audit.NumClasses]uint64 `json:"violations_by_class"`

	// Application-level delivery counters (app.Metrics scalars), repeated
	// here so the totals are a self-contained telemetry payload.
	Generated  uint64 `json:"generated"`
	Receptions uint64 `json:"receptions"`
	Duplicates uint64 `json:"duplicates"`
}

// addMAC folds one node's MAC counters into the totals (the MRTS length
// samples stay in RunResult.MRTSLens; totals are scalars only).
func (t *RunTotals) addMAC(s *mac.Stats) {
	t.Enqueued += s.Enqueued
	t.QueueDrops += s.QueueDrops
	t.ReliableToTransmit += s.ReliableToTransmit
	t.ReliableDelivered += s.ReliableDelivered
	t.Retransmissions += s.Retransmissions
	t.Drops += s.Drops
	t.UnreliableSent += s.UnreliableSent
	t.MRTSSent += s.MRTSSent
	t.MRTSAborted += s.MRTSAborted
	t.ABTSent += s.ABTSent
}

// busyTicker is every MAC built on mac.Node: it counts the backoff
// expiries that found the channel busy with no Suspend.
type busyTicker interface{ BusyTicks() uint64 }

// auditLiveness applies the deadlock predicate to every MAC: non-idle
// with nothing pending means the node can never advance again.
func auditLiveness(macs []mac.MAC) []Deadlock {
	var out []Deadlock
	for i, m := range macs {
		lr, ok := m.(mac.LivenessReporter)
		if !ok {
			continue
		}
		if l := lr.Liveness(); !l.Idle && !l.Pending {
			out = append(out, Deadlock{Node: i, State: l.State})
		}
	}
	return out
}

// stack is one engine's share of the network: the engine, its medium and
// what is registered on them. A classic run has one stack; a sharded run
// has one per strip (sharded.go).
type stack struct {
	eng      *sim.Engine
	medium   *phy.Medium
	metrics  app.Metrics
	injector *fault.Injector
	aud      *audit.Auditor
	tstats   *sim.TimerStats
}

// network is one fully-wired simulation: its stacks, and every node's MAC
// and router — and in a mobile run its waypoint model — indexed by global
// node id.
type network struct {
	cfg       Config
	placement topo.Placement
	isRoot    []bool
	stacks    []*stack
	macs      []mac.MAC
	routers   []*routing.Protocol
	waypoints []*mobility.RandomWaypoint // nil when stationary
}

// makePlacement runs cfg's placement generator. Deterministic in
// (Config, Seed): both the classic and the sharded build call it with the
// same derived RNG, so a run's topology is independent of Shards.
func makePlacement(cfg Config) topo.Placement {
	rng := rand.New(rand.NewSource(cfg.Seed ^ PlacementSeedMix))
	switch cfg.Topo {
	case TopoUniform:
		return topo.RandomPlacement(cfg.Nodes, cfg.Field, rng)
	case TopoPoisson:
		return topo.PoissonDiscPlacement(cfg.Nodes, cfg.Field, cfg.NodeSpacing, rng)
	case TopoMetro:
		return topo.MetroPlacement(cfg.Nodes, cfg.metroDistricts(), cfg.Field, cfg.metroGap(), rng)
	default:
		p, _ := topo.ConnectedRandomPlacement(cfg.Nodes, cfg.Field, cfg.Phy.CommRange, rng, 500)
		return p
	}
}

// newNetwork places cfg's nodes and sizes the per-node tables; addStack
// then wires the nodes onto engines.
func newNetwork(cfg Config) *network {
	n := &network{cfg: cfg, placement: makePlacement(cfg), isRoot: make([]bool, cfg.Nodes),
		macs: make([]mac.MAC, cfg.Nodes), routers: make([]*routing.Protocol, cfg.Nodes)}
	for _, r := range cfg.sourceNodes() {
		n.isRoot[r] = true
	}
	if cfg.Scenario != Stationary {
		n.waypoints = make([]*mobility.RandomWaypoint, cfg.Nodes)
	}
	return n
}

// build assembles the classic single-engine network for cfg, which must
// already be validated.
func build(cfg Config) *network {
	n := newNetwork(cfg)
	ids := make([]int, cfg.Nodes)
	for i := range ids {
		ids[i] = i
	}
	n.addStack(cfg.Seed, ids)
	return n
}

// addStack wires the nodes ids onto a new engine seeded with seed: each
// node's radio, MAC, BLESS routing, application and auditor hooks, and at
// the roots a source.
func (n *network) addStack(seed int64, ids []int) *stack {
	cfg := n.cfg
	eng := sim.NewEngine(seed)
	st := &stack{eng: eng, medium: phy.NewMedium(eng, cfg.Phy), metrics: app.Metrics{Nodes: cfg.Nodes}}
	if cfg.TraceCap > 0 {
		st.medium.Tracer = trace.New(cfg.TraceCap)
	}
	if cfg.TimerStats {
		st.tstats = eng.EnableTimerStats()
	}
	if cfg.Audit {
		// The airtime bound sizes the legal RBT hold window: the largest
		// data frame a run can carry is a forwarded source packet (beacons
		// are far smaller), with a little slack for header variations.
		st.aud = audit.New(eng, st.medium, audit.Config{
			MaxFrameAirtime: cfg.Phy.TxDuration(frame.RMACDataOverhead + cfg.PacketSize + 64),
		})
		st.aud.Reserve(slices.Max(ids) + 1)
	}
	for _, i := range ids {
		var mob mobility.Model
		if n.waypoints != nil {
			n.waypoints[i] = n.waypoint(i)
			mob = n.waypoints[i]
		} else {
			mob = mobility.Stationary{P: n.placement.Points[i]}
		}
		m := newMAC(cfg, st.medium.AddRadio(i, mob), eng)
		rt := routing.New(eng, m, i, n.isRoot[i], cfg.Routing)
		a := app.NewNode(eng, m, rt, i, &st.metrics)
		rt.Start()
		if st.aud != nil {
			st.aud.RegisterMAC(i, m)
			if s, ok := m.(interface{ SetAuditor(*audit.Auditor) }); ok {
				s.SetAuditor(st.aud)
			}
			// app.NewNode installed itself as the MAC's upper layer;
			// interpose the at-most-once delivery check in front of it.
			m.SetUpper(st.aud.WrapUpper(i, a))
		}
		if n.isRoot[i] {
			app.NewSource(a, cfg.Rate, cfg.Packets, cfg.PacketSize).Start(cfg.Warmup)
		}
		n.macs[i], n.routers[i] = m, rt
	}
	// The impairment layer attaches after every radio exists (its GE
	// chains are built per registered radio). A zero cfg.Fault leaves the
	// medium untouched.
	st.injector = fault.New(eng, st.medium, cfg.Fault)
	n.stacks = append(n.stacks, st)
	return st
}

// waypoint is node i's random-waypoint model. Its RNG derives from
// (Seed, i) alone, so the trajectory is the same for every shard count.
// The stream is rand.NewSource's for that seed, drawn from a
// mobility.LazySource, which does not seed math/rand's 4.9 KB register
// for the few draws a node takes.
func (n *network) waypoint(i int) *mobility.RandomWaypoint {
	rng := rand.New(mobility.NewLazySource(n.cfg.Seed*1_000_003 + int64(i)))
	return mobility.NewRandomWaypoint(n.cfg.Field, 0, n.cfg.Scenario.MaxSpeed(), n.cfg.Scenario.Pause(), n.placement.Points[i], rng)
}

// newMAC builds cfg.Protocol's MAC on radio. Validate admits only the six
// protocols below.
func newMAC(cfg Config, radio *phy.Radio, eng *sim.Engine) mac.MAC {
	switch cfg.Protocol {
	case RMAC:
		return rmac.NewWithOptions(radio, cfg.Phy, eng, cfg.Limits, cfg.RMACOptions)
	case BMMM:
		return bmmm.New(radio, cfg.Phy, eng, cfg.Limits)
	case BMW:
		return bmw.New(radio, cfg.Phy, eng, cfg.Limits)
	case LBP:
		return lbp.New(radio, cfg.Phy, eng, cfg.Limits)
	case MX:
		return mx.New(radio, cfg.Phy, eng, cfg.Limits)
	case DOT11:
		return dot11.New(radio, cfg.Phy, eng, cfg.Limits)
	}
	panic(fmt.Sprintf("experiment: no MAC for %v", cfg.Protocol))
}

// arm sets cfg's watchdog budgets and ctx on every engine. Each engine gets
// the full budget: MaxEvents bounds any single engine, so a sharded run may
// process up to Shards× more events before tripping — budgets bound
// runaway shards, not aggregate work.
func (n *network) arm(ctx context.Context) {
	for _, st := range n.stacks {
		if n.cfg.MaxEvents > 0 || n.cfg.MaxWall > 0 {
			st.eng.SetWatchdog(n.cfg.MaxEvents, n.cfg.MaxWall)
		}
		st.eng.SetContext(ctx)
	}
}

// testHookPreRun, when non-nil, runs inside Run's panic isolation just
// before the simulation is built. Tests use it to inject a panic for a
// chosen configuration and assert the sweep survives.
var testHookPreRun func(Config)

// Run executes one simulation and reduces its measurements. It never
// panics: an invalid configuration or a panicking protocol stack yields a
// RunResult with Failed set (and the captured stack), so one poisoned
// seed cannot take down a whole sweep.
func Run(cfg Config) RunResult { return RunCtx(context.Background(), cfg) }

// RunCtx is Run with cooperative cancellation: once ctx is done the
// engine aborts at its next periodic check and the result carries the
// metrics of the simulated prefix with Aborted set — exactly like a
// watchdog trip. A run whose context is never canceled is bit-identical
// to Run with the same Config, so callers (signal-wired CLIs, the sweep
// service's per-job deadlines) pay nothing for the hook.
func RunCtx(ctx context.Context, cfg Config) (res RunResult) {
	defer func() {
		if r := recover(); r != nil {
			res = RunResult{
				Config:     cfg,
				Failed:     true,
				FailReason: fmt.Sprintf("panic: %v", r),
				Stack:      string(debug.Stack()),
			}
		}
	}()
	if err := cfg.Validate(); err != nil {
		return RunResult{Config: cfg, Failed: true, FailReason: err.Error()}
	}
	if testHookPreRun != nil {
		testHookPreRun(cfg)
	}
	if cfg.Shards > 1 {
		return runSharded(ctx, cfg)
	}
	n := build(cfg)
	n.arm(ctx)
	n.stacks[0].eng.Run(cfg.Horizon())
	return n.collect()
}

// collect reduces the network into one RunResult once the run is over. It
// folds every stack's counters, runs the liveness and invariant audits —
// once, here, never at a mid-run engine return — and walks nodes in global
// id order, so pooled samples are ordered alike on every shard layout.
func (n *network) collect() RunResult {
	cfg := n.cfg
	res := RunResult{
		Config:      cfg,
		Metrics:     app.Metrics{Nodes: cfg.Nodes},
		MRTSLens:    &stats.Sample{},
		AbortRatios: &stats.Sample{},
		// Validate admits tracing on one engine only.
		Trace: n.stacks[0].medium.Tracer,
	}
	if cfg.TimerStats {
		res.TimerStats = &sim.TimerStats{}
	}
	tot := &res.Totals
	for s, st := range n.stacks {
		if reason, aborted := st.eng.Aborted(); aborted && !res.Aborted {
			if len(n.stacks) > 1 {
				reason = fmt.Sprintf("shard %d: %s", s, reason)
			}
			res.Aborted, res.AbortReason = true, reason
		}
		st.aud.Quiesce()
		res.Violations = append(res.Violations, st.aud.Violations()...)
		if st.aud != nil {
			res.ViolationCount += st.aud.Count
			for c, v := range st.aud.ByClass {
				tot.ViolationsByClass[c] += v
			}
		}
		res.Events += st.eng.Processed
		if st.tstats != nil {
			res.TimerStats.Add(st.tstats)
		}
		m := &res.Metrics
		m.Generated += st.metrics.Generated
		m.Receptions += st.metrics.Receptions
		m.Duplicates += st.metrics.Duplicates
		m.DelaySum += st.metrics.DelaySum
		m.DelayCount += st.metrics.DelayCount
		m.DelayMax = max(m.DelayMax, st.metrics.DelayMax)
		fs := &st.injector.Stats
		res.Fault.BurstErrors += fs.BurstErrors
		res.Fault.BadEntries += fs.BadEntries
		res.Fault.Crashes += fs.Crashes
		res.Fault.Recoveries += fs.Recoveries
		ms := &st.medium.Stats
		tot.Medium.Transmissions += ms.Transmissions
		tot.Medium.Aborts += ms.Aborts
		tot.Medium.FramesDecoded += ms.FramesDecoded
		tot.Medium.FramesCorrupt += ms.FramesCorrupt
		tot.Medium.ToneActivation += ms.ToneActivation
		tot.Medium.Crashes += ms.Crashes
		fp := st.medium.Frames().Stats()
		tot.FramePool.Live += fp.Live
		tot.FramePool.Acquired += fp.Acquired
		tot.FramePool.Allocated += fp.Allocated
		tot.FramePool.Released += fp.Released
		tot.ArenaCap += st.eng.ArenaCap()
		tot.ArenaLive += st.eng.PoolInUse()
	}
	res.Crashes = tot.Medium.Crashes
	res.Deadlocks = auditLiveness(n.macs)
	res.Delivery = res.Metrics.DeliveryRatio()
	res.AvgDelay = res.Metrics.AvgDelay()
	tot.Generated = res.Metrics.Generated
	tot.Receptions = res.Metrics.Receptions
	tot.Duplicates = res.Metrics.Duplicates
	var drop, retx, ovh stats.Sample
	for _, m := range n.macs {
		if c, ok := m.(busyTicker); ok {
			res.BusyTicks += c.BusyTicks()
		}
		s := m.Stats()
		tot.addMAC(s)
		if !s.NonLeaf() {
			continue
		}
		res.NonLeafCount++
		drop.Add(totalDropRatio(s))
		retx.Add(s.RetxRatio())
		// §4.3.2's R_txoh is control time over data time; a forwarder that
		// never got to transmit data (crashed early, or all its packets
		// died in contention) has no defined ratio — its hardwired zero
		// would bias the average down, so it is excluded.
		if s.DataTxTime > 0 {
			ovh.Add(s.OverheadRatio())
		}
		res.AbortRatios.Add(s.AbortRatio())
		for _, l := range s.MRTSLens {
			res.MRTSLens.Add(float64(l))
		}
	}
	res.AvgDropRatio = drop.Mean()
	res.AvgRetxRatio = retx.Mean()
	res.AvgOverheadRatio = ovh.Mean()

	parent := make([]int, cfg.Nodes)
	for i, rt := range n.routers {
		parent[i] = rt.Parent()
	}
	res.Tree = topo.AnalyzeTree(parent, 0)
	return res
}

// totalDropRatio is the paper's R_drop: packets dropped by a node over
// packets to be transmitted by it. Queue-overflow rejections count as
// drops alongside retry-limit drops.
func totalDropRatio(s *mac.Stats) float64 {
	den := float64(s.ReliableToTransmit + s.QueueDrops)
	return stats.Ratio(float64(s.Drops+s.QueueDrops), den)
}
