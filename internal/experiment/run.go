package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"

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
	// TimerStats is the engine's per-horizon timer census when
	// Config.TimerStats is set (nil otherwise).
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
	// (Config.Shards > 1; nil otherwise). Node, event, message, epoch and
	// ghost counts are deterministic for a fixed (Seed, Shards); window
	// and stall counts and the stall wall-clock measurements depend on
	// goroutine timing. None of it enters Fingerprint.
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

// network is one fully-wired simulation.
type network struct {
	cfg      Config
	eng      *sim.Engine
	medium   *phy.Medium
	macs     []mac.MAC
	routers  []*routing.Protocol
	apps     []*app.Node
	metrics  *app.Metrics
	sources  []*app.Source
	injector *fault.Injector
	aud      *audit.Auditor
	tstats   *sim.TimerStats

	deadlocks []Deadlock
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

// build assembles the network for cfg, which must already be validated.
func build(cfg Config) *network {
	eng := sim.NewEngine(cfg.Seed)
	medium := phy.NewMedium(eng, cfg.Phy)

	placement := makePlacement(cfg)
	roots := cfg.sourceNodes()
	isRoot := make(map[int]bool, len(roots))
	for _, r := range roots {
		isRoot[r] = true
	}

	if cfg.TraceCap > 0 {
		medium.Tracer = trace.New(cfg.TraceCap)
	}
	n := &network{cfg: cfg, eng: eng, medium: medium, metrics: &app.Metrics{Nodes: cfg.Nodes}}
	if cfg.TimerStats {
		n.tstats = eng.EnableTimerStats()
	}
	if cfg.Audit {
		// The airtime bound sizes the legal RBT hold window: the largest
		// data frame a run can carry is a forwarded source packet (beacons
		// are far smaller), with a little slack for header variations.
		n.aud = audit.New(eng, medium, audit.Config{
			MaxFrameAirtime: cfg.Phy.TxDuration(frame.RMACDataOverhead + cfg.PacketSize + 64),
		})
	}
	for i := 0; i < cfg.Nodes; i++ {
		var mob mobility.Model
		if cfg.Scenario == Stationary {
			mob = mobility.Stationary{P: placement.Points[i]}
		} else {
			nodeRNG := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(i)))
			mob = mobility.NewRandomWaypoint(cfg.Field, 0, cfg.Scenario.MaxSpeed(), cfg.Scenario.Pause(), placement.Points[i], nodeRNG)
		}
		radio := medium.AddRadio(i, mob)
		var m mac.MAC
		switch cfg.Protocol {
		case RMAC:
			m = rmac.NewWithOptions(radio, cfg.Phy, eng, cfg.Limits, cfg.RMACOptions)
		case BMMM:
			m = bmmm.New(radio, cfg.Phy, eng, cfg.Limits)
		case BMW:
			m = bmw.New(radio, cfg.Phy, eng, cfg.Limits)
		case LBP:
			m = lbp.New(radio, cfg.Phy, eng, cfg.Limits)
		case MX:
			m = mx.New(radio, cfg.Phy, eng, cfg.Limits)
		case DOT11:
			m = dot11.New(radio, cfg.Phy, eng, cfg.Limits)
		}
		rt := routing.New(eng, m, i, isRoot[i], cfg.Routing)
		a := app.NewNode(eng, m, rt, i, n.metrics)
		rt.Start()
		if n.aud != nil {
			n.aud.RegisterMAC(i, m)
			if s, ok := m.(interface{ SetAuditor(*audit.Auditor) }); ok {
				s.SetAuditor(n.aud)
			}
			// app.NewNode installed itself as the MAC's upper layer;
			// interpose the at-most-once delivery check in front of it.
			m.SetUpper(n.aud.WrapUpper(i, a))
		}
		n.macs = append(n.macs, m)
		n.routers = append(n.routers, rt)
		n.apps = append(n.apps, a)
	}
	for _, r := range roots {
		s := app.NewSource(n.apps[r], cfg.Rate, cfg.Packets, cfg.PacketSize)
		s.Start(cfg.Warmup)
		n.sources = append(n.sources, s)
	}
	// The impairment layer attaches after every radio exists (its GE
	// chains are built per registered radio). A zero cfg.Fault leaves the
	// medium untouched.
	n.injector = fault.New(eng, medium, cfg.Fault)
	// The liveness and invariant audits run whenever the engine quiesces —
	// horizon reached, queue drained, or watchdog abort.
	eng.QuiesceAudit = func() {
		n.deadlocks = auditLiveness(n.macs)
		n.aud.Quiesce()
	}
	return n
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
	if cfg.MaxEvents > 0 || cfg.MaxWall > 0 {
		n.eng.SetWatchdog(cfg.MaxEvents, cfg.MaxWall)
	}
	n.eng.SetContext(ctx)
	n.eng.Run(cfg.Horizon())
	return n.collect()
}

func (n *network) collect() RunResult {
	res := RunResult{
		Config:      n.cfg,
		Metrics:     *n.metrics,
		Delivery:    n.metrics.DeliveryRatio(),
		AvgDelay:    n.metrics.AvgDelay(),
		MRTSLens:    &stats.Sample{},
		AbortRatios: &stats.Sample{},
		Events:      n.eng.Processed,
		TimerStats:  n.tstats,
		Trace:       n.medium.Tracer,
		Fault:       n.injector.Stats,
		Crashes:     n.medium.Stats.Crashes,
		Deadlocks:   n.deadlocks,
		Violations:  n.aud.Violations(),
	}
	if n.aud != nil {
		res.ViolationCount = n.aud.Count
	}
	if reason, aborted := n.eng.Aborted(); aborted {
		res.Aborted = true
		res.AbortReason = reason
	}
	res.Totals.Medium = n.medium.Stats
	res.Totals.FramePool = n.medium.Frames().Stats()
	res.Totals.ArenaCap = n.eng.ArenaCap()
	res.Totals.ArenaLive = n.eng.PoolInUse()
	if n.aud != nil {
		res.Totals.ViolationsByClass = n.aud.ByClass
	}
	res.Totals.Generated = res.Metrics.Generated
	res.Totals.Receptions = res.Metrics.Receptions
	res.Totals.Duplicates = res.Metrics.Duplicates
	var drop, retx, ovh stats.Sample
	for _, m := range n.macs {
		s := m.Stats()
		res.Totals.addMAC(s)
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

	parent := make([]int, n.cfg.Nodes)
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
