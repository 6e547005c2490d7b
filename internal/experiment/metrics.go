package experiment

// This file is the kernel/protocol half of the telemetry layer (DESIGN.md
// §13): it lays simulation results out as metric families. The wiring is
// strictly post-run — a simulation is never instrumented while events are
// dispatching; its existing counters (mac.Stats, phy.MediumStats,
// frame.PoolStats, sim.TimerStats, the audit per-class counts) are folded
// into the registry after the engine quiesces. Metrics therefore observe
// runs but never participate in them: determinism and the steady-state
// allocation gate are untouched by construction.
//
// Two front ends share this vocabulary: `rmacsim -metrics` dumps one
// run's registry at end of run, and rmacserved folds every completed grid
// point into the same families — so batch runs and the service speak one
// telemetry language.

import (
	"rmac/internal/audit"
	"rmac/internal/metrics"
	"rmac/internal/sim"
	"rmac/internal/trace"
)

// mediumKinds maps the medium's channel-level counters onto the shared
// trace-kind vocabulary (trace.KindName — the same dense name table the
// trace ring and the auditor's context ring render with). Index i of the
// rmac_kernel_medium_events_total family is mediumKinds[i].
var mediumKinds = [...]trace.Kind{
	trace.TxStart, trace.TxAbort, trace.RxOK, trace.RxCorrupt,
	trace.ToneOn, trace.NodeDown,
}

// RunMetrics is the set of kernel- and protocol-level metric families a
// simulation run reports into. Protocol-labeled families are dense over
// Protocols (indexed by the Protocol enum); class-labeled families are
// dense over audit.Class and the sim timer-census classes.
type RunMetrics struct {
	// Kernel.
	Events         *metrics.Counter
	WatchdogAborts *metrics.Counter
	MediumEvents   *metrics.CounterVec // by trace kind; see mediumKinds
	FrameAcquired  *metrics.Counter
	FrameAllocated *metrics.Counter
	FrameReleased  *metrics.Counter
	TimerPlaced    *metrics.CounterVec // by wheel placement class
	TimerCancelled *metrics.CounterVec // by cancel location

	// Protocol / experiment, labeled by protocol.
	Enqueued        *metrics.CounterVec
	QueueDrops      *metrics.CounterVec
	ReliableTx      *metrics.CounterVec
	ReliableDeliv   *metrics.CounterVec
	Retransmissions *metrics.CounterVec
	Drops           *metrics.CounterVec
	UnreliableSent  *metrics.CounterVec
	MRTSSent        *metrics.CounterVec
	MRTSAborted     *metrics.CounterVec
	ABTSent         *metrics.CounterVec
	Generated       *metrics.CounterVec
	Receptions      *metrics.CounterVec
	Duplicates      *metrics.CounterVec
	Runs            *metrics.CounterVec

	// Sharded engine (populated only by Shards > 1 runs).
	ShardWindows   *metrics.Counter
	ShardMessages  *metrics.CounterVec // by direction (out/in over the conduit)
	ShardStalls    *metrics.Counter
	ShardStallBy   *metrics.CounterVec // by the target term that bound the stall (neighbour/epoch)
	ShardStallWait *metrics.Histogram
	ShardEpochs    *metrics.Counter
	ShardGhosts    *metrics.CounterVec // by op (add/del of border-band ghost radios)

	// Audit, labeled by invariant class.
	Violations *metrics.CounterVec
}

// shardStallMinExp aligns the stall-wait histogram's buckets with the
// power-of-two nanosecond buckets of ShardRunStats.StallHist: exposition
// bucket i covers waits ≤ 2^(shardStallMinExp+i) ns, so StallHist bucket b
// folds into exposition bucket b - shardStallMinExp.
const shardStallMinExp = 10 // 1 µs first bucket … ~17 s last finite bound

// protocolCells returns the dense {protocol} label tuples.
func protocolCells() [][]string {
	cells := make([][]string, len(Protocols))
	for i, p := range Protocols {
		cells[i] = []string{p.String()}
	}
	return cells
}

// NewRunMetrics registers the kernel and protocol families on r. One
// RunMetrics can absorb many runs (AddRun): the service keeps a single
// instance for its whole lifetime, the batch CLI one per process.
func NewRunMetrics(r *metrics.Registry) *RunMetrics {
	proto := []string{"protocol"}
	pc := protocolCells()
	pvec := func(name, help string) *metrics.CounterVec {
		return r.CounterVec(name, help, proto, pc)
	}

	kindCells := make([][]string, len(mediumKinds))
	for i, k := range mediumKinds {
		kindCells[i] = []string{trace.KindName(k)}
	}
	placeCells := make([][]string, sim.NumPlaceClasses)
	for i := range placeCells {
		placeCells[i] = []string{sim.PlaceClassLabel(i)}
	}
	cancelCells := make([][]string, sim.NumCancelClasses)
	for i := range cancelCells {
		cancelCells[i] = []string{sim.CancelClassLabel(i)}
	}
	classCells := make([][]string, audit.NumClasses)
	for i := range classCells {
		classCells[i] = []string{audit.Class(i).String()}
	}

	return &RunMetrics{
		Events:         r.Counter("rmac_kernel_events_total", "Simulation events dispatched by the engine."),
		WatchdogAborts: r.Counter("rmac_kernel_watchdog_aborts_total", "Runs stopped by the engine watchdog or cooperative cancellation."),
		MediumEvents: r.CounterVec("rmac_kernel_medium_events_total",
			"Channel-level medium events by trace kind (TX starts, aborts, decoded and corrupt receptions, tone activations, radio crashes).",
			[]string{"kind"}, kindCells),
		FrameAcquired:  r.Counter("rmac_kernel_frame_acquired_total", "Frames taken from the per-kind frame pools."),
		FrameAllocated: r.Counter("rmac_kernel_frame_allocated_total", "Frame-pool acquires that missed the free list and hit the Go allocator."),
		FrameReleased:  r.Counter("rmac_kernel_frame_released_total", "Frames returned to the per-kind frame pools."),
		TimerPlaced: r.CounterVec("rmac_kernel_timer_scheduled_total",
			"Timer census: schedules by placement (frontier-due heap, wheel level 0/1, heap overflow). Populated when the timer census is enabled.",
			[]string{"placement"}, placeCells),
		TimerCancelled: r.CounterVec("rmac_kernel_timer_cancelled_total",
			"Timer census: cancels by where the event was found (wheel O(1) unlink vs heap removal). Populated when the timer census is enabled.",
			[]string{"location"}, cancelCells),

		Enqueued:        pvec("rmac_proto_enqueued_total", "Packets accepted into MAC queues."),
		QueueDrops:      pvec("rmac_proto_queue_drops_total", "Packets rejected on a full MAC queue."),
		ReliableTx:      pvec("rmac_proto_reliable_tx_total", "Reliable packets whose transmission began."),
		ReliableDeliv:   pvec("rmac_proto_reliable_delivered_total", "Reliable packets fully acknowledged."),
		Retransmissions: pvec("rmac_proto_retransmissions_total", "Retransmission cycles beyond each first attempt."),
		Drops:           pvec("rmac_proto_drops_total", "Packets dropped at the MAC retry limit."),
		UnreliableSent:  pvec("rmac_proto_unreliable_sent_total", "Unreliable-service packets sent."),
		MRTSSent:        pvec("rmac_proto_mrts_sent_total", "RMAC MRTS transmissions started (aborted ones included)."),
		MRTSAborted:     pvec("rmac_proto_mrts_aborted_total", "RMAC MRTS transmissions aborted on RBT detection."),
		ABTSent:         pvec("rmac_proto_abt_sent_total", "RMAC acknowledgment busy tones emitted."),
		Generated:       pvec("rmac_proto_generated_total", "Application packets generated by the multicast source."),
		Receptions:      pvec("rmac_proto_receptions_total", "Unique application-level deliveries."),
		Duplicates:      pvec("rmac_proto_duplicates_total", "Suppressed duplicate application deliveries."),
		Runs:            pvec("rmac_proto_runs_total", "Completed simulation runs folded into these families."),

		ShardWindows: r.Counter("rmac_kernel_shard_windows_total",
			"Frontier windows executed by sharded-engine runs, summed over shards."),
		ShardMessages: r.CounterVec("rmac_kernel_shard_messages_total",
			"Cross-shard border messages over the conduits, by direction.",
			[]string{"direction"}, [][]string{{"out"}, {"in"}}),
		ShardStalls: r.Counter("rmac_kernel_shard_stalls_total",
			"Steps in which a shard could not advance, plus epoch joins, in sharded-engine runs."),
		ShardStallBy: r.CounterVec("rmac_kernel_shard_stall_bound_total",
			"Sharded-engine stalls by the term that bound the stalled shard's target: a neighbour's frontier or the epoch join.",
			[]string{"by"}, [][]string{{"neighbour"}, {"epoch"}}),
		ShardStallWait: r.Histogram("rmac_kernel_shard_stall_wait_seconds",
			"Wall-clock time a shard's component waited at an epoch join for the other components (sharded-engine runs).",
			shardStallMinExp, 34, 1e-9),
		ShardEpochs: r.Counter("rmac_kernel_shard_epoch_rollovers_total",
			"Mobility epoch boundaries crossed by sharded-engine runs, summed over shards."),
		ShardGhosts: r.CounterVec("rmac_kernel_shard_epoch_ghosts_total",
			"Border-band ghost radio installs and removals at epoch rebuilds.",
			[]string{"op"}, [][]string{{"add"}, {"del"}}),

		Violations: r.CounterVec("rmac_proto_audit_violations_total",
			"Protocol-invariant auditor violations by invariant class.",
			[]string{"class"}, classCells),
	}
}

// AddRun folds one completed run into the families; callers pass every
// RunResult exactly once.
func (m *RunMetrics) AddRun(res *RunResult) {
	m.AddTotals(int(res.Config.Protocol), res.Events, res.Aborted, &res.Totals, res.TimerStats)
	for i := range res.Shards {
		ss := &res.Shards[i]
		m.ShardWindows.Add(ss.Windows)
		m.ShardMessages.At(0).Add(ss.MsgsOut)
		m.ShardMessages.At(1).Add(ss.MsgsIn)
		m.ShardStalls.Add(ss.Stalls)
		neighbour, epoch := ss.StallBounds()
		m.ShardStallBy.At(0).Add(neighbour)
		m.ShardStallBy.At(1).Add(epoch)
		for b, n := range ss.StallHist {
			m.ShardStallWait.AddBucketSamples(b-shardStallMinExp, n)
		}
		m.ShardStallWait.AddToSum(uint64(ss.StallWall.Nanoseconds()))
		m.ShardEpochs.Add(ss.Epochs)
		m.ShardGhosts.At(0).Add(ss.GhostAdds)
		m.ShardGhosts.At(1).Add(ss.GhostDels)
	}
}

// AddTotals is AddRun over the wire form: the sweep service journals
// only (protocol, events, aborted, RunTotals) per grid point, and replays
// those through here so its counters stay monotone across restarts. ts
// may be nil (the census is off in served runs).
func (m *RunMetrics) AddTotals(p int, events uint64, aborted bool, t *RunTotals, ts *sim.TimerStats) {
	if p < 0 || p >= len(Protocols) {
		return
	}

	m.Events.Add(events)
	if aborted {
		m.WatchdogAborts.Inc()
	}
	m.MediumEvents.At(0).Add(t.Medium.Transmissions)
	m.MediumEvents.At(1).Add(t.Medium.Aborts)
	m.MediumEvents.At(2).Add(t.Medium.FramesDecoded)
	m.MediumEvents.At(3).Add(t.Medium.FramesCorrupt)
	m.MediumEvents.At(4).Add(t.Medium.ToneActivation)
	m.MediumEvents.At(5).Add(t.Medium.Crashes)
	m.FrameAcquired.Add(t.FramePool.Acquired)
	m.FrameAllocated.Add(t.FramePool.Allocated)
	m.FrameReleased.Add(t.FramePool.Released)
	if ts != nil {
		for i, n := range ts.Placed {
			m.TimerPlaced.At(i).Add(n)
		}
		for i, n := range ts.CancelledIn {
			m.TimerCancelled.At(i).Add(n)
		}
	}

	m.Enqueued.At(p).Add(t.Enqueued)
	m.QueueDrops.At(p).Add(t.QueueDrops)
	m.ReliableTx.At(p).Add(t.ReliableToTransmit)
	m.ReliableDeliv.At(p).Add(t.ReliableDelivered)
	m.Retransmissions.At(p).Add(t.Retransmissions)
	m.Drops.At(p).Add(t.Drops)
	m.UnreliableSent.At(p).Add(t.UnreliableSent)
	m.MRTSSent.At(p).Add(t.MRTSSent)
	m.MRTSAborted.At(p).Add(t.MRTSAborted)
	m.ABTSent.At(p).Add(t.ABTSent)
	m.Generated.At(p).Add(t.Generated)
	m.Receptions.At(p).Add(t.Receptions)
	m.Duplicates.At(p).Add(t.Duplicates)
	m.Runs.At(p).Inc()

	for i, n := range t.ViolationsByClass {
		m.Violations.At(i).Add(n)
	}
}

// MetricsRegistry renders one finished run as a standalone registry: the
// shared kernel/protocol families plus the run-scoped occupancy gauges.
// It is what `rmacsim -metrics <file>` writes out.
func MetricsRegistry(res *RunResult) *metrics.Registry {
	r := metrics.NewRegistry()
	rm := NewRunMetrics(r)
	rm.AddRun(res)

	arenaCap := r.Gauge("rmac_kernel_arena_slots", "Event-arena slots grown (high-water mark of simultaneously queued events).")
	arenaLive := r.Gauge("rmac_kernel_arena_live_slots", "Event-arena slots still queued at collection time.")
	frameLive := r.Gauge("rmac_kernel_frame_live_frames", "Frames acquired and not yet released at collection time.")
	arenaCap.Set(int64(res.Totals.ArenaCap))
	arenaLive.Set(int64(res.Totals.ArenaLive))
	frameLive.Set(int64(res.Totals.FramePool.Live))
	return r
}
