package experiment

import (
	"strings"
	"testing"
	"time"

	"rmac/internal/metrics"
)

// TestRunMetricsNames guards the naming convention: every family the run
// layer registers must pass metrics.CheckName (the same lint CI applies
// to a live scrape).
func TestRunMetricsNames(t *testing.T) {
	r := metrics.NewRegistry()
	NewRunMetrics(r)
	if n := len(r.Names()); n == 0 {
		t.Fatal("no families registered")
	}
	// Registration itself panics on a bad name, so reaching here means
	// they all validated; spot-check the vocabulary is the expected one.
	names := strings.Join(r.Names(), "\n")
	for _, want := range []string{
		"rmac_kernel_events_total",
		"rmac_kernel_medium_events_total",
		"rmac_kernel_shard_windows_total",
		"rmac_kernel_shard_messages_total",
		"rmac_kernel_shard_stalls_total",
		"rmac_kernel_shard_stall_wait_seconds",
		"rmac_proto_reliable_delivered_total",
		"rmac_proto_audit_violations_total",
	} {
		if !strings.Contains(names, want) {
			t.Errorf("family %s not registered; have:\n%s", want, names)
		}
	}
}

// TestMetricsRegistryFromRun runs a small simulation and checks the
// rendered registry agrees with the RunResult it came from.
func TestMetricsRegistryFromRun(t *testing.T) {
	cfg := smallConfig()
	cfg.TimerStats = true
	res := Run(cfg)
	if res.Failed {
		t.Fatal(res.FailReason)
	}

	r := metrics.NewRegistry()
	rm := NewRunMetrics(r)
	rm.AddRun(&res)

	if got := rm.Events.Value(); got != res.Events {
		t.Errorf("events_total = %d, want %d", got, res.Events)
	}
	p := int(cfg.Protocol)
	if got := rm.Generated.At(p).Value(); got != res.Metrics.Generated {
		t.Errorf("generated_total = %d, want %d", got, res.Metrics.Generated)
	}
	if got := rm.ReliableDeliv.At(p).Value(); got != res.Totals.ReliableDelivered {
		t.Errorf("reliable_delivered_total = %d, want %d", got, res.Totals.ReliableDelivered)
	}
	if rm.Runs.At(p).Value() != 1 {
		t.Errorf("runs_total = %d, want 1", rm.Runs.At(p).Value())
	}
	// A run schedules many timers; the census families must be non-empty
	// when TimerStats was on.
	var placed uint64
	for i := 0; i < rm.TimerPlaced.Len(); i++ {
		placed += rm.TimerPlaced.At(i).Value()
	}
	if placed == 0 {
		t.Error("timer_scheduled_total is zero with TimerStats enabled")
	}
	if placed != res.TimerStats.TotalScheduled() {
		t.Errorf("timer_scheduled_total = %d, want %d", placed, res.TimerStats.TotalScheduled())
	}

	// Frame-pool conservation: acquired = released + live.
	acq, rel := rm.FrameAcquired.Value(), rm.FrameReleased.Value()
	if acq != rel+uint64(res.Totals.FramePool.Live) {
		t.Errorf("frame pool: acquired %d != released %d + live %d",
			acq, rel, res.Totals.FramePool.Live)
	}

	// The standalone registry renders without error and carries the
	// run-scoped gauges.
	var sb strings.Builder
	if _, err := MetricsRegistry(&res).WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"rmac_kernel_arena_slots ",
		"rmac_kernel_frame_live_frames ",
		`rmac_proto_runs_total{protocol="RMAC"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestShardMetricsFold runs a small mobile sharded simulation and checks
// the rmac_kernel_shard_* families — including the epoch rollover, ghost
// churn and stall attribution counters — reflect its per-shard scheduler
// stats. Every stall is attributed to exactly one term, a neighbour's
// frontier or the join (one per epoch rollover), and none to the shard
// itself: no target has a term of its own.
func TestShardMetricsFold(t *testing.T) {
	cfg := shardConfig(2)
	cfg.Scenario = Speed1
	res := Run(cfg)
	if res.Failed {
		t.Fatal(res.FailReason)
	}
	r := metrics.NewRegistry()
	rm := NewRunMetrics(r)
	rm.AddRun(&res)

	var windows, out, in, stalls, hist, epochs, adds, dels uint64
	var byNeighbour, byEpoch uint64
	for _, ss := range res.Shards {
		n, ep := ss.StallBounds()
		if n+ep != ss.Stalls {
			t.Errorf("shard %d: stall bounds %d+%d do not add up to %d stalls", ss.Shard, n, ep, ss.Stalls)
		}
		if ep != ss.Epochs {
			t.Errorf("shard %d: %d epoch-bound stalls, want one per rollover (%d)", ss.Shard, ep, ss.Epochs)
		}
		if own := ss.StallBy[ss.Shard]; own != 0 {
			t.Errorf("shard %d: %d stalls bound by its own term", ss.Shard, own)
		}
		byNeighbour += n
		byEpoch += ep
		windows += ss.Windows
		out += ss.MsgsOut
		in += ss.MsgsIn
		stalls += ss.Stalls
		for _, n := range ss.StallHist {
			hist += n
		}
		epochs += ss.Epochs
		adds += ss.GhostAdds
		dels += ss.GhostDels
	}
	if epochs == 0 {
		t.Error("mobile sharded run crossed no epoch boundaries")
	}
	if got := rm.ShardEpochs.Value(); got != epochs {
		t.Errorf("shard_epoch_rollovers_total = %d, want %d", got, epochs)
	}
	if got := rm.ShardGhosts.At(0).Value(); got != adds {
		t.Errorf("shard_epoch_ghosts_total{add} = %d, want %d", got, adds)
	}
	if got := rm.ShardGhosts.At(1).Value(); got != dels {
		t.Errorf("shard_epoch_ghosts_total{del} = %d, want %d", got, dels)
	}
	if got := rm.ShardWindows.Value(); got != windows {
		t.Errorf("shard_windows_total = %d, want %d", got, windows)
	}
	if got := rm.ShardMessages.At(0).Value(); got != out {
		t.Errorf("shard_messages_total{out} = %d, want %d", got, out)
	}
	if got := rm.ShardMessages.At(1).Value(); got != in {
		t.Errorf("shard_messages_total{in} = %d, want %d", got, in)
	}
	if got := rm.ShardStalls.Value(); got != stalls {
		t.Errorf("shard_stalls_total = %d, want %d", got, stalls)
	}
	for i, want := range []uint64{byNeighbour, byEpoch} {
		if got := rm.ShardStallBy.At(i).Value(); got != want {
			t.Errorf("shard_stall_bound_total cell %d = %d, want %d", i, got, want)
		}
	}
	if got := rm.ShardStallWait.Count(); got != hist {
		t.Errorf("shard_stall_wait_seconds count = %d, want %d", got, hist)
	}
	var sb strings.Builder
	if _, err := MetricsRegistry(&res).WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "rmac_kernel_shard_stall_wait_seconds_bucket") {
		t.Error("exposition missing shard stall histogram buckets")
	}
	for _, by := range []string{"neighbour", "epoch"} {
		if want := `rmac_kernel_shard_stall_bound_total{by="` + by + `"}`; !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestAddRunAllocs pins the fold path at zero allocations: attaching a
// registry to whole runs costs nothing per run beyond registration.
func TestAddRunAllocs(t *testing.T) {
	cfg := smallConfig()
	cfg.TimerStats = true
	res := Run(cfg)
	r := metrics.NewRegistry()
	rm := NewRunMetrics(r)
	if n := testing.AllocsPerRun(100, func() { rm.AddRun(&res) }); n != 0 {
		t.Errorf("AddRun allocates %v times per run, want 0", n)
	}
	sharded := Run(shardConfig(2))
	if n := testing.AllocsPerRun(100, func() { rm.AddRun(&sharded) }); n != 0 {
		t.Errorf("AddRun of a sharded run allocates %v times per run, want 0", n)
	}
	// Recording a stall and its bound, or a join's wait, costs nothing
	// either.
	ss := &sharded.Shards[0]
	if n := testing.AllocsPerRun(100, func() {
		ss.stalled(1)
		ss.joined(time.Microsecond)
	}); n != 0 {
		t.Errorf("recording a stall allocates %v times, want 0", n)
	}
}

// TestTotalsDeterministic confirms the new Totals aggregation is part of
// the deterministic surface: equal seeds, equal totals.
func TestTotalsDeterministic(t *testing.T) {
	cfg := smallConfig()
	a, b := Run(cfg), Run(cfg)
	if a.Totals != b.Totals {
		t.Fatalf("totals differ across identical runs:\n%+v\n%+v", a.Totals, b.Totals)
	}
}
