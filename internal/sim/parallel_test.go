package sim

import "testing"

func TestShardSyncClosure(t *testing.T) {
	inf := Time(MaxTime)
	direct := [][]Time{
		{inf, 5, inf},
		{7, inf, 10},
		{inf, 3, inf},
	}
	ss := NewShardSync(direct)
	want := [][]Time{
		{12, 5, 15},
		{7, 12, 10},
		{10, 3, 13},
	}
	for k := range want {
		for j := range want[k] {
			if got := ss.Lookahead(k, j); got != want[k][j] {
				t.Errorf("Lookahead(%d,%d) = %v, want %v", k, j, got, want[k][j])
			}
		}
	}
}

func TestShardSyncClosureDecoupled(t *testing.T) {
	inf := Time(MaxTime)
	ss := NewShardSync([][]Time{{inf, inf}, {inf, inf}})
	for k := 0; k < 2; k++ {
		for j := 0; j < 2; j++ {
			if got := ss.Lookahead(k, j); got != inf {
				t.Errorf("Lookahead(%d,%d) = %v, want MaxTime", k, j, got)
			}
		}
	}
	ss.Publish(1, 100)
	if got, by := ss.Target(0); got != MaxTime || by != -1 {
		t.Errorf("decoupled Target = %v (by %d), want MaxTime (by -1)", got, by)
	}
}

// TestShardSyncTarget pins the target formula: only the other shards'
// frontiers bound shard 0, each plus its closed lookahead to 0, and 0's
// own frontier is never read. Lower only ever lowers a frontier, and a
// receiver's frontier lowered by one of 0's sends bounds 0's echo: a send
// at 100 arriving at shard 1 at 105 caps 0 at 105 + 7.
func TestShardSyncTarget(t *testing.T) {
	inf := Time(MaxTime)
	ss := NewShardSync([][]Time{
		{inf, 5, inf},
		{7, inf, 10},
		{inf, 3, inf},
	})
	ss.Publish(0, 100)
	ss.Publish(1, 1000)
	ss.Publish(2, 1000)
	if got, by := ss.Target(0); got != 1007 || by != 1 {
		t.Errorf("Target(0) = %v by %d, want 1007 by 1 (frontier 1000 + lookahead 7; own frontier 100 does not cap)", got, by)
	}
	ss.Publish(0, 0)
	if got, by := ss.Target(0); got != 1007 || by != 1 {
		t.Errorf("Target(0) = %v by %d after its own frontier fell to 0, want 1007 by 1", got, by)
	}
	ss.Lower(1, 2000)
	if got := ss.Frontier(1); got != 1000 {
		t.Errorf("Lower(1, 2000) moved frontier 1000 to %v", got)
	}
	ss.Lower(1, 105)
	if got := ss.Frontier(1); got != 105 {
		t.Errorf("Lower(1, 105): frontier %v, want 105", got)
	}
	if got, by := ss.Target(0); got != 112 || by != 1 {
		t.Errorf("Target(0) = %v by %d, want 112 by 1 (echo: delivery at 105 + lookahead back 7)", got, by)
	}
	ss.Publish(1, MaxTime) // terminated shard constrains nobody
	if got, by := ss.Target(0); got != 1010 || by != 2 {
		t.Errorf("Target(0) = %v by %d, want 1010 by 2 (shard 2 via relay closure)", got, by)
	}
	if got := ss.Frontier(1); got != MaxTime {
		t.Errorf("Frontier(1) = %v", got)
	}
}

// TestShardSyncSetLookahead: an epoch join re-closes the lookahead in
// place, so entries a coupling no longer supports must not survive from
// the previous epoch's closure.
func TestShardSyncSetLookahead(t *testing.T) {
	inf := Time(MaxTime)
	ss := NewShardSync([][]Time{
		{inf, 5, inf},
		{7, inf, 10},
		{inf, 3, inf},
	})
	ss.SetLookahead([][]Time{
		{inf, 4, inf},
		{6, inf, inf},
		{inf, inf, inf},
	})
	want := [][]Time{
		{10, 4, inf},
		{6, 10, inf},
		{inf, inf, inf},
	}
	for k := range want {
		for j := range want[k] {
			if got := ss.Lookahead(k, j); got != want[k][j] {
				t.Errorf("Lookahead(%d,%d) = %v, want %v", k, j, got, want[k][j])
			}
		}
	}
	ss.Publish(0, 100)
	ss.Publish(1, 200)
	if got, by := ss.Target(2); got != MaxTime || by != -1 {
		t.Errorf("decoupled shard 2: Target = %v by %d, want MaxTime by -1", got, by)
	}
	if got, by := ss.Target(0); got != 206 || by != 1 {
		t.Errorf("Target(0) = %v by %d, want 206 by 1", got, by)
	}
}

// TestEngineStopped: Stopped tells a Run that Stop cut short from one
// that reached its horizon, and the next Run clears it.
func TestEngineStopped(t *testing.T) {
	eng := NewEngine(1)
	eng.Schedule(10, eng.Stop)
	eng.Schedule(20, func() {})
	eng.Run(100)
	if !eng.Stopped() || eng.Now() != 10 {
		t.Fatalf("after a stopping event: Stopped %v, Now %v; want true, 10", eng.Stopped(), eng.Now())
	}
	eng.Run(100)
	if eng.Stopped() || eng.Now() != 100 {
		t.Fatalf("after a full window: Stopped %v, Now %v; want false, 100", eng.Stopped(), eng.Now())
	}
}

type orderRec struct {
	log *[]int
	id  int
}

func (o orderRec) Call(int32) { *o.log = append(*o.log, o.id) }

// TestScheduleCrossCallOrder: cross events interleave with local events by
// (time, seq) — local events first (their sequence numbers stay below
// CrossSeqBase), then cross events in sender-minted sequence order,
// independent of injection order.
func TestScheduleCrossCallOrder(t *testing.T) {
	eng := NewEngine(1)
	var log []int
	at := Time(1000)
	eng.ScheduleCrossCall(at, orderRec{&log, 3}, 0, CrossSeq(1, 0))
	eng.ScheduleCrossCall(at, orderRec{&log, 2}, 0, CrossSeq(0, 7))
	eng.ScheduleCall(at, orderRec{&log, 1}, 0)
	eng.Run(at)
	if len(log) != 3 || log[0] != 1 || log[1] != 2 || log[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", log)
	}
}

// TestNextLowerBoundExact schedules one event in each scheduler tier (due
// list, wheel level 0, wheel level 1, overflow heap) and checks the
// reported bound is the exact minimum event time each round.
func TestNextLowerBoundExact(t *testing.T) {
	eng := NewEngine(1)
	if got := eng.NextLowerBound(); got != MaxTime {
		t.Fatalf("empty engine bound = %v, want MaxTime", got)
	}
	var log []int
	times := []Time{3, 333, 70_000, 5_000_000_000}
	for i, at := range times {
		eng.ScheduleCall(at, orderRec{&log, i}, 0)
	}
	for _, at := range times {
		if got := eng.NextLowerBound(); got != at {
			t.Fatalf("bound = %v, want %v", got, at)
		}
		eng.Run(at)
	}
	if got := eng.NextLowerBound(); got != MaxTime {
		t.Fatalf("drained engine bound = %v, want MaxTime", got)
	}
	if len(log) != len(times) {
		t.Fatalf("ran %d events, want %d", len(log), len(times))
	}
}
