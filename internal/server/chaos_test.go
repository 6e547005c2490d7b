package server

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rmac/internal/experiment"
)

// The chaos tests drive the server through the failure modes it is built
// for — injected panics, hung runs, mid-sweep process death — and assert
// the service's three invariants:
//
//  1. every admitted grid point reaches a terminal state (done,
//     quarantined, or canceled) — nothing is ever lost;
//  2. no grid point's simulation ever succeeds more than once across
//     retries, restarts, and resubmissions — nothing is duplicated; and
//  3. every served result is bit-identical (by fingerprint) to what a
//     direct batch run of the same config produces.

// fakeResult builds a deterministic RunResult from the config alone, so a
// scripted runFn is a pure function the way a real simulation is and
// fingerprints can be checked against an independently computed oracle.
func fakeResult(cfg experiment.Config) experiment.RunResult {
	return experiment.RunResult{
		Config:       cfg,
		Delivery:     float64(cfg.Seed%97) / 97,
		AvgDelay:     cfg.Rate / 1000,
		AvgDropRatio: float64(cfg.Protocol) / 8,
		Events:       uint64(cfg.Seed)*1000 + uint64(cfg.Rate),
	}
}

// script is a scripted simulation entry point: per grid point (keyed by
// cache key) it injects failures for the first failuresFor[key] attempts,
// then succeeds. It counts calls and successes per key across server
// instances, which is what lets a test assert exactly-once completion
// through a crash/restart.
type script struct {
	mu          sync.Mutex
	failuresFor map[string]int // key -> injected failures before success
	hangFor     map[string]int // key -> injected hangs before success
	calls       map[string]int
	successes   map[string]int
	delay       time.Duration // per successful run, ctx-aware
}

func newScript() *script {
	return &script{
		failuresFor: map[string]int{},
		hangFor:     map[string]int{},
		calls:       map[string]int{},
		successes:   map[string]int{},
	}
}

func (sc *script) run(ctx context.Context, cfg experiment.Config) experiment.RunResult {
	key := cfg.CacheKey()
	sc.mu.Lock()
	sc.calls[key]++
	panicNow := sc.failuresFor[key] > 0
	if panicNow {
		sc.failuresFor[key]--
	}
	hangNow := !panicNow && sc.hangFor[key] > 0
	if hangNow {
		sc.hangFor[key]--
	}
	delay := sc.delay
	sc.mu.Unlock()

	if panicNow {
		panic("injected chaos panic")
	}
	if hangNow {
		// A wedged simulation: never finishes on its own, but honours
		// the engine's cooperative-cancellation contract.
		<-ctx.Done()
		res := fakeResult(cfg)
		res.Aborted = true
		res.AbortReason = "sim: watchdog: " + ctx.Err().Error()
		return res
	}
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			res := fakeResult(cfg)
			res.Aborted = true
			res.AbortReason = "sim: watchdog: " + ctx.Err().Error()
			return res
		}
	}
	sc.mu.Lock()
	sc.successes[key]++
	sc.mu.Unlock()
	return fakeResult(cfg)
}

func testConfig(sc *script) Config {
	return Config{
		Workers:       4,
		QueueCap:      64,
		MaxAttempts:   3,
		RetryBase:     time.Millisecond,
		RetryCap:      4 * time.Millisecond,
		PointDeadline: 100 * time.Millisecond,
		runFn:         sc.run,
	}
}

// waitTerminal polls until the job has no pending or running points.
func waitTerminal(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.JobSnapshot(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if st.Done+st.Quarantined+st.Canceled == st.Points {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := s.JobSnapshot(id)
	t.Fatalf("job %s never terminalized: %+v", id, st)
	return JobStatus{}
}

func submit(t *testing.T, s *Server, req SweepRequest) (string, []experiment.Config) {
	t.Helper()
	cfgs, err := req.expand()
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	s.mu.Lock()
	ok, _ := s.admitLocked(len(cfgs))
	if !ok {
		s.mu.Unlock()
		t.Fatalf("queue full")
	}
	s.nextID++
	id := "j" + fmt.Sprint(s.nextID)
	job := s.buildJobLocked(id, req, cfgs)
	s.journal.append(record{T: "submit", Job: id, Time: job.Submitted, Req: &req, Version: experiment.CodeVersion()})
	tasks := make([]task, len(job.points))
	for i, pt := range job.points {
		tasks[i] = task{job: job, pt: pt}
	}
	s.mu.Unlock()
	for _, tk := range tasks {
		s.queue <- tk
	}
	return id, cfgs
}

// chaosReq is an 8-point grid: 2 protocols x 2 rates x 2 seeds.
func chaosReq() SweepRequest {
	return SweepRequest{
		Protocols: []string{"rmac", "bmmm"},
		Rates:     []float64{10, 20},
		Seeds:     2,
	}
}

// assertOracle checks that every completed point's result is
// bit-identical to the oracle the batch path would compute.
func assertOracle(t *testing.T, st JobStatus, cfgs []experiment.Config) {
	t.Helper()
	if len(st.Results) != len(cfgs) {
		t.Fatalf("results = %d, want %d", len(st.Results), len(cfgs))
	}
	want := map[string]bool{}
	for _, cfg := range cfgs {
		oracle := fakeResult(cfg)
		want[oracle.Fingerprint()] = true
	}
	seen := map[string]bool{}
	for _, r := range st.Results {
		if !want[r.Fingerprint] {
			t.Fatalf("result %s/%g seed %d: fingerprint not produced by the batch oracle", r.Protocol, r.Rate, r.Seed)
		}
		if seen[r.Fingerprint] {
			t.Fatalf("fingerprint served twice: %s", r.Fingerprint)
		}
		seen[r.Fingerprint] = true
	}
}

// TestChaosPanicsAndHangs injects a panic-then-succeed script on half the
// grid and a hang on one point; everything must still terminalize done,
// each point succeeding exactly once, bit-identical to the oracle.
func TestChaosPanicsAndHangs(t *testing.T) {
	sc := newScript()
	req := chaosReq()
	cfgs, err := req.expand()
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		key := cfg.CacheKey()
		if i%2 == 0 {
			sc.failuresFor[key] = 2 // succeeds on the last allowed attempt
		}
		if i == 3 {
			sc.hangFor[key] = 1 // one deadline-exceeded attempt first
		}
	}
	s, err := New(testConfig(sc))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	id, _ := submit(t, s, req)
	st := waitTerminal(t, s, id)
	if st.State != JobCompleted || st.Done != len(cfgs) || st.Quarantined != 0 {
		t.Fatalf("state=%v done=%d quarantined=%d, want completed %d 0", st.State, st.Done, st.Quarantined, len(cfgs))
	}
	assertOracle(t, st, cfgs)
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for key, n := range sc.successes {
		if n != 1 {
			t.Fatalf("point %s succeeded %d times, want exactly once", key[:12], n)
		}
	}
	if s.pending != 0 {
		t.Fatalf("pending = %d after terminal job", s.pending)
	}
}

// TestChaosQuarantine scripts one grid point to fail beyond MaxAttempts:
// the job must degrade — not hang, not retry forever — with the poison
// point quarantined and its last error recorded, while every healthy
// point completes.
func TestChaosQuarantine(t *testing.T) {
	sc := newScript()
	req := chaosReq()
	cfgs, _ := req.expand()
	poison := cfgs[5].CacheKey()
	sc.failuresFor[poison] = 1000

	s, err := New(testConfig(sc))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	id, _ := submit(t, s, req)
	st := waitTerminal(t, s, id)
	if st.State != JobDegraded || st.Quarantined != 1 || st.Done != len(cfgs)-1 {
		t.Fatalf("state=%v quarantined=%d done=%d, want degraded 1 %d", st.State, st.Quarantined, st.Done, len(cfgs)-1)
	}
	if len(st.Quarantine) != 1 {
		t.Fatalf("quarantine list = %d entries", len(st.Quarantine))
	}
	q := st.Quarantine[0]
	if q.Attempts != 3 {
		t.Fatalf("quarantined after %d attempts, want 3", q.Attempts)
	}
	if q.Error == "" || q.Idx != 5 {
		t.Fatalf("quarantine entry = %+v", q)
	}
	sc.mu.Lock()
	if n := sc.calls[poison]; n != 3 {
		t.Fatalf("poison point called %d times, want exactly MaxAttempts=3", n)
	}
	sc.mu.Unlock()
}

// TestChaosRestartResume is the headline crash test: a server dies
// mid-sweep (hard stop, as with kill -9 — in-flight work is simply cut
// off), and a new server over the same journal finishes the job without
// losing a point, without re-running finished points, and with every
// result bit-identical to the oracle. A resubmission of the same sweep
// then completes entirely from cache without a single simulation call.
func TestChaosRestartResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweeps.jsonl")
	sc := newScript()
	sc.delay = 5 * time.Millisecond // let the kill land mid-sweep
	req := chaosReq()
	cfgs, _ := req.expand()
	sc.failuresFor[cfgs[1].CacheKey()] = 1 // a retry survives the crash window too

	cfg1 := testConfig(sc)
	cfg1.Workers = 2
	cfg1.JournalPath = journal
	s1, err := New(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := submit(t, s1, req)

	// Wait for a strict subset to finish, then die mid-flight.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ := s1.JobSnapshot(id)
		if st.Done >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no points finished before the kill")
		}
		time.Sleep(time.Millisecond)
	}
	s1.Close()
	doneBefore, _ := s1.JobSnapshot(id)
	if doneBefore.Done == len(cfgs) {
		t.Skip("sweep finished before the kill landed; nothing to resume")
	}
	sc.mu.Lock()
	callsBefore := map[string]int{}
	for k, v := range sc.calls {
		callsBefore[k] = v
	}
	sc.mu.Unlock()

	// Second life: same journal, fresh process state.
	cfg2 := testConfig(sc)
	cfg2.JournalPath = journal
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	st, ok := s2.JobSnapshot(id)
	if !ok {
		t.Fatalf("job %s not recovered from journal", id)
	}
	if st.Done < doneBefore.Done {
		t.Fatalf("recovered done=%d < journaled done=%d", st.Done, doneBefore.Done)
	}
	st = waitTerminal(t, s2, id)
	if st.State != JobCompleted || st.Done != len(cfgs) {
		t.Fatalf("resumed job: state=%v done=%d, want completed %d", st.State, st.Done, len(cfgs))
	}
	assertOracle(t, st, cfgs)

	sc.mu.Lock()
	for _, cfg := range cfgs {
		key := cfg.CacheKey()
		if sc.successes[key] != 1 {
			t.Fatalf("point %s succeeded %d times across the restart, want exactly once", key[:12], sc.successes[key])
		}
	}
	sc.mu.Unlock()

	// Resubmission: all cache, zero new simulation calls.
	sc.mu.Lock()
	callsAfterResume := map[string]int{}
	for k, v := range sc.calls {
		callsAfterResume[k] = v
	}
	sc.mu.Unlock()
	id2, _ := submit(t, s2, req)
	if id2 == id {
		t.Fatalf("resubmission reused job id %s", id)
	}
	st2 := waitTerminal(t, s2, id2)
	if st2.State != JobCompleted || st2.CacheHits != len(cfgs) {
		t.Fatalf("resubmission: state=%v cacheHits=%d, want completed %d", st2.State, st2.CacheHits, len(cfgs))
	}
	assertOracle(t, st2, cfgs)
	sc.mu.Lock()
	for k, v := range sc.calls {
		if v != callsAfterResume[k] {
			t.Fatalf("cache-served resubmission re-ran point %s", k[:12])
		}
	}
	sc.mu.Unlock()
}

// TestChaosCancel: canceling a job terminalizes every point promptly —
// queued points as canceled, in-flight points cut off cooperatively —
// and releases all queue capacity.
func TestChaosCancel(t *testing.T) {
	sc := newScript()
	sc.delay = 20 * time.Millisecond
	s, err := New(testConfig(sc))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	id, cfgs := submit(t, s, chaosReq())
	time.Sleep(5 * time.Millisecond) // let some points start
	s.mu.Lock()
	job := s.jobs[id]
	job.cancelled = true
	job.cancel()
	s.touchLocked(job)
	s.mu.Unlock()

	st := waitTerminal(t, s, id)
	if st.State != JobCanceled {
		t.Fatalf("state = %v, want canceled", st.State)
	}
	if st.Done+st.Canceled != len(cfgs) || st.Quarantined != 0 {
		t.Fatalf("done=%d canceled=%d quarantined=%d over %d points", st.Done, st.Canceled, st.Quarantined, len(cfgs))
	}
	s.mu.Lock()
	if s.pending != 0 {
		t.Fatalf("pending = %d after canceled job terminalized", s.pending)
	}
	s.mu.Unlock()
}

// TestRealSweepMatchesBatch runs one real (tiny) simulation through the
// whole service stack — no scripted runFn — and checks the served result
// is bit-identical to experiment.Run of the same expanded config: the
// service is an orchestration layer, never a perturbation.
func TestRealSweepMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	req := SweepRequest{
		Protocols: []string{"rmac"},
		Rates:     []float64{10},
		Seeds:     1,
		Nodes:     20,
		FieldW:    250,
		FieldH:    150,
		Packets:   40,
		WarmupS:   8,
		DrainS:    8,
	}
	s, err := New(Config{Workers: 1, MaxAttempts: 2, RetryBase: time.Millisecond, PointDeadline: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	id, cfgs := submit(t, s, req)
	st := waitTerminal(t, s, id)
	if st.State != JobCompleted || len(st.Results) != 1 {
		t.Fatalf("state=%v results=%d", st.State, len(st.Results))
	}
	oracle := experiment.Run(cfgs[0])
	if oracle.Failed {
		t.Fatalf("batch oracle failed: %s", oracle.FailReason)
	}
	if got, want := st.Results[0].Fingerprint, oracle.Fingerprint(); got != want {
		t.Fatalf("served result diverges from batch run:\n  served %s\n  batch  %s", got, want)
	}
	if st.Results[0].Delivery != oracle.Delivery {
		t.Fatalf("delivery: served %v, batch %v", st.Results[0].Delivery, oracle.Delivery)
	}
}

// TestExpandMatchesBatchSweep checks that a request's grid is the batch
// sweep's grid: expand yields, point for point and in order, the cache
// keys of the runs experiment.RunSweep performs for the same base and
// axes, so served and batch results of one cell share a cache entry.
func TestExpandMatchesBatchSweep(t *testing.T) {
	req := SweepRequest{
		Protocols: []string{"rmac", "bmmm"},
		Scenarios: []string{"stationary", "speed2"},
		Rates:     []float64{10, 20},
		Seeds:     2,
		Nodes:     6,
		FieldW:    120,
		FieldH:    80,
		Packets:   2,
		WarmupS:   0.5,
		DrainS:    0.5,
	}
	cfgs, err := req.expand()
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	points := experiment.RunSweep(experiment.Sweep{
		Base:        cfgs[0],
		Protocols:   []experiment.Protocol{experiment.RMAC, experiment.BMMM},
		Scenarios:   []experiment.Scenario{experiment.Stationary, experiment.Speed2},
		Rates:       req.Rates,
		Seeds:       req.Seeds,
		Parallelism: 1,
	})
	var batch []string
	for _, pt := range points {
		for _, r := range pt.Runs {
			batch = append(batch, r.Config.CacheKey())
		}
	}
	if len(batch) != len(cfgs) {
		t.Fatalf("expand yields %d grid points, the batch sweep ran %d", len(cfgs), len(batch))
	}
	for i, cfg := range cfgs {
		if got := cfg.CacheKey(); got != batch[i] {
			t.Errorf("grid point %d (%v/%v/%g seed %d): cache key %s, batch run %s",
				i, cfg.Protocol, cfg.Scenario, cfg.Rate, cfg.Seed, got, batch[i])
		}
	}
}
