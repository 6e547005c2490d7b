package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rmac/internal/cli"
	"rmac/internal/experiment"
	"rmac/internal/fault"
	"rmac/internal/geom"
	"rmac/internal/sim"
)

// SweepRequest is the JSON body of POST /sweeps: a sweep grid expressed
// over the wire. Zero fields inherit the batch CLI's defaults
// (experiment.DefaultConfig), so a minimal request is just a protocol
// list. The grid expands protocol-major, then scenario, rate, seed — the
// same order and the same placement-seed derivation as the batch
// RunSweep, so every grid point's cache key matches what a batch run of
// the same cell would compute.
type SweepRequest struct {
	Protocols []string  `json:"protocols"`
	Scenarios []string  `json:"scenarios,omitempty"`
	Rates     []float64 `json:"rates,omitempty"`
	Seeds     int       `json:"seeds,omitempty"`

	Nodes      int     `json:"nodes,omitempty"`
	FieldW     float64 `json:"field_w,omitempty"`
	FieldH     float64 `json:"field_h,omitempty"`
	Packets    int     `json:"packets,omitempty"`
	PacketSize int     `json:"packet_size,omitempty"`
	WarmupS    float64 `json:"warmup_s,omitempty"`
	DrainS     float64 `json:"drain_s,omitempty"`

	// Burst and Avail select impairment severities exactly like the
	// rmacsim -burst/-avail flags; zero Burst and zero (or 1) Avail
	// leave the channel clean.
	Burst float64 `json:"burst,omitempty"`
	Avail float64 `json:"avail,omitempty"`

	// MaxEvents arms the per-run event-budget watchdog inside the
	// simulation itself, on top of the server's wall-clock deadline.
	MaxEvents uint64 `json:"max_events,omitempty"`

	// Audit toggles the protocol-invariant auditor (default on, as in
	// the batch CLI).
	Audit *bool `json:"audit,omitempty"`
}

// expand materializes the request's grid as one experiment.Config per
// point through the batch sweep's own expansion (experiment.Sweep.Configs),
// validating every cell up front so a malformed request is rejected with
// 400 before anything is queued.
func (r *SweepRequest) expand() ([]experiment.Config, error) {
	if len(r.Protocols) == 0 {
		return nil, errors.New("request needs at least one protocol")
	}
	var protocols []experiment.Protocol
	for _, s := range r.Protocols {
		p, err := cli.ParseProtocol(s)
		if err != nil {
			return nil, err
		}
		protocols = append(protocols, p)
	}
	scenarios := []experiment.Scenario{experiment.Stationary}
	if len(r.Scenarios) > 0 {
		scenarios = scenarios[:0]
		for _, s := range r.Scenarios {
			sc, err := cli.ParseScenario(s)
			if err != nil {
				return nil, err
			}
			scenarios = append(scenarios, sc)
		}
	}
	base := experiment.DefaultConfig()
	rates := []float64{base.Rate}
	if len(r.Rates) > 0 {
		rates = r.Rates
	}
	seeds := r.Seeds
	if seeds <= 0 {
		seeds = 1
	}

	if r.Nodes > 0 {
		base.Nodes = r.Nodes
	}
	if r.FieldW > 0 {
		base.Field = geom.Rect{W: r.FieldW, H: base.Field.H}
	}
	if r.FieldH > 0 {
		base.Field.H = r.FieldH
	}
	if r.Packets > 0 {
		base.Packets = r.Packets
	}
	if r.PacketSize > 0 {
		base.PacketSize = r.PacketSize
	}
	if r.WarmupS > 0 {
		base.Warmup = sim.Time(r.WarmupS * float64(sim.Second))
	}
	if r.DrainS > 0 {
		base.Drain = sim.Time(r.DrainS * float64(sim.Second))
	}
	avail := r.Avail
	if avail == 0 {
		avail = 1
	}
	base.Fault = fault.Config{Burst: fault.BurstAt(r.Burst), Churn: fault.ChurnAt(avail)}
	base.MaxEvents = r.MaxEvents
	if r.Audit != nil {
		base.Audit = *r.Audit
	}

	sweep := experiment.Sweep{Base: base, Protocols: protocols, Scenarios: scenarios, Rates: rates, Seeds: seeds}
	cfgs := sweep.Configs()
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("grid point %v/%v/%g: %w", cfg.Protocol, cfg.Scenario, cfg.Rate, err)
		}
	}
	return cfgs, nil
}

// PointResult is the wire form of one grid point's measurements: the
// paper's per-figure metrics plus the robustness counters and the
// bit-identity fingerprint. It is what the cache stores, the journal
// records, and /jobs/{id} returns.
type PointResult struct {
	Protocol string  `json:"protocol"`
	Scenario string  `json:"scenario"`
	Rate     float64 `json:"rate"`
	Seed     int64   `json:"seed"`

	Delivery         float64 `json:"delivery"`
	AvgDelayS        float64 `json:"avg_delay_s"`
	AvgDropRatio     float64 `json:"avg_drop_ratio"`
	AvgRetxRatio     float64 `json:"avg_retx_ratio"`
	AvgOverheadRatio float64 `json:"avg_overhead_ratio"`

	Events      uint64 `json:"events"`
	Violations  uint64 `json:"violations,omitempty"`
	Deadlocks   int    `json:"deadlocks,omitempty"`
	Aborted     bool   `json:"aborted,omitempty"`
	AbortReason string `json:"abort_reason,omitempty"`

	// Fingerprint digests every deterministic measurement of the run
	// (experiment.RunResult.Fingerprint); equal fingerprints mean
	// bit-identical results.
	Fingerprint string `json:"fingerprint"`

	// Totals carries the run's raw monotone counters. Journaling them per
	// point is what lets a restarted server rebuild its metric families to
	// values ≥ anything the predecessor served (see serverMetrics).
	Totals *experiment.RunTotals `json:"totals,omitempty"`
}

// makePointResult reduces a RunResult to its wire form.
func makePointResult(res *experiment.RunResult) PointResult {
	totals := res.Totals
	return PointResult{
		Protocol:         res.Config.Protocol.String(),
		Scenario:         res.Config.Scenario.String(),
		Rate:             res.Config.Rate,
		Seed:             res.Config.Seed,
		Delivery:         res.Delivery,
		AvgDelayS:        res.AvgDelay,
		AvgDropRatio:     res.AvgDropRatio,
		AvgRetxRatio:     res.AvgRetxRatio,
		AvgOverheadRatio: res.AvgOverheadRatio,
		Events:           res.Events,
		Violations:       res.ViolationCount,
		Deadlocks:        len(res.Deadlocks),
		Aborted:          res.Aborted,
		AbortReason:      res.AbortReason,
		Fingerprint:      res.Fingerprint(),
		Totals:           &totals,
	}
}

// pointState is the lifecycle of one grid point. Every admitted point
// ends terminal: done, quarantined, or canceled — never lost.
type pointState string

const (
	statePending     pointState = "pending"
	stateRunning     pointState = "running"
	stateDone        pointState = "done"
	stateQuarantined pointState = "quarantined"
	stateCanceled    pointState = "canceled"
)

func (s pointState) terminal() bool {
	return s == stateDone || s == stateQuarantined || s == stateCanceled
}

// point is one grid point of a job.
type point struct {
	Idx      int
	Cfg      experiment.Config
	Key      string // content address: experiment.Config.CacheKey
	State    pointState
	Attempts int
	CacheHit bool
	Result   *PointResult
	LastErr  string
}

// JobState summarizes a job. A job is terminal in states completed,
// degraded, or canceled.
type JobState string

const (
	// JobQueued: no point has started yet.
	JobQueued JobState = "queued"
	// JobRunning: at least one point started, not all terminal.
	JobRunning JobState = "running"
	// JobCompleted: every point done (cache hits included).
	JobCompleted JobState = "completed"
	// JobDegraded: every point terminal, at least one quarantined.
	JobDegraded JobState = "degraded"
	// JobCanceled: cancellation requested; points wind down to terminal.
	JobCanceled JobState = "canceled"
)

// Job is one submitted sweep.
type Job struct {
	ID        string
	Req       SweepRequest
	Submitted time.Time

	points      []*point
	done        int
	cacheHits   int
	quarantined int
	canceled    int
	cancelled   bool // cancellation requested (by client or journal)

	ctx    context.Context
	cancel context.CancelFunc

	// changed is closed and replaced on every state change; watchers
	// (the stream endpoint) re-arm on the fresh channel.
	changed chan struct{}
}

func (j *Job) terminalCount() int { return j.done + j.quarantined + j.canceled }

func (j *Job) terminal() bool { return j.terminalCount() == len(j.points) }

func (j *Job) state() JobState {
	switch {
	case j.cancelled:
		return JobCanceled
	case !j.terminal():
		if j.terminalCount() == 0 && !j.started() {
			return JobQueued
		}
		return JobRunning
	case j.quarantined > 0:
		return JobDegraded
	default:
		return JobCompleted
	}
}

func (j *Job) started() bool {
	for _, pt := range j.points {
		if pt.State != statePending || pt.Attempts > 0 {
			return true
		}
	}
	return false
}

// PointFailure describes one quarantined grid point in a job status.
type PointFailure struct {
	Idx      int     `json:"idx"`
	Protocol string  `json:"protocol"`
	Scenario string  `json:"scenario"`
	Rate     float64 `json:"rate"`
	Seed     int64   `json:"seed"`
	Attempts int     `json:"attempts"`
	Error    string  `json:"error"`
}

// JobStatus is the wire form of a job: GET /jobs/{id} and every frame of
// the progress stream.
type JobStatus struct {
	ID          string    `json:"id"`
	State       JobState  `json:"state"`
	Submitted   time.Time `json:"submitted"`
	Points      int       `json:"points"`
	Done        int       `json:"done"`
	Running     int       `json:"running"`
	Pending     int       `json:"pending"`
	CacheHits   int       `json:"cache_hits"`
	Quarantined int       `json:"quarantined"`
	Canceled    int       `json:"canceled"`

	// Results lists completed points in grid order — partial results
	// stream out while the job is still running.
	Results []PointResult `json:"results,omitempty"`
	// Quarantine lists poisoned points and their final error.
	Quarantine []PointFailure `json:"quarantine,omitempty"`
}

// statusLocked snapshots a job; the caller holds s.mu. withResults
// controls whether completed point payloads are included (the list
// endpoint omits them).
func (j *Job) statusLocked(withResults bool) JobStatus {
	st := JobStatus{
		ID:          j.ID,
		State:       j.state(),
		Submitted:   j.Submitted,
		Points:      len(j.points),
		Done:        j.done,
		CacheHits:   j.cacheHits,
		Quarantined: j.quarantined,
		Canceled:    j.canceled,
	}
	for _, pt := range j.points {
		switch pt.State {
		case stateRunning:
			st.Running++
		case statePending:
			st.Pending++
		}
		if !withResults {
			continue
		}
		switch {
		case pt.State == stateDone && pt.Result != nil:
			st.Results = append(st.Results, *pt.Result)
		case pt.State == stateQuarantined:
			st.Quarantine = append(st.Quarantine, PointFailure{
				Idx:      pt.Idx,
				Protocol: pt.Cfg.Protocol.String(),
				Scenario: pt.Cfg.Scenario.String(),
				Rate:     pt.Cfg.Rate,
				Seed:     pt.Cfg.Seed,
				Attempts: pt.Attempts,
				Error:    pt.LastErr,
			})
		}
	}
	return st
}
