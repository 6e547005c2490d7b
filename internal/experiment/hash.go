package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"runtime/debug"
	"sort"
	"sync"
)

// This file gives runs a content address. A simulation is a pure function
// of (Config, code version): two runs with equal cache keys produce
// bit-identical results, which is what lets the sweep service
// (internal/server) serve repeated grid points from a cache and lets a
// resumed sweep trust journaled results. Fingerprint is the cheap
// bit-identity witness on the result side: the chaos tests compare cached
// results against fresh batch runs through it.

var (
	codeVersionOnce sync.Once
	codeVersion     string
)

// CodeVersion identifies the simulator build baked into this process: the
// VCS revision recorded by the Go toolchain (suffixed "+dirty" for
// modified trees), or "unversioned" for builds without VCS stamping (go
// test, go run). It is folded into every cache key so results computed by
// a different build of the simulator are never served from cache.
func CodeVersion() string {
	codeVersionOnce.Do(func() {
		codeVersion = "unversioned"
		info, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		var rev, dirty string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			codeVersion = rev + dirty
		}
	})
	return codeVersion
}

// CacheKey returns the content address of this configuration's result:
// a hex SHA-256 over the canonical JSON encoding of the whole Config
// (placement seed included — it is part of Config) and the code version.
// Equal keys imply bit-identical RunResults; hashing the full Config is
// deliberately conservative, so observational knobs (Audit, TimerStats,
// TraceCap, watchdog budgets) key separate entries even though they do
// not change the metrics.
func (c Config) CacheKey() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(c); err != nil {
		// Config is plain exported data; an encode failure is a
		// programming error in a new field, not a runtime condition.
		panic("experiment: config not hashable: " + err.Error())
	}
	io.WriteString(h, CodeVersion())
	return hex.EncodeToString(h.Sum(nil))
}

// Fingerprint digests every deterministic measurement of the run into a
// hex SHA-256: the application metrics, the per-node ratio averages, the
// raw RMAC distributions (bit-exact float images, order-normalized), the
// tree shape, and the audit counters. Two runs of the same (Config, code
// version) must fingerprint identically; the server's chaos tests and the
// cache rely on that to detect lost, duplicated, or corrupted results.
// Failure diagnostics (FailReason, Stack) and the abort reason string are
// excluded — they carry wall-clock text — but the Aborted/Failed flags
// and the event count are included, so a truncated run never fingerprints
// like a complete one.
func (r *RunResult) Fingerprint() string { return r.digest(true) }

// Outcome is Fingerprint without the event count: a digest of what the
// run measured, not of how many engine events it took. Two builds that
// schedule the same simulation with different event bookkeeping (one
// timer per backoff countdown instead of one per slot, say) agree on it.
func (r *RunResult) Outcome() string { return r.digest(false) }

// digest hashes the run's deterministic measurements, with the event
// count when events is set.
func (r *RunResult) digest(events bool) string {
	h := sha256.New()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(x float64) { w(math.Float64bits(x)) }
	b := func(v bool) {
		if v {
			w(1)
		} else {
			w(0)
		}
	}

	w(r.Metrics.Generated)
	w(r.Metrics.Receptions)
	w(r.Metrics.Duplicates)
	w(uint64(r.Metrics.DelaySum))
	w(uint64(r.Metrics.DelayMax))
	w(r.Metrics.DelayCount)
	f(r.Delivery)
	f(r.AvgDelay)
	f(r.AvgDropRatio)
	f(r.AvgRetxRatio)
	f(r.AvgOverheadRatio)
	w(uint64(r.NonLeafCount))
	if events {
		w(r.Events)
	}
	w(r.Crashes)
	w(r.Fault.BurstErrors)
	w(uint64(len(r.Deadlocks)))
	w(r.ViolationCount)
	b(r.Aborted)
	b(r.Failed)

	// Raw distributions, order-normalized: sample insertion order is an
	// artifact of node iteration, so sort the bit images for a canonical
	// digest.
	hashSample := func(xs []float64) {
		w(uint64(len(xs)))
		bits := make([]uint64, len(xs))
		for i, x := range xs {
			bits[i] = math.Float64bits(x)
		}
		sort.Slice(bits, func(i, j int) bool { return bits[i] < bits[j] })
		for _, v := range bits {
			w(v)
		}
	}
	if r.MRTSLens != nil {
		hashSample(r.MRTSLens.Values())
	}
	if r.AbortRatios != nil {
		hashSample(r.AbortRatios.Values())
	}

	w(uint64(r.Tree.Reachable))
	f(r.Tree.Hops.Mean)
	f(r.Tree.Hops.P99)
	f(r.Tree.Hops.Max)
	f(r.Tree.Children.Mean)
	f(r.Tree.Children.P99)
	f(r.Tree.Children.Max)

	return hex.EncodeToString(h.Sum(nil))
}
