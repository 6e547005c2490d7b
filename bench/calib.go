package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// Wall time on a shared host moves with the co-tenants. On the recording
// host, a 2-vCPU Xeon VM, identical paper-grid runs took anywhere from
// 120 to 290 ms, in bursts and in phases that outlast a measurement window,
// and the process's CPU time moved with them: nothing in the process was
// waiting, the same work just ran slower. The slowdown follows, loosely,
// the time of a plain sequential read of a 64 MiB buffer: co-tenants
// contending for the shared cache and memory slow both alike. So the time
// metrics of unsharded workloads are calibrated: the probe reads that
// buffer between runs, twice a second, and the wall times of a measurement
// window are scaled by idleProbe over the window's mean probe time. Over
// ten 25-second invocations of the same inputs, this cut the spread (IQR
// over median) of paper-grid's mean run from 17.7% to 7.6% and metro-4k's
// from 13.0% to 8.1%. Runs on two shard goroutines are left raw: they
// spend most of their time waiting on each other, their wall time moved
// against the probe, and calibration widened their spread from 4.6% to
// 12.8% (poisson-1k-speed1-shard2) and from 11.0% to 25.0%
// (poisson-2k-shard2).

const (
	probeBytes = 64 << 20
	// idleProbe defines the calibrated unit: a calibrated second is a wall
	// second on a host whose probe takes idleProbe, the probe's idle time on
	// the recording host (the 5th percentile of 1,500 probes taken there).
	// On that host, idle, calibrated seconds are wall seconds; elsewhere
	// they are a constant factor off, the same on both sides of a
	// comparison. The probe's own median is printed with each result.
	idleProbe  = 0.0078 // seconds
	probeEvery = 500 * time.Millisecond
)

// clock measures the host's current speed with the probe.
type clock struct {
	buf    []uint64 // outside the Go heap, so it does not pace the GC
	probes []float64
	lastAt time.Time
	sink   uint64
}

func newClock() (*clock, error) {
	mem, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the calibration buffer: %w", err)
	}
	c := &clock{buf: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), probeBytes/8)}
	for i := range c.buf {
		c.buf[i] = uint64(i) // real pages, not the shared zero page
	}
	return c, nil
}

func (c *clock) probe() {
	t := time.Now()
	var s uint64
	for _, v := range c.buf {
		s += v
	}
	c.sink += s
	c.probes = append(c.probes, time.Since(t).Seconds())
	c.lastAt = time.Now()
}

// window brackets a measurement window with probes, hands run a tick to
// call between runs, which probes when the last probe is more than
// probeEvery old, and returns the factor that turns the window's wall
// seconds into calibrated seconds.
func (c *clock) window(run func(tick func())) float64 {
	from := len(c.probes)
	c.probe()
	run(func() {
		if time.Since(c.lastAt) >= probeEvery {
			c.probe()
		}
	})
	c.probe()
	return idleProbe * float64(len(c.probes)-from) / sum(c.probes[from:])
}

// resetPeakRSS restarts the kernel's peak resident set size record.
// Where /proc refuses the reset, peaks accumulate over the process, and
// the reported per-run peak becomes the process's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the peak resident set size since the last reset,
// without the probe's buffer, which stays resident throughout.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	_, rest, ok := bytes.Cut(status, []byte("VmHWM:"))
	if !ok {
		return 0, fmt.Errorf("no VmHWM in /proc/self/status")
	}
	line, _, _ := bytes.Cut(rest, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) == 0 {
		return 0, fmt.Errorf("empty VmHWM in /proc/self/status")
	}
	kb, err := strconv.ParseFloat(string(f[0]), 64)
	if err != nil {
		return 0, fmt.Errorf("parsing VmHWM: %w", err)
	}
	return (kb*1024 - probeBytes) / 1e6, nil
}
