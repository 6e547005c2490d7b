package phy

import (
	"math/rand"
	"testing"

	"rmac/internal/frame"
	"rmac/internal/geom"
	"rmac/internal/mobility"
	"rmac/internal/sim"
)

// benchMedium builds a medium with n stationary radios clustered inside a
// 50×50 m square, so every node is within communication range (75 m) of
// every other: a broadcast from node 0 fans out to n-1 receivers. n ≥ 96
// additionally exercises the spatial grid path.
func benchMedium(b *testing.B, n int) (*sim.Engine, *Medium) {
	b.Helper()
	eng := sim.NewEngine(1)
	m := NewMedium(eng, DefaultConfig())
	side := 50.0
	cols := 1
	for cols*cols < n {
		cols++
	}
	for i := 0; i < n; i++ {
		x := 100 + side*float64(i%cols)/float64(cols)
		y := 100 + side*float64(i/cols)/float64(cols)
		m.AddRadio(i, mobility.Stationary{P: geom.Point{X: x, Y: y}})
	}
	return eng, m
}

func benchFrame() frame.Frame {
	return &frame.UData{
		Transmitter: frame.AddrFromID(0),
		Receiver:    frame.Broadcast,
		Payload:     make([]byte, 500),
	}
}

// benchFanout measures one full broadcast cycle from radio 0: StartTx
// fan-out to every radio in range, then draining every
// rxStart/rxEnd/txDone event. This is the simulator's dominant cost per
// data frame (§4 regenerates millions of these). The pooled kernel
// schedules zero heap closures here.
func benchFanout(b *testing.B, eng *sim.Engine, m *Medium) {
	src := m.Radios()[0]
	f := benchFrame()
	// Warm the pools (rx paths, event arena, the grid) to steady state
	// before measuring: the first cycles grow them, and those one-time
	// bytes would otherwise show up amortized as a spurious nonzero B/op.
	for i := 0; i < 8; i++ {
		m.StartTx(src, f)
		eng.RunAll()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.StartTx(src, f)
		eng.RunAll()
	}
}

// benchMediumFanout is benchFanout on benchMedium's n stationary radios:
// a broadcast from node 0 fans out to the n-1 others.
func benchMediumFanout(b *testing.B, n int) {
	eng, m := benchMedium(b, n)
	benchFanout(b, eng, m)
}

func BenchmarkMediumFanout30(b *testing.B)  { benchMediumFanout(b, 30) }
func BenchmarkMediumFanout200(b *testing.B) { benchMediumFanout(b, 200) }

// benchMediumMobile builds a medium of n random-waypoint radios pacing
// field at up to maxSpeed, pausing pause at each waypoint, so every
// in-range query reads a trajectory: the gate for the medium's leg table,
// which asks a model only when its current leg ends.
func benchMediumMobile(b *testing.B, n int, field geom.Rect, maxSpeed float64, pause sim.Time) (*sim.Engine, *Medium) {
	b.Helper()
	eng := sim.NewEngine(1)
	m := NewMedium(eng, DefaultConfig())
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		m.AddRadio(i, mobility.NewRandomWaypoint(field, 0, maxSpeed, pause, field.RandomPoint(rng), rng))
	}
	return eng, m
}

// BenchmarkMediumFanoutMobile200 measures the broadcast cycle of
// benchMediumFanout under mobility: 200 radios on a 60×60 m field, all
// in range of each other, on the spatial grid's path.
func BenchmarkMediumFanoutMobile200(b *testing.B) {
	eng, m := benchMediumMobile(b, 200, geom.Rect{W: 60, H: 60}, 4, sim.Second)
	benchFanout(b, eng, m)
}

// BenchmarkMediumFanoutMobile75 is paper-grid's mobile fan-out: 75
// radios on the paper's 500×300 m field under the speed2 bounds (0–8 m/s,
// 5 s pauses), below the grid threshold, so every broadcast scans all 74
// other radios' positions.
func BenchmarkMediumFanoutMobile75(b *testing.B) {
	eng, m := benchMediumMobile(b, 75, geom.Rect{W: 500, H: 300}, 8, 5*sim.Second)
	benchFanout(b, eng, m)
}

// BenchmarkToneStorm measures busy-tone fan-out: each iteration one node
// raises and drops RBT, propagating both transitions to every in-range
// radio — the per-slot cost of RMAC's tone signalling.
func BenchmarkToneStorm(b *testing.B) {
	const n = 100
	eng, m := benchMedium(b, n)
	radios := m.Radios()
	// Warm the session pool and the event arena: they grow on first use,
	// and that one-time growth must not be billed to the measured steady
	// state (see benchMediumFanout).
	for i := 0; i < 2*n; i++ {
		r := radios[i%n]
		m.SetTone(r, ToneRBT, true)
		eng.RunAll()
		m.SetTone(r, ToneRBT, false)
		eng.RunAll()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := radios[i%n]
		m.SetTone(r, ToneRBT, true)
		eng.RunAll()
		m.SetTone(r, ToneRBT, false)
		eng.RunAll()
	}
}
