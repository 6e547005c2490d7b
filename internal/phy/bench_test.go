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

// benchMediumFanout measures one full broadcast cycle: StartTx fan-out to
// n-1 receivers, then draining every rxStart/rxEnd/txDone event. This is
// the simulator's dominant cost per data frame (§4 regenerates millions of
// these). The pooled kernel schedules zero heap closures here.
func benchMediumFanout(b *testing.B, n int) {
	eng, m := benchMedium(b, n)
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

func BenchmarkMediumFanout30(b *testing.B)  { benchMediumFanout(b, 30) }
func BenchmarkMediumFanout200(b *testing.B) { benchMediumFanout(b, 200) }

// benchMediumMobile mirrors benchMedium with random-waypoint radios pacing
// a small field, so every in-range query walks a trajectory. The gate for
// the PositionOf memo: one trajectory walk per (radio, instant) instead of
// one per in-range pair.
func benchMediumMobile(b *testing.B, n int) (*sim.Engine, *Medium) {
	b.Helper()
	eng := sim.NewEngine(1)
	m := NewMedium(eng, DefaultConfig())
	field := geom.Rect{W: 60, H: 60}
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		m.AddRadio(i, mobility.NewRandomWaypoint(field, 0, 4, sim.Second, field.RandomPoint(rng), rng))
	}
	return eng, m
}

// BenchmarkMediumFanoutMobile measures the broadcast cycle of
// benchMediumFanout under mobility: every radio's position comes from a
// waypoint trajectory instead of a cached point.
func BenchmarkMediumFanoutMobile200(b *testing.B) {
	eng, m := benchMediumMobile(b, 200)
	src := m.Radios()[0]
	f := benchFrame()
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
