package phy

import (
	"math/rand"
	"slices"
	"testing"

	"rmac/internal/geom"
	"rmac/internal/mobility"
	"rmac/internal/sim"
)

// orbit is a model without legs: its position changes every nanosecond.
type orbit struct{ c geom.Point }

func (o orbit) PositionAt(t sim.Time) geom.Point {
	return geom.Point{X: o.c.X + float64(t%7919)/100, Y: o.c.Y + float64(t%104729)/1000}
}

// TestLegTablePositionsExact pins the medium's leg table to the models it
// caches. Waypoint radios, a model without legs and static radios share
// one medium; at random instants and on every leg boundary of every
// trajectory, PositionOf equals what a twin model with the same seed
// answers from PositionAt, and so do the conduit's backward queries
// (positionAt), up to a millisecond behind the clock. Static radios get
// no slot.
func TestLegTablePositionsExact(t *testing.T) {
	const n, horizon = 10, 40 * sim.Second
	field := geom.Rect{W: 200, H: 100}
	waypoint := func(i int) *mobility.RandomWaypoint {
		return mobility.NewRandomWaypoint(field, 0, 8, sim.Time(i%3)*sim.Second,
			geom.Point{X: float64(20 * i), Y: 50}, rand.New(rand.NewSource(int64(i)+1)))
	}
	eng := sim.NewEngine(1)
	m := NewMedium(eng, DefaultConfig())
	var radios []*Radio
	var twins []mobility.Model
	for i := 0; i < n; i++ {
		radios = append(radios, m.AddRadio(len(radios), waypoint(i)))
		twins = append(twins, waypoint(i))
		if i%4 == 0 {
			p := geom.Point{X: float64(i), Y: 1}
			radios = append(radios, m.AddRadio(len(radios), mobility.Stationary{P: p}))
			twins = append(twins, mobility.Stationary{P: p})
		}
	}
	radios = append(radios, m.AddRadio(len(radios), orbit{geom.Point{X: 5, Y: 5}}))
	twins = append(twins, orbit{geom.Point{X: 5, Y: 5}})
	if moving := n + 1; len(m.legs) != moving {
		t.Fatalf("leg table has %d slots, want %d (one per moving radio)", len(m.legs), moving)
	}

	rng := rand.New(rand.NewSource(9))
	var instants []sim.Time
	for k := 0; k < 400; k++ {
		instants = append(instants, sim.Time(rng.Int63n(int64(horizon))))
	}
	for i := 0; i < n; i++ {
		w := waypoint(i)
		for at := sim.Time(0); at < horizon; {
			l := w.LegAt(at)
			for _, b := range []sim.Time{l.Start, l.Start + 1, l.Arrive - 1, l.Arrive, l.Arrive + 1, l.Until - 1} {
				if b >= 0 && b < horizon {
					instants = append(instants, b)
				}
			}
			at = l.Until
		}
	}
	slices.Sort(instants)
	instants = slices.Compact(instants)

	back := []sim.Time{1, 997, 250 * sim.Microsecond, sim.Millisecond}
	checked := 0
	for _, at := range instants {
		eng.Schedule(at, func() {
			now := eng.Now()
			for k, r := range radios {
				if got, want := m.PositionOf(r), twins[k].PositionAt(now); got != want {
					t.Fatalf("t=%d radio %d: PositionOf %v, model %v", now, k, got, want)
				}
				for _, d := range back {
					if now-d < 0 {
						continue
					}
					if got, want := m.positionAt(r, now-d), twins[k].PositionAt(now-d); got != want {
						t.Fatalf("t=%d radio %d: positionAt(t-%d) %v, model %v", now, k, d, got, want)
					}
				}
			}
			checked++
		})
	}
	eng.RunAll()
	if checked != len(instants) {
		t.Fatalf("%d of %d instants checked", checked, len(instants))
	}
}
