package mobility

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rmac/internal/geom"
	"rmac/internal/sim"
)

func TestStationary(t *testing.T) {
	s := Stationary{P: geom.Point{X: 10, Y: 20}}
	for _, tt := range []sim.Time{0, sim.Second, 100 * sim.Second} {
		if got := s.PositionAt(tt); got != s.P {
			t.Fatalf("PositionAt(%v) = %v", tt, got)
		}
	}
}

func TestWaypointStartsAtStart(t *testing.T) {
	field := geom.Rect{W: 500, H: 300}
	start := geom.Point{X: 100, Y: 100}
	m := NewRandomWaypoint(field, 0, 4, 10*sim.Second, start, rand.New(rand.NewSource(1)))
	if got := m.PositionAt(0); got != start {
		t.Fatalf("PositionAt(0) = %v, want %v", got, start)
	}
}

func TestWaypointStaysInField(t *testing.T) {
	field := geom.Rect{W: 500, H: 300}
	m := NewRandomWaypoint(field, 0, 8, 5*sim.Second, field.RandomPoint(rand.New(rand.NewSource(2))), rand.New(rand.NewSource(3)))
	for ts := sim.Time(0); ts < 600*sim.Second; ts += 100 * sim.Millisecond {
		p := m.PositionAt(ts)
		if !field.Contains(p) {
			t.Fatalf("position %v at %v outside field", p, ts)
		}
	}
}

func TestWaypointSpeedBound(t *testing.T) {
	field := geom.Rect{W: 500, H: 300}
	maxSpeed := 8.0
	m := NewRandomWaypoint(field, 0, maxSpeed, 0, geom.Point{X: 250, Y: 150}, rand.New(rand.NewSource(4)))
	prev := m.PositionAt(0)
	step := 50 * sim.Millisecond
	for ts := step; ts < 300*sim.Second; ts += step {
		cur := m.PositionAt(ts)
		v := prev.Dist(cur) / step.Seconds()
		if v > maxSpeed+1e-6 {
			t.Fatalf("instantaneous speed %.3f m/s exceeds max %v at %v", v, maxSpeed, ts)
		}
		prev = cur
	}
}

func TestWaypointActuallyMoves(t *testing.T) {
	field := geom.Rect{W: 500, H: 300}
	start := geom.Point{X: 250, Y: 150}
	m := NewRandomWaypoint(field, 1, 4, sim.Second, start, rand.New(rand.NewSource(5)))
	moved := false
	for ts := sim.Time(0); ts < 120*sim.Second; ts += sim.Second {
		if m.PositionAt(ts).Dist(start) > 1 {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("node never moved in 120 s")
	}
}

func TestWaypointPauses(t *testing.T) {
	// With an enormous pause, the node reaches its first destination and
	// then sits still for the rest of a long run.
	field := geom.Rect{W: 100, H: 100}
	m := NewRandomWaypoint(field, 5, 5, 10000*sim.Second, geom.Point{}, rand.New(rand.NewSource(6)))
	// Max travel time across the field at 5 m/s: sqrt(2)*100/5 ≈ 28.3 s.
	p1 := m.PositionAt(30 * sim.Second)
	p2 := m.PositionAt(200 * sim.Second)
	if p1.Dist(p2) > 1e-9 {
		t.Fatalf("node moved during pause: %v -> %v", p1, p2)
	}
}

func TestWaypointDeterministicPerSeed(t *testing.T) {
	field := geom.Rect{W: 500, H: 300}
	mk := func(seed int64) *RandomWaypoint {
		return NewRandomWaypoint(field, 0, 4, 10*sim.Second, geom.Point{X: 50, Y: 50}, rand.New(rand.NewSource(seed)))
	}
	a, b := mk(7), mk(7)
	for ts := sim.Time(0); ts < 200*sim.Second; ts += 777 * sim.Millisecond {
		if a.PositionAt(ts) != b.PositionAt(ts) {
			t.Fatalf("same-seed trajectories diverge at %v", ts)
		}
	}
}

func TestWaypointZeroMinSpeedNeverFreezes(t *testing.T) {
	// MinSpeed 0 must not produce a permanently frozen node (0 m/s draw).
	field := geom.Rect{W: 500, H: 300}
	for seed := int64(0); seed < 20; seed++ {
		m := NewRandomWaypoint(field, 0, 4, 0, geom.Point{X: 1, Y: 1}, rand.New(rand.NewSource(seed)))
		p0 := m.PositionAt(0)
		if m.PositionAt(1000*sim.Second).Dist(p0) < 1e-9 && m.PositionAt(500*sim.Second).Dist(p0) < 1e-9 {
			t.Fatalf("seed %d: node frozen with MinSpeed=0", seed)
		}
	}
}

func TestWaypointLongRunMemoryBounded(t *testing.T) {
	field := geom.Rect{W: 500, H: 300}
	m := NewRandomWaypoint(field, 4, 8, sim.Millisecond, geom.Point{}, rand.New(rand.NewSource(8)))
	m.PositionAt(3600 * sim.Second) // thousands of legs if unbounded
	if len(m.legs) > 64 {
		t.Fatalf("legs grew unbounded: %d", len(m.legs))
	}
}

// Property: positions remain in-field and trajectories are continuous
// (no teleporting faster than MaxSpeed) for arbitrary parameters.
func TestPropertyWaypointContinuity(t *testing.T) {
	f := func(seed int64, maxSpeedRaw, pauseRaw uint8) bool {
		field := geom.Rect{W: 300, H: 200}
		maxSpeed := float64(maxSpeedRaw%20) + 1
		pause := sim.Time(pauseRaw%10) * sim.Second
		rng := rand.New(rand.NewSource(seed))
		m := NewRandomWaypoint(field, 0, maxSpeed, pause, field.RandomPoint(rng), rng)
		prev := m.PositionAt(0)
		step := 100 * sim.Millisecond
		for ts := step; ts < 60*sim.Second; ts += step {
			cur := m.PositionAt(ts)
			if !field.Contains(cur) {
				return false
			}
			if prev.Dist(cur) > maxSpeed*step.Seconds()+1e-6 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNewRandomWaypointRejectsBadSpeed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MaxSpeed <= 0 must panic")
		}
	}()
	NewRandomWaypoint(geom.Rect{W: 1, H: 1}, 0, 0, 0, geom.Point{}, rand.New(rand.NewSource(1)))
}

func TestWaypointStaleQueryFailsLoudly(t *testing.T) {
	// Regression: a query older than the retention horizon used to clamp
	// silently to the oldest *retained* leg's start position — a wrong
	// answer. It must fail loudly instead.
	field := geom.Rect{W: 500, H: 300}
	m := NewRandomWaypoint(field, 4, 8, sim.Millisecond, geom.Point{X: 7, Y: 9}, rand.New(rand.NewSource(11)))
	m.Retain = sim.Second
	m.PositionAt(3600 * sim.Second) // force trimming far past t=0
	if _, ok := m.PositionAtOK(0); ok {
		t.Fatal("PositionAtOK(0) = ok after history at t=0 was trimmed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PositionAt older than the retention horizon must panic")
		}
	}()
	m.PositionAt(0)
}

func TestWaypointRetainedWindowExact(t *testing.T) {
	// Positions within [maxSeen-Retain, maxSeen] must stay exactly
	// reconstructible after trimming: compare against an untrimmed twin
	// (same seed, huge Retain) that never discards history.
	field := geom.Rect{W: 500, H: 300}
	mk := func() *RandomWaypoint {
		return NewRandomWaypoint(field, 4, 8, 10*sim.Millisecond, geom.Point{X: 3, Y: 4}, rand.New(rand.NewSource(12)))
	}
	trimmed, full := mk(), mk()
	trimmed.Retain = sim.Second
	full.Retain = 100000 * sim.Second
	end := 1800 * sim.Second
	trimmed.PositionAt(end)
	for back := sim.Time(0); back <= sim.Second; back += 50 * sim.Millisecond {
		ts := end - back
		got, ok := trimmed.PositionAtOK(ts)
		if !ok {
			t.Fatalf("query at %v inside the retention window failed", ts)
		}
		if want := full.PositionAt(ts); got != want {
			t.Fatalf("trimmed model diverges at %v: %v, want %v", ts, got, want)
		}
	}
}

func TestWaypointSpeedBoundAccessor(t *testing.T) {
	m := NewRandomWaypoint(geom.Rect{W: 10, H: 10}, 0, 4, 0, geom.Point{}, rand.New(rand.NewSource(13)))
	if b, ok := SpeedBoundOf(m); !ok || b != 4 {
		t.Fatalf("SpeedBoundOf(waypoint) = %v, %v; want 4, true", b, ok)
	}
	if b, ok := SpeedBoundOf(Stationary{}); !ok || b != 0 {
		t.Fatalf("SpeedBoundOf(stationary) = %v, %v; want 0, true", b, ok)
	}
}

// Property: the field-containment and continuity invariants survive
// trimming — drive the model far enough that many trims have happened,
// then sweep the whole retained window, including backward queries.
func TestPropertyWaypointInvariantsAfterTrim(t *testing.T) {
	f := func(seed int64, maxSpeedRaw uint8) bool {
		field := geom.Rect{W: 300, H: 200}
		maxSpeed := float64(maxSpeedRaw%20) + 1
		rng := rand.New(rand.NewSource(seed))
		m := NewRandomWaypoint(field, 0, maxSpeed, sim.Millisecond, field.RandomPoint(rng), rng)
		m.Retain = 2 * sim.Second
		end := 900 * sim.Second
		prev := m.PositionAt(end - 2*sim.Second)
		step := 100 * sim.Millisecond
		for ts := end - 2*sim.Second + step; ts <= end; ts += step {
			cur, ok := m.PositionAtOK(ts)
			if !ok || !field.Contains(cur) {
				return false
			}
			if prev.Dist(cur) > maxSpeed*step.Seconds()+1e-6 {
				return false
			}
			prev = cur
		}
		// Backward re-queries over the window must reproduce the sweep.
		for ts := end; ts >= end-sim.Second; ts -= 333 * step {
			if _, ok := m.PositionAtOK(ts); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWaypointArrivalExact(t *testing.T) {
	// Node at a known speed reaches a destination at from+dist/speed.
	field := geom.Rect{W: 500, H: 300}
	m := NewRandomWaypoint(field, 5, 5, sim.Second, geom.Point{X: 0, Y: 0}, rand.New(rand.NewSource(10)))
	m.extend(0)
	l := m.legs[1]
	wantTravel := l.From.Dist(l.To) / 5 * float64(sim.Second)
	if math.Abs(float64(l.Arrive-l.Start)-wantTravel) > 1 {
		t.Fatalf("travel time %v, want %v ns", l.Arrive-l.Start, wantTravel)
	}
	if got := m.PositionAt(l.Arrive); got.Dist(l.To) > 1e-6 {
		t.Fatalf("position at arrival = %v, want %v", got, l.To)
	}
}
