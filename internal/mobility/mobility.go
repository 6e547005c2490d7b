// Package mobility implements the node movement models used in the paper's
// evaluation (§4.1.2): a stationary model and the random waypoint model of
// Bettstetter, parameterised by MIN-SPEED, MAX-SPEED and INTER-PAUSE.
//
// Models are queried lazily: PositionAt(t) computes the node position at any
// simulated time without per-tick events, which keeps the event queue free
// of mobility traffic. RandomWaypoint extends its precomputed trajectory on
// demand and discards history older than a retention horizon (Retain) behind
// the most advanced query it has seen; queries may jump backward by up to
// that horizon — the slack the sharded engine's cross-shard conduit needs
// when it replays a foreign transmission's start-time geometry — but a query
// older than the horizon fails loudly instead of silently clamping to the
// oldest surviving trajectory leg.
package mobility

import (
	"fmt"
	"math/rand"

	"rmac/internal/geom"
	"rmac/internal/sim"
)

// Model yields the position of a single node over time.
type Model interface {
	// PositionAt returns the node's position at simulated time t. t may
	// trail the most advanced query by at most the model's retention
	// horizon (see RandomWaypoint.Retain); implementations fail loudly on
	// older queries rather than return a stale clamp.
	PositionAt(t sim.Time) geom.Point
}

// SpeedBounded is implemented by models whose displacement over any
// interval dt is bounded by SpeedBound()·dt. The sharded engine uses the
// bound to build conservative per-epoch position envelopes (position ±
// SpeedBound·epoch) for its lookahead and ghost-set recomputation.
type SpeedBounded interface {
	// SpeedBound returns an upper bound on the node speed in m/s.
	SpeedBound() float64
}

// SpeedBoundOf returns the model's speed bound, or ok=false when the model
// does not expose one (an unbounded model cannot run on the sharded
// engine's epoch envelopes).
func SpeedBoundOf(m Model) (float64, bool) {
	if b, ok := m.(SpeedBounded); ok {
		return b.SpeedBound(), true
	}
	return 0, false
}

// Stationary is a fixed-position model.
type Stationary struct {
	P geom.Point
}

// PositionAt always returns the fixed position.
func (s Stationary) PositionAt(sim.Time) geom.Point { return s.P }

// SpeedBound implements SpeedBounded: a stationary node never moves.
func (s Stationary) SpeedBound() float64 { return 0 }

// Leg is one segment of a trajectory: hold at From until Start, move
// linearly to To, arriving at Arrive, then pause there until Until. A
// trajectory's legs are contiguous (each starts when the previous one's
// pause ends), and a leg answers for [Start, Until).
type Leg struct {
	From, To      geom.Point
	Start, Arrive sim.Time
	Until         sim.Time // end of pause at destination
}

// Covers reports whether t lies in [Start, Until), the instants the leg
// answers for.
func (l *Leg) Covers(t sim.Time) bool { return l.Start <= t && t < l.Until }

// At returns the position on the leg at t.
func (l *Leg) At(t sim.Time) geom.Point {
	switch {
	case t >= l.Arrive:
		return l.To // pausing at destination
	case t <= l.Start:
		return l.From
	default:
		return l.From.Lerp(l.To, float64(t-l.Start)/float64(l.Arrive-l.Start))
	}
}

// LegOf returns a leg of m covering t: a RandomWaypoint's own (LegAt),
// and for any other model the leg that holds its position at t for the
// instant t alone.
func LegOf(m Model, t sim.Time) Leg {
	if w, ok := m.(*RandomWaypoint); ok {
		return w.LegAt(t)
	}
	p := m.PositionAt(t)
	return Leg{From: p, To: p, Start: t, Arrive: t, Until: t + 1}
}

// RandomWaypoint implements the random waypoint mobility model: pick a
// uniform destination in the field, move toward it at a speed drawn
// uniformly from [MinSpeed, MaxSpeed], pause for Pause, repeat.
//
// A MinSpeed of 0 is accepted (the paper uses it); a draw of exactly 0 m/s
// is re-drawn to avoid a node freezing forever, mirroring common simulator
// practice.
type RandomWaypoint struct {
	Field    geom.Rect
	MinSpeed float64 // m/s
	MaxSpeed float64 // m/s
	Pause    sim.Time

	// Retain is the retention horizon: positions in
	// [maxSeen-Retain, maxSeen] stay exactly reconstructible, where
	// maxSeen is the most advanced query so far. A caller that caches
	// the current leg (LegAt) queries only when a leg ends, so maxSeen
	// moves when a leg is fetched and may trail the caller's clock by up
	// to one leg: the model then trims less, never more, and every
	// answer stays exact. Trajectory legs that
	// fell entirely behind the horizon are discarded to bound memory on
	// long runs; a query older than the horizon panics (PositionAt) or
	// reports ok=false (PositionAtOK). Zero selects DefaultRetain. Must
	// cover every backward query the caller can make — for sharded runs
	// that is the cross-shard delay bound (the maximum propagation delay
	// a conduit replays a foreign transmission's geometry by, well under
	// a millisecond), so the default of one simulated second is generous.
	Retain sim.Time

	rng  *rand.Rand
	legs []Leg

	maxSeen sim.Time // most advanced query
	floor   sim.Time // oldest exactly-answerable time after trimming
}

// DefaultRetain is the retention horizon used when Retain is zero.
const DefaultRetain = 1 * sim.Second

// NewRandomWaypoint creates a waypoint model starting at start. Each node
// must get its own rng stream for determinism under lazy extension.
func NewRandomWaypoint(field geom.Rect, minSpeed, maxSpeed float64, pause sim.Time, start geom.Point, rng *rand.Rand) *RandomWaypoint {
	if maxSpeed <= 0 {
		panic("mobility: MaxSpeed must be positive")
	}
	m := &RandomWaypoint{Field: field, MinSpeed: minSpeed, MaxSpeed: maxSpeed, Pause: pause, rng: rng}
	m.legs = append(m.legs, Leg{From: start, To: start})
	return m
}

// extend appends trajectory legs until the trajectory covers time t.
func (m *RandomWaypoint) extend(t sim.Time) {
	for {
		last := m.legs[len(m.legs)-1]
		if last.Until > t {
			return
		}
		dest := m.Field.RandomPoint(m.rng)
		speed := m.MinSpeed + m.rng.Float64()*(m.MaxSpeed-m.MinSpeed)
		for speed <= 1e-9 {
			speed = m.MinSpeed + m.rng.Float64()*(m.MaxSpeed-m.MinSpeed)
		}
		dist := last.To.Dist(dest)
		travel := sim.Time(dist / speed * float64(sim.Second))
		l := Leg{
			From:   last.To,
			To:     dest,
			Start:  last.Until,
			Arrive: last.Until + travel,
		}
		l.Until = l.Arrive + m.Pause
		m.legs = append(m.legs, l)
		m.trim()
	}
}

// retain resolves the retention horizon.
func (m *RandomWaypoint) retain() sim.Time {
	if m.Retain > 0 {
		return m.Retain
	}
	return DefaultRetain
}

// trim drops legs that ended before the retention horizon. Legs are
// contiguous (legs[i].Start == legs[i-1].Until), so the first kept leg
// still covers the horizon itself; floor records the oldest time the
// remaining legs answer exactly. The copy-down keeps the slice's backing
// array, so a steady-state trajectory reuses the same storage forever.
func (m *RandomWaypoint) trim() {
	if len(m.legs) <= 64 {
		return // amortize: only compact once enough history accumulated
	}
	cutoff := m.maxSeen - m.retain()
	i := 0
	for i < len(m.legs)-1 && m.legs[i].Until < cutoff {
		i++
	}
	if i == 0 {
		return
	}
	m.floor = m.legs[i].Start
	n := copy(m.legs, m.legs[i:])
	m.legs = m.legs[:n]
}

// PositionAt returns the node position at time t. It panics when t
// predates the retention horizon — the silent alternative (clamping to
// the oldest surviving leg) returns a position that is simply wrong.
func (m *RandomWaypoint) PositionAt(t sim.Time) geom.Point {
	l := m.LegAt(t)
	return l.At(t)
}

// PositionAtOK is PositionAt with an explicit failure path: ok is false
// when t predates the retention horizon and no exact answer exists.
func (m *RandomWaypoint) PositionAtOK(t sim.Time) (geom.Point, bool) {
	l, ok := m.legAt(t)
	if !ok {
		return geom.Point{}, false
	}
	return l.At(t), true
}

// LegAt returns the leg covering t: l.Covers(t) holds, and l.At(u)
// equals PositionAt(u) for every u the leg covers. A caller that keeps
// the leg answers positions until l.Until without querying the model
// again. It panics when t predates the retention horizon, as PositionAt
// does.
func (m *RandomWaypoint) LegAt(t sim.Time) Leg {
	l, ok := m.legAt(t)
	if !ok {
		panic(fmt.Sprintf("mobility: query at %d ns predates retention horizon (oldest retained: %d ns, newest seen: %d ns)",
			int64(t), int64(m.floor), int64(m.maxSeen)))
	}
	return *l
}

// legAt finds the leg covering t, extending the trajectory as needed;
// ok is false when t predates the retention horizon.
func (m *RandomWaypoint) legAt(t sim.Time) (*Leg, bool) {
	if t < m.floor {
		return nil, false
	}
	if t > m.maxSeen {
		m.maxSeen = t
	}
	m.extend(t)
	// Legs are ordered; search from the back, since queries are near the
	// trajectory end. The last leg to start at or before t covers it: the
	// next one starts when its pause ends, after t, and extend made the
	// last one's pause end after t.
	i := len(m.legs) - 1
	for i > 0 && t < m.legs[i].Start {
		i--
	}
	return &m.legs[i], true
}

// SpeedBound implements SpeedBounded.
func (m *RandomWaypoint) SpeedBound() float64 { return m.MaxSpeed }
