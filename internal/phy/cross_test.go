package phy

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rmac/internal/geom"
	"rmac/internal/mobility"
	"rmac/internal/sim"
)

// scriptStep schedules an arbitrary closure as a simulation event.
type scriptStep struct{ fn func() }

func (s scriptStep) Call(int32) { s.fn() }

// boundaryScript drives the satellite-3 scenario against radio a (the
// border transmitter), c (a second transmitter for the collision phase)
// and the clock of their engine. b, the receiver across the boundary,
// only listens.
//
//	 0 ms: a sends a frame          → b decodes it
//	 5 ms: a and c overlap          → b sees a collision (corrupt frames)
//	10 ms: a sends, aborts mid-air  → b sees the truncation
//	15 ms: a raises, then drops, a busy tone → b senses both edges
func boundaryScript(eng *sim.Engine, a, c *Radio) {
	at := func(t sim.Time, fn func()) { eng.ScheduleCall(t, scriptStep{fn}, 0) }
	ms := sim.Millisecond
	at(0, func() { a.StartTx(testFrame(a.ID(), 100)) })
	at(5*ms, func() { a.StartTx(testFrame(a.ID(), 100)) })
	at(5*ms+10*sim.Microsecond, func() { c.StartTx(testFrame(c.ID(), 60)) })
	at(10*ms, func() { a.StartTx(testFrame(a.ID(), 100)) })
	at(10*ms+50*sim.Microsecond, func() { a.AbortTx() })
	at(15*ms, func() { a.SetTone(Tone(0), true) })
	at(15*ms+200*sim.Microsecond, func() { a.SetTone(Tone(0), false) })
}

// runOut runs a shard engine through horizon. The conduit stops the engine
// right after every event that sends across shards, where the sharded loop
// re-reads its target; a test stepping shards by hand just resumes.
func runOut(eng *sim.Engine, horizon sim.Time) {
	eng.Run(horizon)
	for eng.Stopped() {
		eng.Run(horizon)
	}
}

// TestShardBoundaryPhysics is the golden cross-check of DESIGN.md §14: a
// transmitter within one disc radius of a shard boundary must produce
// identical delivery, collision, truncation and tone outcomes at a
// receiver on the far side, whether the two sit on one medium or on two
// shard mediums joined by the cross-shard conduit. The script is
// RNG-free (BER 0, fixed action times), so the runs are comparable
// event for event.
func TestShardBoundaryPhysics(t *testing.T) {
	cfg := DefaultConfig()
	pos := []geom.Point{{X: 60, Y: 0}, {X: 90, Y: 0}, {X: 130, Y: 0}} // a, c | b across x=100
	horizon := 30 * sim.Millisecond

	// Reference: all three radios on one medium.
	eng, _, rads := build(t, cfg, pos)
	boundaryScript(eng, rads[0].Radio, rads[1].Radio)
	eng.Run(horizon)
	want := rads[2].rec

	// Sharded: {a, c} on shard 0, {b} on shard 1, conduit in between. The
	// script only moves shard 0, so the shards can be stepped sequentially
	// instead of via the full frontier protocol.
	eng0 := sim.NewEngine(1)
	m0 := NewMedium(eng0, cfg)
	eng1 := sim.NewEngine(2)
	m1 := NewMedium(eng1, cfg)
	var srads [3]*recRadio
	for i, m := range []*Medium{m0, m0, m1} {
		r := m.AddRadio(i, mobility.Stationary{P: pos[i]})
		srads[i] = &recRadio{Radio: r, rec: &recorder{}, eng: m.Engine()}
		r.SetHandler(srads[i])
	}
	net := ConnectShards([]*Medium{m0, m1}, pos, []int{0, 0, 1}, horizon, 0)
	boundaryScript(eng0, srads[0].Radio, srads[1].Radio)
	runOut(eng0, horizon)
	runOut(eng1, horizon)
	got := srads[2].rec

	// All three sit within one disc radius of a foreign radio.
	if len(srads[0].cats) == 0 || len(srads[1].cats) == 0 || len(srads[2].cats) == 0 {
		t.Fatal("boundary radios not marked as border")
	}
	if len(got.frames) != len(want.frames) {
		t.Fatalf("frame count: sharded %d, unsharded %d", len(got.frames), len(want.frames))
	}
	for i := range want.frames {
		w, g := want.frames[i], got.frames[i]
		if g.ok != w.ok || g.rxStart != w.rxStart || g.at != w.at {
			t.Errorf("frame %d: sharded (ok=%v %v..%v), unsharded (ok=%v %v..%v)",
				i, g.ok, g.rxStart, g.at, w.ok, w.rxStart, w.at)
		}
	}
	// Phase 1 delivers clean, phase 2 collides, phase 3 truncates: at least
	// one ok and one corrupt frame must be present, or the script is dead.
	var oks, bad int
	for _, f := range want.frames {
		if f.ok {
			oks++
		} else {
			bad++
		}
	}
	if oks == 0 || bad == 0 {
		t.Fatalf("degenerate reference run: %d ok, %d corrupt", oks, bad)
	}
	if len(got.tones) != 2 || len(want.tones) != 2 {
		t.Fatalf("tone edges: sharded %d, unsharded %d", len(got.tones), len(want.tones))
	}
	for i := range want.tones {
		if got.tones[i] != want.tones[i] {
			t.Errorf("tone edge %d: sharded %+v, unsharded %+v", i, got.tones[i], want.tones[i])
		}
	}
	if len(got.carrier) != len(want.carrier) {
		t.Fatalf("carrier transitions: sharded %d, unsharded %d", len(got.carrier), len(want.carrier))
	}
	for i := range want.carrier {
		if got.carrier[i] != want.carrier[i] {
			t.Errorf("carrier %d: sharded %v, unsharded %v", i, got.carrier[i], want.carrier[i])
		}
	}
	// Cross-check the conduit accounting while we're here: every message
	// sent by shard 0 was delivered to shard 1, none flowed back.
	s0, s1 := net.Stats(0), net.Stats(1)
	if s0.MsgsOut == 0 || s0.MsgsOut != s1.MsgsIn || s1.MsgsOut != 0 {
		t.Errorf("conduit stats: out0=%d in1=%d out1=%d", s0.MsgsOut, s1.MsgsIn, s1.MsgsOut)
	}
}

// TestShardBoundaryAbortBeforeDelivery covers the abort race the conduit
// has to replay: the truncation message chases a transmission whose head
// is already mirrored on the receiving shard, and must shorten the mirror
// before its scheduled end fires.
func TestShardBoundaryAbortBeforeDelivery(t *testing.T) {
	cfg := DefaultConfig()
	pos := []geom.Point{{X: 95, Y: 0}, {X: 105, Y: 0}}
	horizon := 10 * sim.Millisecond

	run := func(sharded bool) *recorder {
		if !sharded {
			eng, _, rads := build(t, cfg, pos)
			eng.ScheduleCall(0, scriptStep{func() { rads[0].StartTx(testFrame(0, 400)) }}, 0)
			eng.ScheduleCall(sim.Millisecond, scriptStep{func() { rads[0].AbortTx() }}, 0)
			eng.Run(horizon)
			return rads[1].rec
		}
		eng0 := sim.NewEngine(1)
		m0 := NewMedium(eng0, cfg)
		eng1 := sim.NewEngine(2)
		m1 := NewMedium(eng1, cfg)
		a := m0.AddRadio(0, mobility.Stationary{P: pos[0]})
		ra := &recRadio{Radio: a, rec: &recorder{}, eng: eng0}
		a.SetHandler(ra)
		b := m1.AddRadio(1, mobility.Stationary{P: pos[1]})
		rb := &recRadio{Radio: b, rec: &recorder{}, eng: eng1}
		b.SetHandler(rb)
		ConnectShards([]*Medium{m0, m1}, pos, []int{0, 1}, horizon, 0)
		eng0.ScheduleCall(0, scriptStep{func() { a.StartTx(testFrame(0, 400)) }}, 0)
		eng0.ScheduleCall(sim.Millisecond, scriptStep{func() { a.AbortTx() }}, 0)
		runOut(eng0, horizon)
		runOut(eng1, horizon)
		return rb.rec
	}

	want, got := run(false), run(true)
	if len(want.frames) != len(got.frames) {
		t.Fatalf("frame count: sharded %d, unsharded %d", len(got.frames), len(want.frames))
	}
	for i := range want.frames {
		w, g := want.frames[i], got.frames[i]
		if g.ok != w.ok || g.rxStart != w.rxStart || g.at != w.at {
			t.Errorf("frame %d: sharded (ok=%v %v..%v), unsharded (ok=%v %v..%v)",
				i, g.ok, g.rxStart, g.at, w.ok, w.rxStart, w.at)
		}
	}
	for _, f := range want.frames {
		if f.ok {
			t.Fatalf("aborted transmission decoded cleanly: %+v", f)
		}
	}
}

// mobileTestModel builds the waypoint model for test node id: the same
// (id-keyed) seed on both sides of a comparison yields the same trajectory,
// since a waypoint path is a pure function of its RNG stream. 50 m/s with
// no pause makes nodes cover metres within a millisecond-scale script, so
// live-position physics actually diverges from any t=0 snapshot.
func mobileTestModel(field geom.Rect, id int, start geom.Point) *mobility.RandomWaypoint {
	rng := rand.New(rand.NewSource(int64(id) + 1))
	return mobility.NewRandomWaypoint(field, 0, 50, 0, start, rng)
}

// mobileBoundaryCase runs the boundaryScript with moving radios on one
// reference medium and on `shards` conduit-joined shard mediums, and
// compares every pure receiver's frame, tone and carrier records. Shards
// are stepped sequentially in index order: only shard 0 transmits, so
// traffic flows strictly downstream.
func mobileBoundaryCase(t *testing.T, field geom.Rect, pos []geom.Point, shardOf []int, shards int, listeners []int) {
	t.Helper()
	cfg := DefaultConfig()
	horizon := 30 * sim.Millisecond

	// Reference: everything on one medium, same trajectories.
	eng := sim.NewEngine(1)
	m := NewMedium(eng, cfg)
	rads := make([]*recRadio, len(pos))
	for i, p := range pos {
		r := m.AddRadio(i, mobileTestModel(field, i, p))
		rads[i] = &recRadio{Radio: r, rec: &recorder{}, eng: eng}
		r.SetHandler(rads[i])
	}
	boundaryScript(eng, rads[0].Radio, rads[1].Radio)
	eng.Run(horizon)

	// Sharded: same ids, same trajectories, split across shard mediums.
	engs := make([]*sim.Engine, shards)
	mediums := make([]*Medium, shards)
	for s := range mediums {
		engs[s] = sim.NewEngine(int64(s) + 1)
		mediums[s] = NewMedium(engs[s], cfg)
	}
	srads := make([]*recRadio, len(pos))
	for i, p := range pos {
		r := mediums[shardOf[i]].AddRadio(i, mobileTestModel(field, i, p))
		srads[i] = &recRadio{Radio: r, rec: &recorder{}, eng: engs[shardOf[i]]}
		r.SetHandler(srads[i])
	}
	envelope := 2 * 50 * horizon.Seconds() // 2 × MaxSpeed × epoch; one epoch spans the script
	ConnectShards(mediums, pos, shardOf, horizon, envelope)
	boundaryScript(engs[0], srads[0].Radio, srads[1].Radio)
	for s := 0; s < shards; s++ {
		runOut(engs[s], horizon)
	}

	for _, li := range listeners {
		want, got := rads[li].rec, srads[li].rec
		if len(got.frames) != len(want.frames) {
			t.Fatalf("listener %d frame count: sharded %d, unsharded %d", li, len(got.frames), len(want.frames))
		}
		for i := range want.frames {
			w, g := want.frames[i], got.frames[i]
			if g.ok != w.ok || g.rxStart != w.rxStart || g.at != w.at {
				t.Errorf("listener %d frame %d: sharded (ok=%v %v..%v), unsharded (ok=%v %v..%v)",
					li, i, g.ok, g.rxStart, g.at, w.ok, w.rxStart, w.at)
			}
		}
		if len(got.tones) != len(want.tones) {
			t.Fatalf("listener %d tone edges: sharded %d, unsharded %d", li, len(got.tones), len(want.tones))
		}
		for i := range want.tones {
			if got.tones[i] != want.tones[i] {
				t.Errorf("listener %d tone edge %d: sharded %+v, unsharded %+v", li, i, got.tones[i], want.tones[i])
			}
		}
		if len(got.carrier) != len(want.carrier) {
			t.Fatalf("listener %d carrier transitions: sharded %d, unsharded %d", li, len(got.carrier), len(want.carrier))
		}
		for i := range want.carrier {
			if got.carrier[i] != want.carrier[i] {
				t.Errorf("listener %d carrier %d: sharded %v, unsharded %v", li, i, got.carrier[i], want.carrier[i])
			}
		}
	}
	// The script must actually exercise the channel: a clean delivery, a
	// corrupt frame and both tone edges at the first listener.
	ref := rads[listeners[0]].rec
	var oks, bad int
	for _, f := range ref.frames {
		if f.ok {
			oks++
		} else {
			bad++
		}
	}
	if oks == 0 || bad == 0 || len(ref.tones) == 0 {
		t.Fatalf("degenerate reference run: %d ok, %d corrupt, %d tone edges", oks, bad, len(ref.tones))
	}
}

// TestShardBoundaryMobilePhysics is the mobile golden cross-check of
// DESIGN.md §15: with every radio on a random-waypoint trajectory, a
// scripted transmit/collide/abort/tone sequence must produce bit-identical
// outcomes at across-boundary receivers whether the radios share one medium
// or live on conduit-joined shard mediums with envelope catalogs. Receiver
// sets, propagation delays and decode flags are all computed at fire time
// from live positions, so any drift between the conduit's fire-time
// physics and Medium.StartTx shows up as a mismatch here.
func TestShardBoundaryMobilePhysics(t *testing.T) {
	field := geom.Rect{W: 200, H: 100}
	pos := []geom.Point{{X: 60, Y: 50}, {X: 90, Y: 50}, {X: 130, Y: 50}} // a, c | b
	mobileBoundaryCase(t, field, pos, []int{0, 0, 1}, 2, []int{2})
}

// TestShardBoundaryMobileFourShards spreads the listeners over three
// foreign shards — the farthest one right at the interference-range edge,
// where metre-scale movement flips in-range decisions, so the live
// per-candidate filter must agree with the reference fan-out exactly.
func TestShardBoundaryMobileFourShards(t *testing.T) {
	field := geom.Rect{W: 200, H: 100}
	pos := []geom.Point{
		{X: 45, Y: 50}, {X: 40, Y: 50}, // a, c on shard 0
		{X: 95, Y: 50}, {X: 130, Y: 50}, {X: 155, Y: 50}, // listeners on shards 1–3
	}
	mobileBoundaryCase(t, field, pos, []int{0, 0, 1, 2, 3}, 4, []int{2, 3, 4})
}

// TestMintSeqOverflowPanics presets a shard's cross sequence counter just
// below the 1<<sim.CrossSeqShardShift limit of sim.CrossSeq: the last
// block that still fits is handed out, and the next mint panics with a
// message naming the limit instead of spilling into the shard-index bits.
func TestMintSeqOverflowPanics(t *testing.T) {
	cfg := DefaultConfig()
	pos := []geom.Point{{X: 95, Y: 0}, {X: 105, Y: 0}}
	m0 := NewMedium(sim.NewEngine(1), cfg)
	m1 := NewMedium(sim.NewEngine(2), cfg)
	m0.AddRadio(0, mobility.Stationary{P: pos[0]})
	m1.AddRadio(1, mobility.Stationary{P: pos[1]})
	net := ConnectShards([]*Medium{m0, m1}, pos, []int{0, 1}, sim.Second, 0)
	c := net.conduits[1]
	last := uint64(1)<<sim.CrossSeqShardShift - net.seqBlock
	c.localSeq = last
	if got, want := c.mintSeq(), sim.CrossSeq(1, last); got != want {
		t.Fatalf("last block: mintSeq = %#x, want %#x", got, want)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("mintSeq past the limit did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "1<<48") {
			t.Errorf("panic %q does not name the 1<<48 limit", msg)
		}
	}()
	c.mintSeq()
}

// TestShardBoundaryCrash cross-checks the crash path across a shard
// border: radio a raises a tone, starts a frame and crashes mid-air, then
// recovers and sends again. SetDown must truncate the frame and drop the
// tone at the far receiver at the same instants whether the two radios
// share one medium or sit on conduit-joined shard mediums, and the frame
// sent after recovery must arrive alike.
func TestShardBoundaryCrash(t *testing.T) {
	cfg := DefaultConfig()
	pos := []geom.Point{{X: 95, Y: 0}, {X: 105, Y: 0}} // a | b across x=100
	horizon := 10 * sim.Millisecond
	script := func(eng *sim.Engine, a *Radio) {
		at := func(t sim.Time, fn func()) { eng.ScheduleCall(t, scriptStep{fn}, 0) }
		us := sim.Microsecond
		at(0, func() { a.SetTone(Tone(0), true) })
		at(100*us, func() { a.StartTx(testFrame(a.ID(), 100)) })
		at(500*us, func() { a.SetDown(true) })
		at(1000*us, func() { a.SetDown(false) })
		at(2000*us, func() { a.StartTx(testFrame(a.ID(), 100)) })
		at(3000*us, func() { a.SetTone(Tone(0), false) }) // the crash already dropped it
	}

	eng, _, rads := build(t, cfg, pos)
	script(eng, rads[0].Radio)
	eng.Run(horizon)
	want := rads[1].rec

	eng0 := sim.NewEngine(1)
	m0 := NewMedium(eng0, cfg)
	eng1 := sim.NewEngine(2)
	m1 := NewMedium(eng1, cfg)
	a := m0.AddRadio(0, mobility.Stationary{P: pos[0]})
	a.SetHandler(&recRadio{Radio: a, rec: &recorder{}, eng: eng0})
	b := m1.AddRadio(1, mobility.Stationary{P: pos[1]})
	rb := &recRadio{Radio: b, rec: &recorder{}, eng: eng1}
	b.SetHandler(rb)
	ConnectShards([]*Medium{m0, m1}, pos, []int{0, 1}, horizon, 0)
	script(eng0, a)
	runOut(eng0, horizon)
	runOut(eng1, horizon)
	got := rb.rec

	if len(want.frames) != 2 || want.frames[0].ok || !want.frames[1].ok {
		t.Fatalf("degenerate reference run: want a truncated frame, then a clean one: %+v", want.frames)
	}
	if len(got.frames) != len(want.frames) {
		t.Fatalf("frame count: sharded %d, unsharded %d", len(got.frames), len(want.frames))
	}
	for i := range want.frames {
		w, g := want.frames[i], got.frames[i]
		if g.ok != w.ok || g.rxStart != w.rxStart || g.at != w.at {
			t.Errorf("frame %d: sharded (ok=%v %v..%v), unsharded (ok=%v %v..%v)",
				i, g.ok, g.rxStart, g.at, w.ok, w.rxStart, w.at)
		}
	}
	if len(want.tones) != 2 {
		t.Fatalf("degenerate reference run: %d tone edges, want the ON and the crash's OFF", len(want.tones))
	}
	if len(got.tones) != len(want.tones) {
		t.Fatalf("tone edges: sharded %d, unsharded %d", len(got.tones), len(want.tones))
	}
	for i := range want.tones {
		if got.tones[i] != want.tones[i] {
			t.Errorf("tone edge %d: sharded %+v, unsharded %+v", i, got.tones[i], want.tones[i])
		}
	}
	if len(got.carrier) != len(want.carrier) {
		t.Fatalf("carrier transitions: sharded %d, unsharded %d", len(got.carrier), len(want.carrier))
	}
	for i := range want.carrier {
		if got.carrier[i] != want.carrier[i] {
			t.Errorf("carrier %d: sharded %v, unsharded %v", i, got.carrier[i], want.carrier[i])
		}
	}
}

// TestShardBoundaryGhostDropsTone holds a foreign tone across an epoch
// boundary B whose Rebuild moves the source out of the border band: its
// ghost is removed at B, and since no OFF can reach the listener through
// the conduit any more, the ghost's tone session ends there. The listener
// senses the OFF at B plus the delay its ON captured.
func TestShardBoundaryGhostDropsTone(t *testing.T) {
	cfg := DefaultConfig()
	pos := []geom.Point{{X: 95, Y: 0}, {X: 105, Y: 0}}
	horizon := 10 * sim.Millisecond
	on, B := sim.Millisecond, 5*sim.Millisecond

	eng0 := sim.NewEngine(1)
	m0 := NewMedium(eng0, cfg)
	eng1 := sim.NewEngine(2)
	m1 := NewMedium(eng1, cfg)
	a := m0.AddRadio(0, mobility.Stationary{P: pos[0]})
	b := m1.AddRadio(1, mobility.Stationary{P: pos[1]})
	rb := &recRadio{Radio: b, rec: &recorder{}, eng: eng1}
	b.SetHandler(rb)
	net := ConnectShards([]*Medium{m0, m1}, pos, []int{0, 1}, horizon, 0)
	eng0.ScheduleCall(on, scriptStep{func() { a.SetTone(Tone(0), true) }}, 0)
	runOut(eng0, B)
	runOut(eng1, B)

	// The boundary positions put a far beyond any foreign radio's reach.
	net.Rebuild([]geom.Point{{X: -1000, Y: 0}, pos[1]}, B)
	runOut(eng1, horizon)

	tones := rb.rec.tones
	if len(tones) != 2 || !tones[0].sensed || tones[1].sensed {
		t.Fatalf("tone edges %+v, want the ON and the boundary's OFF", tones)
	}
	prop := tones[0].at - on
	if prop <= 0 || tones[1].at != B+prop {
		t.Errorf("tone OFF sensed at %v, want B+prop = %v", tones[1].at, B+prop)
	}
	if got := net.Stats(1).GhostDels; got != 1 {
		t.Errorf("GhostDels = %d, want 1", got)
	}
	if a.OwnTone(Tone(0)) != true || b.ToneSensed(Tone(0)) {
		t.Error("the boundary must end only the listener's view of the tone")
	}
}
