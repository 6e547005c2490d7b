package phy

import (
	"math/rand"
	"testing"

	"rmac/internal/frame"
	"rmac/internal/geom"
	"rmac/internal/mobility"
	"rmac/internal/sim"
)

// downHarness is a two-node medium with a recording handler on node 1.
type recHandler struct {
	rxOK, rxBad int
	txDone      int
	carrier     []bool
	tone        []bool
}

func (h *recHandler) OnFrameReceived(f frame.Frame, ok bool, _ sim.Time) {
	if ok {
		h.rxOK++
	} else {
		h.rxBad++
	}
}
func (h *recHandler) OnCarrierChange(busy bool)    { h.carrier = append(h.carrier, busy) }
func (h *recHandler) OnToneChange(t Tone, on bool) { h.tone = append(h.tone, on) }
func (h *recHandler) OnTxDone(f frame.Frame)       { h.txDone++ }

func downPair(t *testing.T) (*sim.Engine, *Medium, *Radio, *Radio, *recHandler, *recHandler) {
	t.Helper()
	eng := sim.NewEngine(1)
	m := NewMedium(eng, DefaultConfig())
	a := m.AddRadio(0, mobility.Stationary{P: geom.Point{X: 0, Y: 0}})
	b := m.AddRadio(1, mobility.Stationary{P: geom.Point{X: 30, Y: 0}})
	ha, hb := &recHandler{}, &recHandler{}
	a.SetHandler(ha)
	b.SetHandler(hb)
	return eng, m, a, b, ha, hb
}

// TestDownTxReachesNoOne: a transmission started while down consumes the
// usual airtime and reports OnTxDone, but delivers nothing anywhere.
func TestDownTxReachesNoOne(t *testing.T) {
	eng, m, a, _, ha, hb := downPair(t)
	m.SetDown(a, true)
	a.StartTx(testFrame(0, 100))
	eng.RunAll()
	if ha.txDone != 1 {
		t.Fatalf("sender OnTxDone = %d, want 1 (MAC must keep advancing)", ha.txDone)
	}
	if hb.rxOK+hb.rxBad != 0 || len(hb.carrier) != 0 {
		t.Fatalf("crashed sender leaked energy: rx=%d/%d carrier=%v", hb.rxOK, hb.rxBad, hb.carrier)
	}
}

// TestCrashMidTransmissionTruncates: crashing mid-frame truncates the
// signal at the receiver (corrupt, early end) while the sender still gets
// OnTxDone at the natural end.
func TestCrashMidTransmissionTruncates(t *testing.T) {
	eng, m, a, _, ha, hb := downPair(t)
	var dur sim.Time
	eng.Schedule(0, func() { dur = a.StartTx(testFrame(0, 100)) })
	eng.Schedule(dur/2+1, func() { m.SetDown(a, true) })
	eng.RunAll()
	if hb.rxBad != 1 || hb.rxOK != 0 {
		t.Fatalf("receiver saw rxOK=%d rxBad=%d, want one corrupt truncation", hb.rxOK, hb.rxBad)
	}
	if ha.txDone != 1 {
		t.Fatalf("sender OnTxDone = %d, want 1", ha.txDone)
	}
	if m.Stats.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", m.Stats.Crashes)
	}
}

// TestDownReceiverDecodesNothing: frames arriving at a crashed radio are
// corrupt; after recovery, decoding resumes.
func TestDownReceiverDecodesNothing(t *testing.T) {
	eng, m, a, b, _, hb := downPair(t)
	m.SetDown(b, true)
	eng.Schedule(0, func() { a.StartTx(testFrame(0, 100)) })
	eng.Run(10 * sim.Millisecond)
	if hb.rxOK != 0 || hb.rxBad != 1 {
		t.Fatalf("down receiver decoded: rxOK=%d rxBad=%d", hb.rxOK, hb.rxBad)
	}
	m.SetDown(b, false)
	eng.Schedule(eng.Now()+sim.Millisecond, func() { a.StartTx(testFrame(0, 100)) })
	eng.RunAll()
	if hb.rxOK != 1 {
		t.Fatalf("recovered receiver rxOK = %d, want 1", hb.rxOK)
	}
}

// TestCrashDropsEmittedTone: a crashed emitter's tone falls at listeners,
// and the MAC's later off-transition stays a legal no-op; tones "raised"
// while down emit nothing.
func TestCrashDropsEmittedTone(t *testing.T) {
	eng, m, a, b, _, hb := downPair(t)
	eng.Schedule(0, func() { a.SetTone(ToneRBT, true) })
	eng.Schedule(sim.Millisecond, func() { m.SetDown(a, true) })
	eng.RunAll()
	if b.ToneSensed(ToneRBT) {
		t.Fatal("listener still senses crashed emitter's RBT")
	}
	if len(hb.tone) != 2 || hb.tone[0] != true || hb.tone[1] != false {
		t.Fatalf("listener tone transitions = %v, want [on off]", hb.tone)
	}
	// The MAC's own bookkeeping off-transition must not panic.
	a.SetTone(ToneRBT, false)
	// Raising a tone while down emits nothing.
	a.SetTone(ToneABT, true)
	eng.RunAll()
	if b.ToneSensed(ToneABT) {
		t.Fatal("crashed radio emitted ABT")
	}
	if !a.OwnTone(ToneABT) {
		t.Fatal("ownTone must keep tracking MAC intent while down")
	}
	a.SetTone(ToneABT, false)
}

// TestAbortAfterCrashTruncation: a crashed radio's baseband still senses
// tones, so its MAC may AbortTx during the dead transmission's remaining
// airtime — after the truncated rx paths have completed, returned to the
// pool, and been reused by another node's transmission. The abort must
// only do sender-side bookkeeping and must not touch the recycled paths.
func TestAbortAfterCrashTruncation(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMedium(eng, DefaultConfig())
	a := m.AddRadio(0, mobility.Stationary{P: geom.Point{X: 0, Y: 0}})
	b := m.AddRadio(1, mobility.Stationary{P: geom.Point{X: 30, Y: 0}})
	c := m.AddRadio(2, mobility.Stationary{P: geom.Point{X: 60, Y: 0}})
	ha, hb, hc := &recHandler{}, &recHandler{}, &recHandler{}
	a.SetHandler(ha)
	b.SetHandler(hb)
	c.SetHandler(hc)

	// The 100-byte frame's airtime is well over 96 µs and prop is ≤ 200 ns,
	// so: crash mid-frame at 10 µs; by 11 µs both truncated rx paths have
	// run and are back in the pool, and c's transmission reuses them; the
	// abort at 12 µs lands inside the dead transmission's remaining airtime.
	eng.Schedule(0, func() { a.StartTx(testFrame(0, 100)) })
	eng.Schedule(10*sim.Microsecond, func() { m.SetDown(a, true) })
	eng.Schedule(11*sim.Microsecond, func() { c.StartTx(testFrame(2, 100)) })
	eng.Schedule(12*sim.Microsecond, func() { a.AbortTx() })
	eng.RunAll()

	if hb.rxBad != 1 {
		t.Fatalf("b saw %d corrupt frames, want 1 (a's truncated tx)", hb.rxBad)
	}
	if hb.rxOK != 1 {
		t.Fatalf("b decoded %d frames, want 1 — c's tx on recycled rx paths was corrupted", hb.rxOK)
	}
	if ha.txDone != 0 {
		t.Fatalf("aborting sender got OnTxDone %d times, want 0", ha.txDone)
	}
	if m.Stats.Aborts != 1 {
		t.Fatalf("Aborts = %d, want 1", m.Stats.Aborts)
	}
}

// TestCrashRecoverCrashWithinAirtime: with downtime floored at one tick, a
// node can crash, recover, and crash again inside a single transmission's
// airtime. The second crash must not re-truncate the already-aborted
// transmission — its rx paths have completed and been pooled.
func TestCrashRecoverCrashWithinAirtime(t *testing.T) {
	eng, m, a, _, ha, hb := downPair(t)
	eng.Schedule(0, func() { a.StartTx(testFrame(0, 100)) })
	eng.Schedule(10*sim.Microsecond, func() { m.SetDown(a, true) })
	eng.Schedule(11*sim.Microsecond, func() { m.SetDown(a, false) })
	eng.Schedule(12*sim.Microsecond, func() { m.SetDown(a, true) })
	eng.RunAll()
	if hb.rxBad != 1 || hb.rxOK != 0 {
		t.Fatalf("receiver saw rxOK=%d rxBad=%d, want exactly one corrupt truncation", hb.rxOK, hb.rxBad)
	}
	if ha.txDone != 1 {
		t.Fatalf("sender OnTxDone = %d, want 1 (crash keeps the MAC advancing)", ha.txDone)
	}
	if m.Stats.Crashes != 2 {
		t.Fatalf("Crashes = %d, want 2", m.Stats.Crashes)
	}
}

// TestChurnPreservesQuiescence: random crash/recover cycles interleaved
// with traffic and tones leave the medium's accounting balanced.
func TestChurnPreservesQuiescence(t *testing.T) {
	eng := sim.NewEngine(99)
	m := NewMedium(eng, DefaultConfig())
	rng := rand.New(rand.NewSource(99))
	field := geom.Rect{W: 200, H: 150}
	const n = 6
	rads := make([]*Radio, n)
	for i := 0; i < n; i++ {
		rads[i] = m.AddRadio(i, mobility.Stationary{P: field.RandomPoint(rng)})
		rads[i].SetHandler(&recHandler{})
	}
	for k := 0; k < 300; k++ {
		r := rads[rng.Intn(n)]
		at := sim.Time(rng.Intn(100_000)) * sim.Microsecond
		switch rng.Intn(4) {
		case 0:
			eng.Schedule(at, func() {
				if !r.Transmitting() {
					r.StartTx(testFrame(r.ID(), 100))
				}
			})
		case 1:
			tone := Tone(rng.Intn(int(NumTones)))
			eng.Schedule(at, func() {
				if !r.OwnTone(tone) {
					r.SetTone(tone, true)
					eng.After(sim.Time(rng.Intn(300)+5)*sim.Microsecond, func() {
						if r.OwnTone(tone) {
							r.SetTone(tone, false)
						}
					})
				}
			})
		case 2:
			eng.Schedule(at, func() { m.SetDown(r, true) })
		case 3:
			eng.Schedule(at, func() { m.SetDown(r, false) })
		}
	}
	eng.RunAll()
	for _, r := range rads {
		m.SetDown(r, false)
		if r.Transmitting() || len(r.active) != 0 {
			t.Fatalf("node %d not quiescent after churn", r.ID())
		}
		for tone := Tone(0); tone < NumTones; tone++ {
			if r.tones[tone].count != 0 {
				t.Fatalf("node %d tone %v count %d after churn", r.ID(), tone, r.tones[tone].count)
			}
		}
	}
}

// TestRecoveryDoesNotReraiseTone: a tone dropped by a crash stays down at
// every listener across recovery — the revived power stage must not
// replay MAC intent it never saw — until the MAC's own next off→on
// transition re-raises it for real.
func TestRecoveryDoesNotReraiseTone(t *testing.T) {
	eng, m, a, b, _, hb := downPair(t)
	eng.Schedule(0, func() { a.SetTone(ToneRBT, true) })
	eng.Schedule(sim.Millisecond, func() { m.SetDown(a, true) })
	eng.Schedule(2*sim.Millisecond, func() { m.SetDown(a, false) })
	eng.RunAll()
	if b.ToneSensed(ToneRBT) {
		t.Fatal("recovery re-raised the crashed-away RBT at the listener")
	}
	if !a.OwnTone(ToneRBT) {
		t.Fatal("ownTone must keep tracking MAC intent across the crash")
	}
	if len(hb.tone) != 2 || hb.tone[0] != true || hb.tone[1] != false {
		t.Fatalf("listener tone transitions = %v, want [on off]", hb.tone)
	}
	// The MAC's own off→on cycle restores the tone at the listener.
	a.SetTone(ToneRBT, false)
	a.SetTone(ToneRBT, true)
	eng.RunAll()
	if !b.ToneSensed(ToneRBT) {
		t.Fatal("listener missed the genuinely re-raised RBT")
	}
	a.SetTone(ToneRBT, false)
	eng.RunAll()
}
