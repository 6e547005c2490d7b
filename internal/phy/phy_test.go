package phy

import (
	"testing"
	"testing/quick"
	"unsafe"

	"rmac/internal/frame"
	"rmac/internal/geom"
	"rmac/internal/mobility"
	"rmac/internal/sim"
)

// recorder is a Handler that logs every PHY indication.
type recorder struct {
	frames  []recFrame
	carrier []bool
	tones   []recTone
	txDone  int
}

type recFrame struct {
	f       frame.Frame
	ok      bool
	rxStart sim.Time
	at      sim.Time
}

type recTone struct {
	t      Tone
	sensed bool
	at     sim.Time
}

type recRadio struct {
	*Radio
	rec *recorder
	eng *sim.Engine
}

func (r *recRadio) OnFrameReceived(f frame.Frame, ok bool, rxStart sim.Time) {
	r.rec.frames = append(r.rec.frames, recFrame{f, ok, rxStart, r.eng.Now()})
}
func (r *recRadio) OnCarrierChange(busy bool) { r.rec.carrier = append(r.rec.carrier, busy) }
func (r *recRadio) OnToneChange(t Tone, sensed bool) {
	r.rec.tones = append(r.rec.tones, recTone{t, sensed, r.eng.Now()})
}
func (r *recRadio) OnTxDone(frame.Frame) { r.rec.txDone++ }

// build creates a medium with nodes at fixed positions and recording handlers.
func build(t *testing.T, cfg Config, pos []geom.Point) (*sim.Engine, *Medium, []*recRadio) {
	t.Helper()
	eng := sim.NewEngine(1)
	m := NewMedium(eng, cfg)
	rads := make([]*recRadio, len(pos))
	for i, p := range pos {
		r := m.AddRadio(i, mobility.Stationary{P: p})
		rr := &recRadio{Radio: r, rec: &recorder{}, eng: eng}
		r.SetHandler(rr)
		rads[i] = rr
	}
	return eng, m, rads
}

func testFrame(src int, payload int) *frame.UData {
	return &frame.UData{
		Transmitter: frame.AddrFromID(src),
		Receiver:    frame.Broadcast,
		Payload:     make([]byte, payload),
	}
}

func TestTxDurationPaperNumbers(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		bytes int
		want  sim.Time
	}{
		{14, 152 * sim.Microsecond},   // ACK: 96 + 56
		{20, 176 * sim.Microsecond},   // RTS: 96 + 80
		{18, 168 * sim.Microsecond},   // shortest MRTS
		{22, 184 * sim.Microsecond},   // shortest RMAC data frame
		{522, 2184 * sim.Microsecond}, // 500-byte packet in RDATA
	}
	for _, c := range cases {
		if got := cfg.TxDuration(c.bytes); got != c.want {
			t.Errorf("TxDuration(%d) = %v, want %v", c.bytes, got, c.want)
		}
	}
	// §3.4: shortest MRTS + shortest data = 352 µs; 352/17 -> limit 20.
	total := cfg.TxDuration(18) + cfg.TxDuration(22)
	if total != 352*sim.Microsecond {
		t.Fatalf("MRTS+DATA = %v, want 352µs", total)
	}
	if int(total/ABTDuration) != 20 {
		t.Fatalf("receiver limit = %d, want 20", int(total/ABTDuration))
	}
}

// TestControlOverheadBMMM reproduces §2's arithmetic: 2n pairs of control
// frames cost 632n µs.
func TestControlOverheadBMMM(t *testing.T) {
	cfg := DefaultConfig()
	perReceiver := cfg.TxDuration(frame.RTSLen) + cfg.TxDuration(frame.CTSLen) +
		cfg.TxDuration(frame.RAKLen) + cfg.TxDuration(frame.ACKLen)
	if perReceiver != 632*sim.Microsecond {
		t.Fatalf("BMMM control airtime per receiver = %v, want 632µs", perReceiver)
	}
}

func TestSimpleDelivery(t *testing.T) {
	cfg := DefaultConfig()
	_, m, rads := build(t, cfg, []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}})
	f := testFrame(0, 100)
	dur := rads[0].StartTx(f)
	m.Engine().RunAll()
	if rads[0].rec.txDone != 1 {
		t.Fatal("sender missing OnTxDone")
	}
	got := rads[1].rec.frames
	if len(got) != 1 || !got[0].ok {
		t.Fatalf("receiver frames = %+v, want 1 ok frame", got)
	}
	prop := m.propDelay(50)
	if got[0].rxStart != prop {
		t.Fatalf("rxStart = %v, want %v", got[0].rxStart, prop)
	}
	if got[0].at != prop+dur {
		t.Fatalf("rx end = %v, want %v", got[0].at, prop+dur)
	}
	// Carrier went busy then idle.
	c := rads[1].rec.carrier
	if len(c) != 2 || !c[0] || c[1] {
		t.Fatalf("carrier transitions = %v", c)
	}
}

func TestOutOfRangeNoDelivery(t *testing.T) {
	cfg := DefaultConfig()
	_, m, rads := build(t, cfg, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
	rads[0].StartTx(testFrame(0, 10))
	m.Engine().RunAll()
	if len(rads[1].rec.frames) != 0 {
		t.Fatal("frame delivered beyond range")
	}
	if len(rads[1].rec.carrier) != 0 {
		t.Fatal("carrier sensed beyond interference range")
	}
}

func TestInterferenceRangeCorruptsButNotDecodes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InterferenceFactor = 2.0
	// B is outside comm range (75) of A but inside interference (150).
	_, m, rads := build(t, cfg, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
	rads[0].StartTx(testFrame(0, 10))
	m.Engine().RunAll()
	fr := rads[1].rec.frames
	if len(fr) != 1 || fr[0].ok {
		t.Fatalf("interference-range delivery = %+v, want 1 corrupt frame", fr)
	}
	if len(rads[1].rec.carrier) != 2 {
		t.Fatal("interference-range signal must drive carrier sense")
	}
}

func TestCollisionAtReceiver(t *testing.T) {
	// A and C both in range of B; A and C out of range of each other
	// (hidden terminals). Overlapping transmissions collide at B.
	cfg := DefaultConfig()
	eng, m, rads := build(t, cfg, []geom.Point{{X: 0, Y: 0}, {X: 70, Y: 0}, {X: 140, Y: 0}})
	rads[0].StartTx(testFrame(0, 100))
	eng.After(10*sim.Microsecond, func() { rads[2].StartTx(testFrame(2, 100)) })
	m.Engine().RunAll()
	fr := rads[1].rec.frames
	if len(fr) != 2 {
		t.Fatalf("B saw %d frames, want 2", len(fr))
	}
	for _, g := range fr {
		if g.ok {
			t.Fatalf("overlapping frame decoded ok: %+v", g)
		}
	}
	// A and C are out of each other's range: they successfully decode
	// nothing but also hear nothing.
	if len(rads[0].rec.frames) != 0 || len(rads[2].rec.frames) != 0 {
		t.Fatal("hidden terminals heard each other")
	}
}

func TestSequentialFramesBothDecode(t *testing.T) {
	cfg := DefaultConfig()
	eng, m, rads := build(t, cfg, []geom.Point{{X: 0, Y: 0}, {X: 70, Y: 0}, {X: 140, Y: 0}})
	dur := cfg.TxDuration(testFrame(0, 100).WireSize())
	rads[0].StartTx(testFrame(0, 100))
	// Start the second transmission well after the first ends plus prop.
	eng.Schedule(dur+10*sim.Microsecond, func() { rads[2].StartTx(testFrame(2, 100)) })
	m.Engine().RunAll()
	fr := rads[1].rec.frames
	if len(fr) != 2 || !fr[0].ok || !fr[1].ok {
		t.Fatalf("sequential frames = %+v, want both ok", fr)
	}
}

func TestTransmitterCannotDecode(t *testing.T) {
	// B starts transmitting while A's frame is arriving: A's frame is
	// corrupted at B.
	cfg := DefaultConfig()
	eng, m, rads := build(t, cfg, []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}})
	rads[0].StartTx(testFrame(0, 100))
	eng.After(50*sim.Microsecond, func() { rads[1].StartTx(testFrame(1, 10)) })
	m.Engine().RunAll()
	fr := rads[1].rec.frames
	if len(fr) != 1 || fr[0].ok {
		t.Fatalf("frame at transmitting node = %+v, want corrupt", fr)
	}
}

func TestAbortTruncatesSignal(t *testing.T) {
	cfg := DefaultConfig()
	eng, m, rads := build(t, cfg, []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}})
	rads[0].StartTx(testFrame(0, 500))
	abortAt := 100 * sim.Microsecond
	eng.Schedule(abortAt, func() { rads[0].AbortTx() })
	m.Engine().RunAll()
	if rads[0].rec.txDone != 0 {
		t.Fatal("aborted TX produced OnTxDone")
	}
	fr := rads[1].rec.frames
	if len(fr) != 1 || fr[0].ok {
		t.Fatalf("aborted frame = %+v, want corrupt delivery", fr)
	}
	prop := m.propDelay(50)
	if fr[0].at != abortAt+prop {
		t.Fatalf("truncated rx end = %v, want %v", fr[0].at, abortAt+prop)
	}
	if rads[0].Transmitting() {
		t.Fatal("still transmitting after abort")
	}
	if m.Stats.Aborts != 1 {
		t.Fatal("abort not counted")
	}
}

// readToneAt schedules a reading of r's tone meter for t at instant at and
// returns where the reading will be stored.
func readToneAt(eng *sim.Engine, r *Radio, t Tone, at sim.Time) *sim.Time {
	v := new(sim.Time)
	eng.Schedule(at, func() { *v = r.ToneTime(t) })
	return v
}

func TestTonePropagationAndSensing(t *testing.T) {
	cfg := DefaultConfig()
	eng, m, rads := build(t, cfg, []geom.Point{{X: 0, Y: 0}, {X: 60, Y: 0}, {X: 200, Y: 0}})
	eng.Schedule(10*sim.Microsecond, func() { rads[0].SetTone(ToneRBT, true) })
	eng.Schedule(110*sim.Microsecond, func() { rads[0].SetTone(ToneRBT, false) })
	from := readToneAt(eng, rads[1].Radio, ToneRBT, 0)
	to := readToneAt(eng, rads[1].Radio, ToneRBT, 200*sim.Microsecond)
	m.Engine().RunAll()
	prop := m.propDelay(60)
	tr := rads[1].rec.tones
	if len(tr) != 2 {
		t.Fatalf("tone transitions = %+v", tr)
	}
	if !tr[0].sensed || tr[0].at != 10*sim.Microsecond+prop {
		t.Fatalf("tone rise = %+v", tr[0])
	}
	if tr[1].sensed || tr[1].at != 110*sim.Microsecond+prop {
		t.Fatalf("tone fall = %+v", tr[1])
	}
	if len(rads[2].rec.tones) != 0 {
		t.Fatal("tone sensed out of range")
	}
	if len(rads[0].rec.tones) != 0 {
		t.Fatal("node sensed its own tone")
	}
	// Windowed reading: 100 µs of tone within [0, 200µs].
	if got := *to - *from; got != 100*sim.Microsecond {
		t.Fatalf("ToneTime difference = %v, want 100µs", got)
	}
}

func TestToneCountsFromMultipleEmitters(t *testing.T) {
	// Two emitters overlap; the middle node sees one rise and one fall.
	cfg := DefaultConfig()
	eng, m, rads := build(t, cfg, []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 100, Y: 0}})
	eng.Schedule(10*sim.Microsecond, func() { rads[0].SetTone(ToneABT, true) })
	eng.Schedule(20*sim.Microsecond, func() { rads[2].SetTone(ToneABT, true) })
	eng.Schedule(50*sim.Microsecond, func() { rads[0].SetTone(ToneABT, false) })
	eng.Schedule(80*sim.Microsecond, func() { rads[2].SetTone(ToneABT, false) })
	from := readToneAt(eng, rads[1].Radio, ToneABT, 0)
	to := readToneAt(eng, rads[1].Radio, ToneABT, sim.Second)
	m.Engine().RunAll()
	tr := rads[1].rec.tones
	if len(tr) != 2 || !tr[0].sensed || tr[1].sensed {
		t.Fatalf("middle node transitions = %+v, want rise+fall only", tr)
	}
	// Level stayed up across the emitter handoff.
	rise, fall := tr[0].at, tr[1].at
	if got := *to - *from; got != fall-rise {
		t.Fatalf("sensed time = %v, want %v", got, fall-rise)
	}
}

func TestDoubleToneOnPanics(t *testing.T) {
	_, m, rads := build(t, DefaultConfig(), []geom.Point{{X: 0, Y: 0}})
	_ = m
	rads[0].SetTone(ToneRBT, true)
	defer func() {
		if recover() == nil {
			t.Fatal("double tone-on did not panic")
		}
	}()
	rads[0].SetTone(ToneRBT, true)
}

func TestOngoingTxWhileTonePresent(t *testing.T) {
	// Tones live on a separate channel: a transmitting node still senses
	// tone transitions (needed for MRTS abortion, §3.3.2 step 3).
	cfg := DefaultConfig()
	eng, m, rads := build(t, cfg, []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}})
	rads[0].StartTx(testFrame(0, 500)) // ~2.1 ms
	eng.Schedule(100*sim.Microsecond, func() { rads[1].SetTone(ToneRBT, true) })
	eng.Schedule(200*sim.Microsecond, func() { rads[1].SetTone(ToneRBT, false) })
	m.Engine().RunAll()
	if len(rads[0].rec.tones) != 2 {
		t.Fatalf("transmitter tone transitions = %+v", rads[0].rec.tones)
	}
}

func TestBERCorruptsFrames(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BER = 1e-3 // 500-byte frame error prob ~ 0.985
	_, m, rads := build(t, cfg, []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}})
	okCount := 0
	n := 50
	for i := 0; i < n; i++ {
		at := sim.Time(i) * 5 * sim.Millisecond
		m.Engine().Schedule(at, func() { rads[0].StartTx(testFrame(0, 500)) })
	}
	m.Engine().RunAll()
	for _, g := range rads[1].rec.frames {
		if g.ok {
			okCount++
		}
	}
	if okCount > n/4 {
		t.Fatalf("BER 1e-3: %d/%d frames survived, expected almost none", okCount, n)
	}
	if p := cfg.FrameErrorProb(522); p < 0.9 || p > 1 {
		t.Fatalf("FrameErrorProb(522) = %v", p)
	}
	if DefaultConfig().FrameErrorProb(522) != 0 {
		t.Fatal("BER=0 must give zero error prob")
	}
}

// TestRadioSizeClass keeps Radio in the 224-byte allocation size class:
// one more word would move every radio, one per node, into the 256-byte
// class.
func TestRadioSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Radio{}); n > 224 {
		t.Errorf("unsafe.Sizeof(Radio{}) = %d, want at most 224", n)
	}
}

func TestMediumStats(t *testing.T) {
	_, m, rads := build(t, DefaultConfig(), []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}})
	rads[0].StartTx(testFrame(0, 10))
	m.Engine().RunAll()
	if m.Stats.Transmissions != 1 || m.Stats.FramesDecoded != 1 || m.Stats.FramesCorrupt != 0 {
		t.Fatalf("stats = %+v", m.Stats)
	}
}

// Property: tone time accounting is consistent — for any on/off schedule
// the sensed time over a covering window equals the total emitted time
// (single emitter, fixed propagation).
func TestPropertyToneAccounting(t *testing.T) {
	f := func(durs []uint8) bool {
		if len(durs) > 8 {
			durs = durs[:8]
		}
		eng := sim.NewEngine(3)
		m := NewMedium(eng, DefaultConfig())
		a := m.AddRadio(0, mobility.Stationary{P: geom.Point{X: 0, Y: 0}})
		b := m.AddRadio(1, mobility.Stationary{P: geom.Point{X: 30, Y: 0}})
		rb := &recRadio{Radio: b, rec: &recorder{}, eng: eng}
		b.SetHandler(rb)
		var total sim.Time
		from := b.ToneTime(ToneABT)
		at := sim.Time(0)
		for _, d := range durs {
			on := sim.Time(d%50+1) * sim.Microsecond
			gap := sim.Time(d%31+1) * sim.Microsecond
			st, en := at, at+on
			eng.Schedule(st, func() { a.SetTone(ToneABT, true) })
			eng.Schedule(en, func() { a.SetTone(ToneABT, false) })
			total += on
			at = en + gap
		}
		eng.RunAll()
		return b.ToneTime(ToneABT)-from == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any pair of overlapping transmissions in mutual range of a
// receiver, neither decodes; for disjoint-in-time transmissions, both do.
func TestPropertyOverlapExcludesDecode(t *testing.T) {
	f := func(gapRaw uint16) bool {
		gap := sim.Time(gapRaw%4000) * sim.Microsecond
		eng := sim.NewEngine(5)
		m := NewMedium(eng, DefaultConfig())
		a := m.AddRadio(0, mobility.Stationary{P: geom.Point{X: 0, Y: 0}})
		b := m.AddRadio(1, mobility.Stationary{P: geom.Point{X: 70, Y: 0}})
		c := m.AddRadio(2, mobility.Stationary{P: geom.Point{X: 140, Y: 0}})
		rb := &recRadio{Radio: b, rec: &recorder{}, eng: eng}
		b.SetHandler(rb)
		fr := testFrame(0, 100)
		dur := m.Config().TxDuration(fr.WireSize())
		eng.Schedule(0, func() { a.StartTx(fr) })
		eng.Schedule(gap, func() { c.StartTx(testFrame(2, 100)) })
		eng.RunAll()
		// Both senders are 70 m from B, so both signals shift by the same
		// propagation delay and overlap at B iff gap < dur (strict: at
		// gap == dur the first frame's last bit is delivered in the same
		// instant the second's first bit arrives, and both decode).
		overlapping := gap < dur
		okA, okC := false, false
		for _, g := range rb.rec.frames {
			if g.f.Src() == frame.AddrFromID(0) && g.ok {
				okA = true
			}
			if g.f.Src() == frame.AddrFromID(2) && g.ok {
				okC = true
			}
		}
		if overlapping {
			return !okA && !okC
		}
		return okA && okC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
