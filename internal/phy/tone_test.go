package phy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rmac/internal/geom"
	"rmac/internal/mobility"
	"rmac/internal/sim"
)

// TestToneMeterRepeatedCycles: ten ABT pulses of 20 µs each, 100 µs
// apart, are sensed for 200 µs in total, and a window opened half-way
// through sees only the pulses after it.
func TestToneMeterRepeatedCycles(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMedium(eng, DefaultConfig())
	a := m.AddRadio(0, mobility.Stationary{P: geom.Point{X: 0, Y: 0}})
	b := m.AddRadio(1, mobility.Stationary{P: geom.Point{X: 30, Y: 0}})
	a.SetHandler(nil2{})
	b.SetHandler(nil2{})
	for i := 0; i < 10; i++ {
		at := sim.Time(i) * 100 * sim.Microsecond
		eng.Schedule(at, func() { a.SetTone(ToneABT, true) })
		eng.Schedule(at+20*sim.Microsecond, func() { a.SetTone(ToneABT, false) })
	}
	start := b.ToneTime(ToneABT)
	half := readToneAt(eng, b, ToneABT, 500*sim.Microsecond)
	eng.RunAll()
	if got := b.ToneTime(ToneABT) - start; got != 200*sim.Microsecond {
		t.Fatalf("sensed time over all cycles = %v, want 200µs", got)
	}
	if got := b.ToneTime(ToneABT) - *half; got != 100*sim.Microsecond {
		t.Fatalf("sensed time after 500µs = %v, want 100µs", got)
	}
}

// toneLogger is a Handler keeping the interval log the tone meter
// replaced: one closed [from, to] period per sensed stretch of each tone,
// built from the OnToneChange edges alone.
type toneLogger struct {
	nil2
	eng  *sim.Engine
	on   [NumTones]sim.Time
	logs [NumTones][][2]sim.Time
}

func (l *toneLogger) OnToneChange(t Tone, sensed bool) {
	if sensed {
		l.on[t] = l.eng.Now()
		return
	}
	l.logs[t] = append(l.logs[t], [2]sim.Time{l.on[t], l.eng.Now()})
}

// overlap returns the logged sensed time of tone t within [from, to].
func (l *toneLogger) overlap(t Tone, from, to sim.Time) sim.Time {
	var total sim.Time
	for _, iv := range l.logs[t] {
		if lo, hi := max(iv[0], from), min(iv[1], to); hi > lo {
			total += hi - lo
		}
	}
	return total
}

// Property: for random on/off schedules of several emitters at different
// distances from one listener, the difference of any two tone meter
// readings equals the sensed time an interval log records between the
// two reading instants.
func TestPropertyToneMeterMatchesIntervalLog(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine(seed)
		m := NewMedium(eng, DefaultConfig())
		l := m.AddRadio(0, mobility.Stationary{P: geom.Point{X: 0, Y: 0}})
		log := &toneLogger{eng: eng}
		l.SetHandler(log)
		emitters := rng.Intn(4) + 1
		for e := 1; e <= emitters; e++ {
			r := m.AddRadio(e, mobility.Stationary{P: geom.Point{X: rng.Float64() * 70, Y: rng.Float64() * 70}})
			r.SetHandler(nil2{})
			for tone := Tone(0); tone < NumTones; tone++ {
				at := sim.Time(rng.Intn(50)) * sim.Microsecond
				for p := rng.Intn(8); p > 0; p-- {
					on := at
					off := on + sim.Time(rng.Intn(60)+1)*sim.Microsecond
					eng.Schedule(on, func() { r.SetTone(tone, true) })
					eng.Schedule(off, func() { r.SetTone(tone, false) })
					at = off + sim.Time(rng.Intn(40)+1)*sim.Microsecond
				}
			}
		}
		type reading struct {
			at  sim.Time
			val [NumTones]sim.Time
		}
		var reads []reading
		for k := rng.Intn(12) + 2; k > 0; k-- {
			eng.Schedule(sim.Time(rng.Intn(800))*sim.Microsecond, func() {
				rd := reading{at: eng.Now()}
				for tone := Tone(0); tone < NumTones; tone++ {
					rd.val[tone] = l.ToneTime(tone)
				}
				reads = append(reads, rd)
			})
		}
		eng.RunAll()
		for i, a := range reads {
			for _, b := range reads[i:] {
				for tone := Tone(0); tone < NumTones; tone++ {
					if got, want := b.val[tone]-a.val[tone], log.overlap(tone, a.at, b.at); got != want {
						t.Logf("seed %d tone %v [%v, %v]: meter %v, log %v", seed, tone, a.at, b.at, got, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestToneCyclesAllocFree: a listener sensing tone cycle after tone
// cycle, and the MAC reading its meter, allocate nothing.
func TestToneCyclesAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMedium(eng, DefaultConfig())
	a := m.AddRadio(0, mobility.Stationary{P: geom.Point{X: 0, Y: 0}})
	b := m.AddRadio(1, mobility.Stationary{P: geom.Point{X: 30, Y: 0}})
	a.SetHandler(nil2{})
	b.SetHandler(nil2{})
	cycle := func() {
		for tone := Tone(0); tone < NumTones; tone++ {
			from := b.ToneTime(tone)
			a.SetTone(tone, true)
			eng.Run(eng.Now() + 20*sim.Microsecond)
			a.SetTone(tone, false)
			eng.RunAll()
			if got := b.ToneTime(tone) - from; got != 20*sim.Microsecond {
				t.Fatalf("tone %v: one cycle sensed for %v", tone, got)
			}
		}
	}
	for i := 0; i < 300; i++ {
		cycle() // warm the session pool and the event arena
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("tone cycle allocates %v times", n)
	}
}
