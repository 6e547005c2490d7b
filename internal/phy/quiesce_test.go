package phy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rmac/internal/frame"
	"rmac/internal/geom"
	"rmac/internal/mobility"
	"rmac/internal/sim"
)

// TestPropertyChannelQuiescence: after arbitrary interleaved traffic and
// tone activity completes, every radio's carrier count is zero, no
// receptions are pending, and tone levels are fully released — the
// conservation law of the medium's +1/-1 accounting.
func TestPropertyChannelQuiescence(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		eng := sim.NewEngine(seed)
		cfg := DefaultConfig()
		m := NewMedium(eng, cfg)
		rng := rand.New(rand.NewSource(seed))
		field := geom.Rect{W: 300, H: 200}
		const n = 8
		rads := make([]*Radio, n)
		for i := 0; i < n; i++ {
			rads[i] = m.AddRadio(i, mobility.Stationary{P: field.RandomPoint(rng)})
			rads[i].SetHandler(nil2{})
		}
		ops := int(opsRaw)%40 + 5
		for k := 0; k < ops; k++ {
			r := rads[rng.Intn(n)]
			at := sim.Time(rng.Intn(50_000)) * sim.Microsecond
			switch rng.Intn(3) {
			case 0: // frame, possibly aborted mid-air
				abort := rng.Intn(4) == 0
				eng.Schedule(at, func() {
					if r.Transmitting() {
						return
					}
					dur := r.StartTx(&frame.UData{
						Transmitter: frame.AddrFromID(r.ID()),
						Receiver:    frame.Broadcast,
						Payload:     make([]byte, rng.Intn(400)+10),
					})
					if abort {
						cut := sim.Time(rng.Int63n(int64(dur)/2 + 1))
						eng.After(cut, func() {
							if r.Transmitting() {
								r.AbortTx()
							}
						})
					}
				})
			case 1: // RBT pulse
				tone := Tone(rng.Intn(int(NumTones)))
				dur := sim.Time(rng.Intn(500)+5) * sim.Microsecond
				eng.Schedule(at, func() {
					if r.OwnTone(tone) {
						return
					}
					r.SetTone(tone, true)
					eng.After(dur, func() { r.SetTone(tone, false) })
				})
			case 2: // nothing (gap)
			}
		}
		eng.RunAll()
		for _, r := range rads {
			if r.Transmitting() || r.CarrierSensed() || len(r.active) != 0 {
				return false
			}
			for tone := Tone(0); tone < NumTones; tone++ {
				if r.ToneSensed(tone) || r.OwnTone(tone) {
					return false
				}
				if r.tones[tone].count != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
