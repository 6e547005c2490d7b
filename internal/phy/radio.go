package phy

import (
	"rmac/internal/frame"
	"rmac/internal/geom"
	"rmac/internal/sim"
)

// Handler is the interface a MAC layer implements to receive PHY
// indications. All callbacks run on the simulation goroutine.
type Handler interface {
	// OnFrameReceived delivers the end of a frame reception. ok is true
	// iff the frame was received collision-free, within communication
	// range, not aborted mid-air, and survived channel noise. rxStart is
	// when the first bit arrived at this node.
	OnFrameReceived(f frame.Frame, ok bool, rxStart sim.Time)
	// OnCarrierChange reports data-channel energy transitions at this
	// node (foreign signals only; the node's own transmission is
	// reflected by DataChannelBusy instead).
	OnCarrierChange(busy bool)
	// OnToneChange reports sensed level transitions of a busy-tone
	// channel at this node (the node's own tone is excluded).
	OnToneChange(t Tone, sensed bool)
	// OnTxDone reports natural completion of this node's transmission.
	// Aborted transmissions do not produce OnTxDone.
	OnTxDone(f frame.Frame)
}

// toneMeter is one tone's sensing state at a radio: the sensed level and
// a cumulative sensed-time counter. A MAC measures how long the tone was
// sensed over a window by reading the counter (Radio.ToneTime) when the
// window opens and again when it closes.
type toneMeter struct {
	count   int      // number of in-range emitters currently sensed
	onSince sim.Time // start of the current sensed period (count > 0)
	sensed  sim.Time // total length of the completed sensed periods
}

// Radio is one node's PHY entity: transmitter, receiver, tone emitter and
// tone sensor. Its slot and bools sit at the tail, packed into one word,
// which keeps the struct in the 192-byte allocation size class.
type Radio struct {
	m   *Medium
	eng *sim.Engine
	id  int

	// A static radio (see static) holds its fixed position in pos; a
	// moving one holds its position in the medium's leg table, at slot
	// (see Medium.PositionOf).
	pos geom.Point

	handler Handler

	curTx    *transmission
	active   []*rxPath // signals currently arriving at this node
	toneSess [NumTones]*toneSession
	tones    [NumTones]toneMeter

	// cats holds, in a sharded run, one catalog per foreign shard with
	// candidate receivers of this radio in the current epoch (see
	// cross.go); a radio with any is a border radio, whose effects the
	// medium mirrors. Empty in unsharded runs.
	cats []*crossCatalog

	slot   int32 // moving: index of the radio's current leg in Medium.legs
	static bool  // stationary: pos holds the position
	// down marks a crashed radio (fault injection): it emits no signal or
	// tone energy and decodes nothing, but keeps sensing — see
	// Medium.SetDown for the exact crash semantics.
	down    bool
	ownTone [NumTones]bool
	// crossTone records, per tone, whether the current on-transition was
	// mirrored to foreign shards (and therefore needs a mirrored off).
	crossTone [NumTones]bool
}

// ID returns the node ID this radio belongs to.
func (r *Radio) ID() int { return r.id }

// SetHandler installs the MAC-layer callback sink.
func (r *Radio) SetHandler(h Handler) { r.handler = h }

// Frames returns the simulation-wide frame pool; see Medium.Frames.
func (r *Radio) Frames() *frame.Pool { return r.m.Frames() }

// Transmitting reports whether the node is currently transmitting on the
// data channel.
func (r *Radio) Transmitting() bool { return r.curTx != nil }

// Down reports whether the radio is crashed (see Medium.SetDown).
func (r *Radio) Down() bool { return r.down }

// SetDown crashes or recovers this radio; see Medium.SetDown.
func (r *Radio) SetDown(down bool) { r.m.SetDown(r, down) }

// DataChannelBusy reports whether the data channel is busy at this node:
// any foreign signal arriving, or the node itself transmitting.
func (r *Radio) DataChannelBusy() bool {
	return len(r.active) > 0 || r.curTx != nil
}

// CarrierSensed reports foreign energy only (the receive path).
func (r *Radio) CarrierSensed() bool { return len(r.active) > 0 }

// ToneSensed reports whether tone t from some other node is currently
// present at this node.
func (r *Radio) ToneSensed(t Tone) bool { return r.tones[t].count > 0 }

// OwnTone reports whether this node is currently emitting tone t.
func (r *Radio) OwnTone(t Tone) bool { return r.ownTone[t] }

// StartTx transmits f on the data channel; see Medium.StartTx.
func (r *Radio) StartTx(f frame.Frame) sim.Time { return r.m.StartTx(r, f) }

// AbortTx aborts the in-flight transmission; see Medium.AbortTx.
func (r *Radio) AbortTx() { r.m.AbortTx(r) }

// SetTone turns this node's tone t on or off; see Medium.SetTone.
func (r *Radio) SetTone(t Tone, on bool) { r.m.SetTone(r, t, on) }

// Call implements sim.Caller: a propagated tone transition from a remote
// node, encoded as a tag (see toneOnTag/toneOffTag). Scheduled by
// Medium.SetTone; not meant to be called directly.
func (r *Radio) Call(tag int32) {
	t := Tone(tag >> 1)
	if tag&1 == 1 {
		r.toneDelta(t, +1)
	} else {
		r.toneDelta(t, -1)
	}
}

// toneDelta applies a propagated +1/-1 tone transition from a remote node.
func (r *Radio) toneDelta(t Tone, d int) {
	s := &r.tones[t]
	was := s.count > 0
	s.count += d
	if s.count < 0 {
		panic("phy: tone count negative")
	}
	is := s.count > 0
	switch {
	case !was && is:
		s.onSince = r.eng.Now()
		if r.handler != nil {
			r.handler.OnToneChange(t, true)
		}
	case was && !is:
		s.sensed += r.eng.Now() - s.onSince
		if r.handler != nil {
			r.handler.OnToneChange(t, false)
		}
	}
}

// ToneTime returns the total time tone t has been sensed at this node up
// to now. The MAC decides whether a busy tone was "detected" in a timer
// window (e.g. one ABT slot) by comparing the difference of the readings
// taken when the window opened and when it closed with λ — which is what
// disambiguates an ABT spilling into the next window by ≤2τ from a
// genuine detection (§3.3.2).
func (r *Radio) ToneTime(t Tone) sim.Time {
	s := &r.tones[t]
	if s.count > 0 {
		return s.sensed + r.eng.Now() - s.onSince
	}
	return s.sensed
}
