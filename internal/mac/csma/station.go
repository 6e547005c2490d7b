package csma

import (
	"rmac/internal/audit"
	"rmac/internal/frame"
	"rmac/internal/mac"
	"rmac/internal/phy"
	"rmac/internal/sim"
)

// respSlack pads a control response timeout beyond SIFS plus the
// response's airtime, absorbing propagation and turnaround.
const respSlack = 2*phy.Tau + 2*sim.Microsecond

// State is a node's place in its exchange. The station owns the field
// and two of its values: Idle, when the node runs no exchange of its
// own, and Responding, while a SIFS response is on the air. A protocol
// numbers its own states from FirstState on.
type State uint8

const (
	Idle       State = iota // no exchange of the node's own in progress
	Responding              // a SIFS response is on the air
	FirstState              // the first value free for a protocol's states
)

// Station is the protocol-independent half of an 802.11-family node:
// queue, DCF contention, NAV, statistics, the one-slot SIFS response and
// upper-layer delivery. A protocol embeds it, calls Init from its
// constructor, and keeps only its own exchange: states, frames, timers
// and per-sender receiver state. The embedding type supplies
// OnFrameReceived, OnTxDone, Send (admission, then its own trySend) and
// Liveness; the station supplies the rest of mac.MAC, phy.Handler and
// the auditor's reporters. The station is the sim.Caller of its own
// deferred response, so a protocol's Call sees only its own events.
type Station struct {
	Eng    *sim.Engine
	Radio  *phy.Radio
	Cfg    phy.Config
	Frames *frame.Pool
	Aud    *audit.Auditor
	Queue  *mac.Queue
	DCF    *DCF

	// St is the exchange state; see State.
	St State

	// Deferred counts scheduled exchange steps (SIFS gaps, the pending
	// response) not yet fired, so the liveness audit sees them.
	Deferred int

	limits mac.Limits
	upper  mac.UpperLayer
	nav    *NAV
	addr   frame.Addr
	stats  mac.Stats
	// resp is the acquired response awaiting its SIFS-deferred
	// transmission (Respond, Call).
	resp frame.Frame
	// lastSeq is the receiver-side dedup: the last data seq delivered
	// upward per sender (Deliver), made on first use.
	lastSeq map[frame.Addr]uint16
}

// Init wires the station of node h, which becomes radio's PHY handler;
// win runs when the DCF grants a transmission opportunity.
func (s *Station) Init(h phy.Handler, radio *phy.Radio, cfg phy.Config, eng *sim.Engine, limits mac.Limits, win func()) {
	s.Eng, s.Radio, s.Cfg, s.limits = eng, radio, cfg, limits
	s.Frames = radio.Frames()
	s.Queue = mac.NewQueue(limits.QueueCap)
	s.addr = frame.AddrFromID(radio.ID())
	s.nav = NewNAV(eng, func() { s.DCF.ChannelMaybeIdle() })
	s.DCF = NewDCF(eng, eng.Rand(), s.mediumIdle, win)
	radio.SetHandler(h)
}

// Addr implements mac.MAC.
func (s *Station) Addr() frame.Addr { return s.addr }

// Stats implements mac.MAC.
func (s *Station) Stats() *mac.Stats { return &s.stats }

// SetUpper implements mac.MAC.
func (s *Station) SetUpper(u mac.UpperLayer) { s.upper = u }

// SetAuditor attaches the protocol-invariant auditor; the node declares
// its DCF-won initiations to it, and whatever else its package doc says.
func (s *Station) SetAuditor(a *audit.Auditor) { s.Aud = a }

// AuditContention implements audit.ContentionReporter.
func (s *Station) AuditContention() (wants, counting, gated, idle bool) {
	armed, counting, difsPending := s.DCF.AuditState()
	return armed, counting, difsPending, s.mediumIdle()
}

// AuditNAVBusy implements audit.NAVReporter.
func (s *Station) AuditNAVBusy() bool { return s.nav.Busy() }

// Progress is the Liveness the DCF protocols share: state names the
// exchange state, inFlight reports a packet the node owns, and timer is
// the protocol timer that advances its exchange.
func (s *Station) Progress(state string, inFlight bool, timer *sim.Timer) mac.Liveness {
	return mac.Liveness{
		State: state,
		Idle:  s.St == Idle && !inFlight && s.Queue.Len() == 0,
		Pending: timer.Pending() || s.Radio.Transmitting() ||
			s.Radio.CarrierSensed() || s.DCF.Armed() || s.Deferred > 0,
	}
}

// OnCarrierChange implements phy.Handler.
func (s *Station) OnCarrierChange(busy bool) {
	if busy {
		s.DCF.ChannelBusy()
	} else {
		s.DCF.ChannelMaybeIdle()
	}
}

// OnToneChange implements phy.Handler: a DCF node acts on no tone edge
// (MX samples its NAK channel with tone meter readings instead).
func (s *Station) OnToneChange(phy.Tone, bool) {}

func (s *Station) mediumIdle() bool {
	return !s.Radio.DataChannelBusy() && !s.nav.Busy()
}

// startTx puts f on the air, suspending contention meanwhile, and
// returns its airtime.
func (s *Station) startTx(f frame.Frame) sim.Time {
	s.DCF.ChannelBusy()
	return s.Radio.StartTx(f)
}

// SendCtrl transmits a control frame, counting its airtime.
func (s *Station) SendCtrl(f frame.Frame) { s.stats.CtrlTxTime += s.startTx(f) }

// SendData transmits a reliable data frame, counting its airtime.
func (s *Station) SendData(f *frame.Data) { s.stats.DataTxTime += s.startTx(f) }

// CountCtrlRx counts the airtime of a control frame addressed to us.
func (s *Station) CountCtrlRx(f frame.Frame) {
	s.stats.CtrlRxTime += s.Cfg.TxDuration(f.WireSize())
}

// RespWait is how long a sender waits for a solicited control response
// of length bytes: SIFS, its airtime and respSlack.
func (s *Station) RespWait(length int) sim.Time {
	return phy.SIFS + s.Cfg.TxDuration(length) + respSlack
}

// Reserve honours an overheard reservation of d µs: the NAV covers it
// and contention stops.
func (s *Station) Reserve(d uint16) {
	s.nav.Set(sim.Time(d) * sim.Microsecond)
	s.DCF.ChannelBusy()
}

// Overhear honours the reservation of a frame addressed to someone else.
func (s *Station) Overhear(to frame.Addr, d uint16) {
	if to != s.addr {
		s.Reserve(d)
	}
}

// Data acquires a data frame from this node to dest.
func (s *Station) Data(dest frame.Addr, seq uint16, payload []byte) *frame.Data {
	f := s.Frames.Data()
	f.Receiver, f.Transmitter, f.Seq = dest, s.addr, seq
	f.Payload = append(f.Payload, payload...)
	return f
}

// StartUnreliable transmits req's one-shot data frame under seq: to its
// one destination, or broadcast when it names none.
func (s *Station) StartUnreliable(req *mac.SendRequest, seq uint16) {
	dest := frame.Broadcast
	if len(req.Dests) > 0 {
		dest = req.Dests[0]
	}
	s.startTx(s.Data(dest, seq, req.Payload))
}

// CTS acquires the CTS answering rts; its Duration carries what remains
// of the RTS reservation.
func (s *Station) CTS(rts *frame.RTS) *frame.CTS {
	f := s.Frames.CTS()
	f.Duration = SubDuration(rts.Duration, phy.SIFS+s.Cfg.TxDuration(frame.CTSLen))
	f.Receiver, f.Transmitter = rts.Transmitter, s.addr
	return f
}

// ACK acquires an ACK-sized frame from this node to dest.
func (s *Station) ACK(dest frame.Addr) *frame.ACK {
	f := s.Frames.ACK()
	f.Receiver, f.Transmitter = dest, s.addr
	return f
}

// Respond transmits f, an acquired CTS, ACK or NAK, one SIFS from now.
// The station holds one response at a time: a second solicitation within
// that SIFS (impossible on a collision-free channel, but an LBP NAK
// trigger can race a leader duty) is released and the first kept. A
// response that finds the node inside an exchange of its own, or
// transmitting, when its SIFS ends is released too: the solicitation is
// lost.
func (s *Station) Respond(f frame.Frame) {
	if s.resp != nil {
		frame.Release(f)
		return
	}
	s.Deferred++
	s.resp = f
	s.Eng.AfterCall(phy.SIFS, s, 0)
}

// Call implements sim.Caller: the SIFS-deferred response of Respond.
func (s *Station) Call(int32) {
	s.Deferred--
	f := s.resp
	s.resp = nil
	if s.St != Idle || s.Radio.Transmitting() {
		frame.Release(f)
		return
	}
	s.St = Responding
	s.SendCtrl(f)
}

// Retry counts a failed attempt of the packet in flight. Within the retry
// limit it counts a retransmission, doubles the contention window, draws
// a backoff and returns true: the caller then runs its trySend. Past the
// limit it returns false: the caller completes the packet as dropped.
func (s *Station) Retry(retries *int) bool {
	*retries++
	if *retries > s.limits.RetryLimit {
		return false
	}
	s.stats.Retransmissions++
	s.DCF.Backoff().Fail()
	s.DCF.Backoff().Draw()
	return true
}

// Complete ends the packet in flight: it counts res as sent, delivered or
// dropped, resets the contention window, draws the post-transmission
// backoff and hands res to the upper layer. The caller is back in Idle
// and runs its trySend afterwards: an upper-layer Send inside
// OnSendComplete may already have armed the DCF.
func (s *Station) Complete(res mac.TxResult) {
	switch {
	case res.Req.Service == mac.Unreliable:
		s.stats.UnreliableSent++
	case res.Dropped:
		s.stats.Drops++
	default:
		s.stats.ReliableDelivered++
	}
	s.DCF.Backoff().Reset()
	s.DCF.Backoff().Draw()
	if s.upper != nil {
		s.upper.OnSendComplete(res)
	}
}

// Deliver hands d's payload to the upper layer. With dedup set, a frame
// whose seq equals the last one deduplicated from the same sender is a
// retransmission (the sender missed our acknowledgement) and is dropped.
func (s *Station) Deliver(d *frame.Data, reliable, dedup bool, rxStart sim.Time) {
	if dedup {
		if last, ok := s.lastSeq[d.Transmitter]; ok && last == d.Seq {
			return
		}
		if s.lastSeq == nil {
			s.lastSeq = make(map[frame.Addr]uint16)
		}
		s.lastSeq[d.Transmitter] = d.Seq
	}
	if s.upper != nil {
		s.upper.OnDeliver(d.Payload, mac.RxInfo{
			From:     d.Transmitter,
			Reliable: reliable,
			Seq:      uint32(d.Seq),
			RxStart:  rxStart,
			RxEnd:    s.Eng.Now(),
		})
	}
}

// Micros converts d to a Duration field value in µs, saturating at the
// field's 16 bits.
func Micros(d sim.Time) uint16 {
	return uint16(min(int64(d/sim.Microsecond), 65535))
}

// SubDuration is what remains of a d µs reservation after sub.
func SubDuration(d uint16, sub sim.Time) uint16 {
	s := int64(sub / sim.Microsecond)
	if int64(d) <= s {
		return 0
	}
	return d - uint16(s)
}
