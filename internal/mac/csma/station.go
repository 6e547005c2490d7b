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
// and three of its values: Idle, when the node runs no exchange of its
// own, Responding, while a SIFS response is on the air, and Gap, while
// the node waits out the SIFS before its own next frame (AfterSIFS). A
// protocol numbers its own states from FirstState on.
type State uint8

const (
	Idle       State = iota // no exchange of the node's own in progress
	Responding              // a SIFS response is on the air
	Gap                     // inside a SIFS gap of the node's own exchange
	FirstState              // the first value free for a protocol's states
)

// Station is the DCF half of an 802.11-family node, on top of the
// protocol-independent mac.Node: DCF contention, NAV, the one-slot SIFS
// response and the frame builders. A protocol embeds it, calls Init from
// its constructor, and keeps only its own exchange: states, frames,
// timers and per-sender receiver state. The embedding type supplies
// OnFrameReceived, OnTxDone and Liveness; the station and its mac.Node
// supply the rest of mac.MAC, phy.Handler and the auditor's reporters.
// The station is the sim.Caller of its own deferred response, so a
// protocol's Call sees only its own events.
type Station struct {
	mac.Node
	Aud *audit.Auditor
	DCF *DCF

	// St is the exchange state; see State.
	St State

	// Deferred counts scheduled exchange steps (SIFS gaps, the pending
	// response) not yet fired, so the liveness audit sees them.
	Deferred int

	nav *NAV
	// resp is the acquired response awaiting its SIFS-deferred
	// transmission (Respond, Call).
	resp frame.Frame
}

// Init wires the station of node p, which becomes radio's PHY handler
// (p's TrySend is the station's); win runs when the DCF grants a
// transmission opportunity.
func (s *Station) Init(p mac.Protocol, radio *phy.Radio, cfg phy.Config, eng *sim.Engine, limits mac.Limits, win func()) {
	s.nav = NewNAV(eng, func() { s.DCF.ChannelMaybeIdle() })
	s.DCF = NewDCF(eng, eng.Rand(), s.mediumIdle, win)
	s.Node.Init(p, radio, cfg, eng, limits, s.DCF.Backoff())
}

// TrySend implements mac.Protocol: it arms the DCF for the packet in
// flight, taking the head of the queue when the node holds none, unless
// the node is inside an exchange or already contending.
func (s *Station) TrySend() {
	if s.St != Idle || s.DCF.Armed() {
		return
	}
	if s.Req == nil && !s.Next() {
		return
	}
	s.DCF.Arm()
}

// Finish returns the node to Idle and completes the packet in flight
// (mac.Node.Complete).
func (s *Station) Finish(delivered, failed []frame.Addr, dropped bool) {
	s.St = Idle
	s.Complete(delivered, failed, dropped)
}

// FinishAll finishes the packet in flight with every destination
// delivered, or, when dropped, every destination failed; either list is
// the request's own Dests, loaned as mac.TxResult says.
func (s *Station) FinishAll(dropped bool) {
	if dropped {
		s.Finish(nil, s.Req.Dests, true)
		return
	}
	s.Finish(s.Req.Dests, nil, false)
}

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
// exchange state and timer is the protocol timer that advances it.
func (s *Station) Progress(state string, timer *sim.Timer) mac.Liveness {
	return mac.Liveness{
		State: state,
		Idle:  s.St == Idle && s.Req == nil && s.Queue.Len() == 0,
		Pending: timer.Pending() || s.Radio.Transmitting() ||
			s.Radio.CarrierSensed() || s.DCF.Armed() || s.Deferred > 0,
	}
}

// TxDone is the start every DCF OnTxDone shares: contention resumes,
// and a SIFS response that went out returns the node to Idle and to its
// queue. It reports whether the frame was that response; if not, the
// protocol handles the end of its own frame.
func (s *Station) TxDone() bool {
	s.DCF.ChannelMaybeIdle()
	if s.St != Responding {
		return false
	}
	s.St = Idle
	s.TrySend()
	return true
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
func (s *Station) SendCtrl(f frame.Frame) { s.Stats().CtrlTxTime += s.startTx(f) }

// SendData transmits a reliable data frame, counting its airtime.
func (s *Station) SendData(f *frame.Data) { s.Stats().DataTxTime += s.startTx(f) }

// CountCtrlRx counts the airtime of a control frame addressed to us.
func (s *Station) CountCtrlRx(f frame.Frame) {
	s.Stats().CtrlRxTime += s.Cfg.TxDuration(f.WireSize())
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
	if to != s.Addr() {
		s.Reserve(d)
	}
}

// Data acquires the data frame of the packet in flight, addressed to
// dest; its 802.11 sequence control holds the packet's Seq.
func (s *Station) Data(dest frame.Addr) *frame.Data {
	f := s.Frames.Data()
	f.Receiver, f.Transmitter, f.Seq = dest, s.Addr(), uint16(s.Seq)
	f.Payload = append(f.Payload, s.Req.Payload...)
	return f
}

// StartUnreliable transmits the one-shot data frame of the packet in
// flight: to its one destination, or broadcast when it names none.
func (s *Station) StartUnreliable() {
	dest := frame.Broadcast
	if len(s.Req.Dests) > 0 {
		dest = s.Req.Dests[0]
	}
	s.startTx(s.Data(dest))
}

// CTS acquires the CTS answering rts; its Duration carries what remains
// of the RTS reservation.
func (s *Station) CTS(rts *frame.RTS) *frame.CTS {
	f := s.Frames.CTS()
	f.Duration = SubDuration(rts.Duration, phy.SIFS+s.Cfg.TxDuration(frame.CTSLen))
	f.Receiver, f.Transmitter = rts.Transmitter, s.Addr()
	return f
}

// ACK acquires an ACK-sized frame from this node to dest.
func (s *Station) ACK(dest frame.Addr) *frame.ACK {
	f := s.Frames.ACK()
	f.Receiver, f.Transmitter = dest, s.Addr()
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

// AfterSIFS holds the node in Gap for one SIFS, so it neither responds
// to solicitations nor starts a new contention meanwhile, and then runs
// p.Call(tag). p is the protocol embedding the station; its Call sends
// the exchange's next frame if StepDue says so.
func (s *Station) AfterSIFS(p sim.Caller, tag int32) {
	s.St = Gap
	s.Deferred++
	s.Eng.AfterCall(phy.SIFS, p, tag)
}

// StepDue accounts for the end of a SIFS gap opened by AfterSIFS and
// reports whether the protocol sends its next frame now: not when the
// node no longer holds a packet or is transmitting.
func (s *Station) StepDue() bool {
	s.Deferred--
	return s.Req != nil && !s.Radio.Transmitting()
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
