// Package mx implements a simplified 802.11MX-style protocol — the
// receiver-initiated busy-tone multicast MAC of Gupta, Shankar and
// Lalwani (ICC 2003) that §2 of the RMAC paper contrasts with RMAC:
// multicast reliability through *negative* feedback on a busy-tone
// channel. The exchange is
//
//	contention → ANN (group announce) → SIFS → DATA → NAK-tone window
//
// Receivers that decoded the announce arm themselves; if the data frame
// then arrives corrupted (or not at all), they raise the NAK tone during
// the window after the data. The sender retransmits while it senses NAK
// energy and declares success on a silent window.
//
// The protocol is deliberately receiver-initiated, reproducing the §2
// critique: "its sender cannot know whether full reliability is achieved,
// since a receiver will not enter the state to send a negative feedback
// if it fails to receive the initial transmission request". A receiver
// that misses the ANN stays silent, the sender believes the multicast
// succeeded, and the application-level delivery ratio exposes the gap —
// measured against RMAC's positive-feedback full reliability.
//
// Simplifications: the announce is an RTS-sized frame broadcast to the
// group (the real 802.11MX stays closer to stock 802.11); the NAK tone
// reuses the simulator's second tone channel; timing constants follow the
// RMAC paper's tone-detection arithmetic (λ, τ).
package mx

import (
	"fmt"

	"rmac/internal/audit"
	"rmac/internal/frame"
	"rmac/internal/mac"
	"rmac/internal/mac/csma"
	"rmac/internal/phy"
	"rmac/internal/sim"
)

// NAKWindow is the tone emission length and the sender's sensing window
// base (2τ+λ, long enough to detect with λ CCA under τ propagation).
const NAKWindow = phy.ToneWaitTimeout

// windowSlack pads the sender's sensing window for propagation and the
// missing-data deadline guard.
const windowSlack = 5 * sim.Microsecond

type state int

const (
	stIdle state = iota
	stTxAnn
	stTxData
	stWfNAK
	stTxUData
	stGap
)

var stateNames = [...]string{"IDLE", "TX_ANN", "TX_DATA", "WF_NAK", "TX_UDATA", "GAP"}

func (s state) String() string { return stateNames[s] }

type txContext struct {
	req     *mac.SendRequest
	retries int
	seq     uint16
}

// rxArm is the receiver-side armed expectation for one exchange. A node
// holds a single arm slot (a later announce supersedes an earlier one, as
// before), so arming allocates nothing: the slot and its deadline timer
// are reused across exchanges.
type rxArm struct {
	sender   frame.Addr
	deadline sim.Time // when the data frame must have been decoded
	got      bool
}

// Node is one MX instance bound to a radio.
type Node struct {
	eng    *sim.Engine
	radio  *phy.Radio
	cfg    phy.Config
	addr   frame.Addr
	limits mac.Limits
	upper  mac.UpperLayer

	st     state
	queue  *mac.Queue
	dcf    *csma.DCF
	nav    *csma.NAV
	stats  mac.Stats
	frames *frame.Pool
	aud    *audit.Auditor

	cur     *txContext
	ctxBuf  txContext // backs cur; one packet in flight at a time
	nakTmr  *sim.Timer
	nakMark sim.Time // ToneTime(ABT) when the NAK window opened

	arm    rxArm
	armed  bool
	armTmr *sim.Timer
	nakOn  bool
	peers  map[frame.Addr]*peerDedup
	seq    uint16

	// deferred counts scheduled exchange steps (SIFS gaps) not yet
	// fired, so the liveness audit sees them.
	deferred int
}

type peerDedup struct {
	delivered uint16
	deliverOK bool
}

var _ mac.MAC = (*Node)(nil)
var _ phy.Handler = (*Node)(nil)

// New creates an MX node on the given radio and installs itself as the
// radio's PHY handler.
func New(radio *phy.Radio, cfg phy.Config, eng *sim.Engine, limits mac.Limits) *Node {
	n := &Node{
		eng:    eng,
		radio:  radio,
		cfg:    cfg,
		addr:   frame.AddrFromID(radio.ID()),
		limits: limits,
		queue:  mac.NewQueue(limits.QueueCap),
		peers:  make(map[frame.Addr]*peerDedup),
		frames: radio.Frames(),
	}
	n.nav = csma.NewNAV(eng, func() { n.dcf.ChannelMaybeIdle() })
	n.dcf = csma.NewDCF(eng, eng.Rand(), n.mediumIdle, n.onWin)
	n.nakTmr = sim.NewTimer(eng, n.onNAKWindowEnd)
	n.armTmr = sim.NewTimer(eng, n.onArmDeadline)
	radio.SetHandler(n)
	return n
}

// Addr implements mac.MAC.
func (n *Node) Addr() frame.Addr { return n.addr }

// Stats implements mac.MAC.
func (n *Node) Stats() *mac.Stats { return &n.stats }

// SetUpper implements mac.MAC.
func (n *Node) SetUpper(u mac.UpperLayer) { n.upper = u }

// SetAuditor attaches the protocol-invariant auditor; the node declares
// DCF-won initiations and its NAK tone windows to it. MX declares no
// ReliableOutcome: silence-is-success is the sender's belief (§2), not an
// ACK-complete contract.
func (n *Node) SetAuditor(a *audit.Auditor) { n.aud = a }

// AuditContention implements audit.ContentionReporter.
func (n *Node) AuditContention() (wants, counting, gated, idle bool) {
	armed, counting, difsPending := n.dcf.AuditState()
	return armed, counting, difsPending, n.mediumIdle()
}

// AuditNAVBusy implements audit.NAVReporter.
func (n *Node) AuditNAVBusy() bool { return n.nav.Busy() }

// AuditPending implements audit.PendingReporter.
func (n *Node) AuditPending() (queued int, inFlight bool) {
	return n.queue.Len(), n.cur != nil
}

// Liveness implements mac.LivenessReporter.
func (n *Node) Liveness() mac.Liveness {
	return mac.Liveness{
		State: n.st.String(),
		Idle:  n.st == stIdle && n.cur == nil && n.queue.Len() == 0,
		Pending: n.nakTmr.Pending() || n.radio.Transmitting() ||
			n.radio.CarrierSensed() || n.dcf.Armed() || n.deferred > 0,
	}
}

// Send implements mac.MAC.
func (n *Node) Send(req *mac.SendRequest) bool {
	if req.Service == mac.Reliable && len(req.Dests) == 0 {
		panic("mx: Reliable Send needs at least one destination")
	}
	req.EnqueuedAt = n.eng.Now()
	var pushed bool
	if req.Urgent {
		pushed = n.queue.PushFront(req)
	} else {
		pushed = n.queue.Push(req)
	}
	if !pushed {
		n.stats.QueueDrops++
		return false
	}
	n.stats.Enqueued++
	n.trySend()
	return true
}

func (n *Node) mediumIdle() bool {
	return !n.radio.DataChannelBusy() && !n.nav.Busy()
}

func (n *Node) trySend() {
	if n.st != stIdle || n.dcf.Armed() {
		return
	}
	if n.cur == nil {
		req := n.queue.Pop()
		if req == nil {
			return
		}
		n.seq++
		n.ctxBuf = txContext{req: req, seq: n.seq}
		n.cur = &n.ctxBuf
		if req.Service == mac.Reliable {
			n.stats.ReliableToTransmit++
		}
	}
	n.dcf.Arm()
}

func (n *Node) startTx(f frame.Frame) sim.Time {
	n.dcf.ChannelBusy()
	return n.radio.StartTx(f)
}

func (n *Node) onWin() {
	if n.cur == nil || n.st != stIdle {
		return
	}
	n.aud.Initiation(n.radio.ID())
	if n.cur.req.Service == mac.Unreliable {
		dest := frame.Broadcast
		if len(n.cur.req.Dests) > 0 {
			dest = n.cur.req.Dests[0]
		}
		n.st = stTxUData
		f := n.frames.Data()
		f.Receiver, f.Transmitter, f.Seq = dest, n.addr, n.cur.seq
		f.Payload = append(f.Payload, n.cur.req.Payload...)
		n.startTx(f)
		return
	}
	// Announce: an RTS-sized frame broadcast to the group; Duration
	// covers SIFS + DATA + NAK window, letting armed receivers compute
	// the data deadline.
	n.st = stTxAnn
	dataDur := n.cfg.TxDuration(frame.Data80211Overhead + len(n.cur.req.Payload))
	tail := phy.SIFS + dataDur + NAKWindow
	f := n.frames.RTS()
	f.Duration = durationMicros(tail)
	f.Receiver = frame.Broadcast
	f.Transmitter = n.addr
	dur := n.startTx(f)
	n.stats.CtrlTxTime += dur
}

func durationMicros(d sim.Time) uint16 {
	us := int64(d / sim.Microsecond)
	if us > 65535 {
		us = 65535
	}
	return uint16(us)
}

// OnTxDone implements phy.Handler.
func (n *Node) OnTxDone(f frame.Frame) {
	n.dcf.ChannelMaybeIdle()
	switch n.st {
	case stTxAnn:
		n.afterSIFS()
	case stTxData:
		n.st = stWfNAK
		n.nakMark = n.radio.ToneTime(phy.ToneABT)
		n.nakTmr.Start(NAKWindow + windowSlack)
	case stTxUData:
		n.stats.UnreliableSent++
		req := n.cur.req
		n.cur = nil
		n.st = stIdle
		n.dcf.Backoff().Reset()
		n.dcf.Backoff().Draw()
		if n.upper != nil {
			n.upper.OnSendComplete(mac.TxResult{Req: req})
		}
		n.trySend()
	default:
		panic(fmt.Sprintf("mx: node %v OnTxDone in state %v", n.addr, n.st))
	}
}

func (n *Node) sendData() {
	n.st = stTxData
	f := n.frames.Data()
	f.Duration = durationMicros(NAKWindow)
	f.Receiver = frame.Broadcast
	f.Transmitter = n.addr
	f.Seq = n.cur.seq
	f.Payload = append(f.Payload, n.cur.req.Payload...)
	dur := n.startTx(f)
	n.stats.DataTxTime += dur
}

// Tags for the node's sim.Caller dispatch.
const (
	tagData   int32 = iota // SIFS-deferred data transmission (after ANN)
	tagNAKOff              // end of this node's NAK tone emission
)

// Call implements sim.Caller: the deferred continuations, scheduled
// closure-free through the engine's tagged-event path.
func (n *Node) Call(tag int32) {
	switch tag {
	case tagData:
		n.deferred--
		if n.cur == nil || n.radio.Transmitting() {
			return
		}
		n.sendData()
	case tagNAKOff:
		n.nakOn = false
		n.radio.SetTone(phy.ToneABT, false)
	}
}

func (n *Node) afterSIFS() {
	n.st = stGap
	n.deferred++
	n.eng.AfterCall(phy.SIFS, n, tagData)
}

// onNAKWindowEnd scores the window: tone sensed for λ means at least one
// receiver complained.
func (n *Node) onNAKWindowEnd() {
	n.stats.ABTCheckTime += NAKWindow + windowSlack
	naked := n.radio.ToneTime(phy.ToneABT)-n.nakMark >= phy.Lambda
	if !naked {
		n.completeReliable(false)
		return
	}
	n.st = stIdle
	n.cur.retries++
	if n.cur.retries > n.limits.RetryLimit {
		n.completeReliable(true)
		return
	}
	n.stats.Retransmissions++
	n.dcf.Backoff().Fail()
	n.dcf.Backoff().Draw()
	n.trySend()
}

func (n *Node) completeReliable(dropped bool) {
	n.st = stIdle
	ctx := n.cur
	n.cur = nil
	res := mac.TxResult{Req: ctx.req, Retries: ctx.retries}
	if dropped {
		n.stats.Drops++
		res.Dropped = true
		res.Failed = ctx.req.Dests // loaned; see mac.TxResult
	} else {
		n.stats.ReliableDelivered++
		// Silence is success — the sender's belief, not a guarantee.
		res.Delivered = ctx.req.Dests // loaned; see mac.TxResult
	}
	n.dcf.Backoff().Reset()
	n.dcf.Backoff().Draw()
	if n.upper != nil {
		n.upper.OnSendComplete(res)
	}
	n.trySend()
}

// --- Reception ---------------------------------------------------------------

// OnFrameReceived implements phy.Handler.
func (n *Node) OnFrameReceived(f frame.Frame, ok bool, rxStart sim.Time) {
	if !ok {
		// A corrupted frame while armed: complain right away if the
		// deadline has not passed (the corrupted frame was plausibly our
		// data).
		if n.armed && n.eng.Now() <= n.arm.deadline && !n.arm.got {
			n.raiseNAK()
		}
		return
	}
	switch g := f.(type) {
	case *frame.RTS: // group announce
		n.onAnnounce(g)
	case *frame.Data:
		n.onData(g, rxStart)
	}
}

func (n *Node) onAnnounce(g *frame.RTS) {
	if !g.Receiver.IsBroadcast() {
		return
	}
	n.stats.CtrlRxTime += n.cfg.TxDuration(g.WireSize())
	n.armTmr.Stop()
	n.arm = rxArm{
		sender:   g.Transmitter,
		deadline: n.eng.Now() + sim.Time(g.Duration)*sim.Microsecond - NAKWindow + 2*sim.Microsecond,
	}
	n.armed = true
	n.armTmr.StartAt(n.arm.deadline)
	// Group members also defer for the exchange duration.
	n.nav.Set(sim.Time(g.Duration) * sim.Microsecond)
	n.dcf.ChannelBusy()
}

func (n *Node) onData(d *frame.Data, rxStart sim.Time) {
	if d.Duration > 0 && d.Receiver.IsBroadcast() {
		// Reliable group data: group members always accept a correctly
		// decoded copy, armed or not (membership is by group address in
		// real 802.11MX).
		if n.armed && d.Transmitter == n.arm.sender {
			n.armTmr.Stop()
			n.armed = false
		}
		n.deliver(d, true, rxStart)
		return
	}
	if d.Duration > 0 {
		n.nav.Set(sim.Time(d.Duration) * sim.Microsecond)
		n.dcf.ChannelBusy()
		return
	}
	if d.Receiver == n.addr || d.Receiver.IsBroadcast() {
		n.deliver(d, false, rxStart)
	}
}

// raiseNAK emits the NAK busy tone for one window (idempotent while on).
func (n *Node) raiseNAK() {
	if n.nakOn {
		return
	}
	n.nakOn = true
	n.stats.ABTSent++ // NAK tone emissions share the tone counter
	n.aud.ExpectTone(n.radio.ID(), phy.ToneABT, n.eng.Now(), NAKWindow)
	n.radio.SetTone(phy.ToneABT, true)
	n.eng.AfterCall(NAKWindow, n, tagNAKOff)
}

// onArmDeadline fires at the armed exchange's data deadline: if the data
// frame never arrived, complain on the NAK channel.
func (n *Node) onArmDeadline() {
	if n.armed && !n.arm.got {
		n.raiseNAK()
	}
	n.armed = false
}

func (n *Node) deliver(d *frame.Data, reliable bool, rxStart sim.Time) {
	p := n.peers[d.Transmitter]
	if p == nil {
		p = &peerDedup{}
		n.peers[d.Transmitter] = p
	}
	if reliable {
		if p.deliverOK && p.delivered == d.Seq {
			return
		}
		p.deliverOK = true
		p.delivered = d.Seq
	}
	if n.upper != nil {
		n.upper.OnDeliver(d.Payload, mac.RxInfo{
			From:     d.Transmitter,
			Reliable: reliable,
			Seq:      uint32(d.Seq),
			RxStart:  rxStart,
			RxEnd:    n.eng.Now(),
		})
	}
}

// OnCarrierChange implements phy.Handler.
func (n *Node) OnCarrierChange(busy bool) {
	if busy {
		n.dcf.ChannelBusy()
	} else {
		n.dcf.ChannelMaybeIdle()
	}
}

// OnToneChange implements phy.Handler; the sender evaluates the NAK
// channel with windowed queries, so level transitions need no action.
func (n *Node) OnToneChange(phy.Tone, bool) {}
