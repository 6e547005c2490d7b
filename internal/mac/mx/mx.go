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
//
// It embeds the DCF station of package csma. The node declares its
// DCF-won initiations and its NAK tone windows to the auditor, but no
// ReliableOutcome: silence-is-success is the sender's belief (§2), not an
// ACK-complete contract.
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

const (
	stTxAnn = csma.FirstState + iota
	stTxData
	stWfNAK
	stTxUData
)

var stateNames = [...]string{"IDLE", "TX_RESP", "GAP", "TX_ANN", "TX_DATA", "WF_NAK", "TX_UDATA"}

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
	csma.Station

	nakTmr  *sim.Timer
	nakMark sim.Time // ToneTime(ABT) when the NAK window opened

	arm    rxArm
	armed  bool
	armTmr *sim.Timer
	nakOn  bool
}

var (
	_ mac.MAC                                 = (*Node)(nil)
	_ phy.Handler                             = (*Node)(nil)
	_ mac.LivenessReporter                    = (*Node)(nil)
	_ audit.ContentionReporter                = (*Node)(nil)
	_ audit.NAVReporter                       = (*Node)(nil)
	_ audit.PendingReporter                   = (*Node)(nil)
	_ interface{ SetAuditor(*audit.Auditor) } = (*Node)(nil)
)

// New creates an MX node on the given radio and installs itself as the
// radio's PHY handler.
func New(radio *phy.Radio, cfg phy.Config, eng *sim.Engine, limits mac.Limits) *Node {
	n := &Node{}
	n.Init(n, radio, cfg, eng, limits, n.onWin)
	n.nakTmr = sim.NewTimer(eng, n.onNAKWindowEnd)
	n.armTmr = sim.NewTimer(eng, n.onArmDeadline)
	return n
}

// Liveness implements mac.LivenessReporter.
func (n *Node) Liveness() mac.Liveness {
	return n.Progress(stateNames[n.St], n.nakTmr)
}

func (n *Node) onWin() {
	if n.Req == nil || n.St != csma.Idle {
		return
	}
	n.Aud.Initiation(n.Radio.ID())
	if n.Req.Service == mac.Unreliable {
		n.St = stTxUData
		n.StartUnreliable()
		return
	}
	// Announce: an RTS-sized frame broadcast to the group; Duration
	// covers SIFS + DATA + NAK window, letting armed receivers compute
	// the data deadline.
	n.St = stTxAnn
	dataDur := n.Cfg.TxDuration(frame.Data80211Overhead + len(n.Req.Payload))
	f := n.Frames.RTS()
	f.Duration = csma.Micros(phy.SIFS + dataDur + NAKWindow)
	f.Receiver = frame.Broadcast
	f.Transmitter = n.Addr()
	n.SendCtrl(f)
}

// OnTxDone implements phy.Handler.
func (n *Node) OnTxDone(f frame.Frame) {
	if n.TxDone() {
		return
	}
	switch n.St {
	case stTxAnn:
		n.AfterSIFS(n, tagData)
	case stTxData:
		n.St = stWfNAK
		n.nakMark = n.Radio.ToneTime(phy.ToneABT)
		n.nakTmr.Start(NAKWindow + windowSlack)
	case stTxUData:
		n.Finish(nil, nil, false)
	default:
		panic(fmt.Sprintf("mx: node %v OnTxDone in state %v", n.Addr(), stateNames[n.St]))
	}
}

func (n *Node) sendData() {
	n.St = stTxData
	f := n.Data(frame.Broadcast)
	f.Duration = csma.Micros(NAKWindow)
	n.SendData(f)
}

// Tags for the node's sim.Caller dispatch.
const (
	tagData   int32 = iota // data frame, one SIFS after the announcement (AfterSIFS)
	tagNAKOff              // end of this node's NAK tone emission
)

// Call implements sim.Caller: the deferred continuations, scheduled
// closure-free through the engine's tagged-event path.
func (n *Node) Call(tag int32) {
	switch tag {
	case tagData:
		if n.StepDue() {
			n.sendData()
		}
	case tagNAKOff:
		n.nakOn = false
		n.Radio.SetTone(phy.ToneABT, false)
	}
}

// onNAKWindowEnd scores the window: tone sensed for λ means at least one
// receiver complained. Silence is success — the sender's belief, not a
// guarantee, so no ReliableOutcome is declared (see the package doc).
func (n *Node) onNAKWindowEnd() {
	n.Stats().ABTCheckTime += NAKWindow + windowSlack
	naked := n.Radio.ToneTime(phy.ToneABT)-n.nakMark >= phy.Lambda
	if !naked {
		n.FinishAll(false)
		return
	}
	n.St = csma.Idle
	if !n.Retry() {
		n.FinishAll(true)
	}
}

// --- Reception ---------------------------------------------------------------

// OnFrameReceived implements phy.Handler.
func (n *Node) OnFrameReceived(f frame.Frame, ok bool, _ sim.Time) {
	if !ok {
		// A corrupted frame while armed: complain right away if the
		// deadline has not passed (the corrupted frame was plausibly our
		// data).
		if n.armed && n.Eng.Now() <= n.arm.deadline && !n.arm.got {
			n.raiseNAK()
		}
		return
	}
	switch g := f.(type) {
	case *frame.RTS: // group announce
		n.onAnnounce(g)
	case *frame.Data:
		n.onData(g)
	}
}

func (n *Node) onAnnounce(g *frame.RTS) {
	if !g.Receiver.IsBroadcast() {
		return
	}
	n.CountCtrlRx(g)
	n.armTmr.Stop()
	n.arm = rxArm{
		sender:   g.Transmitter,
		deadline: n.Eng.Now() + sim.Time(g.Duration)*sim.Microsecond - NAKWindow + 2*sim.Microsecond,
	}
	n.armed = true
	n.armTmr.StartAt(n.arm.deadline)
	// Group members also defer for the exchange duration.
	n.Reserve(g.Duration)
}

func (n *Node) onData(d *frame.Data) {
	if d.Duration > 0 && d.Receiver.IsBroadcast() {
		// Reliable group data: group members always accept a correctly
		// decoded copy, armed or not (membership is by group address in
		// real 802.11MX).
		if n.armed && d.Transmitter == n.arm.sender {
			n.armTmr.Stop()
			n.armed = false
		}
		n.Deliver(d.Transmitter, uint32(d.Seq), d.Payload, true, true)
		return
	}
	if d.Duration > 0 {
		n.Reserve(d.Duration)
		return
	}
	if d.Receiver == n.Addr() || d.Receiver.IsBroadcast() {
		n.Deliver(d.Transmitter, uint32(d.Seq), d.Payload, false, false)
	}
}

// raiseNAK emits the NAK busy tone for one window (idempotent while on).
func (n *Node) raiseNAK() {
	if n.nakOn {
		return
	}
	n.nakOn = true
	n.Stats().ABTSent++ // NAK tone emissions share the tone counter
	n.Aud.ExpectTone(n.Radio.ID(), phy.ToneABT, n.Eng.Now(), NAKWindow)
	n.Radio.SetTone(phy.ToneABT, true)
	n.Eng.AfterCall(NAKWindow, n, tagNAKOff)
}

// onArmDeadline fires at the armed exchange's data deadline: if the data
// frame never arrived, complain on the NAK channel.
func (n *Node) onArmDeadline() {
	if n.armed && !n.arm.got {
		n.raiseNAK()
	}
	n.armed = false
}
