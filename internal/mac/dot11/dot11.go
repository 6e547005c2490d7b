// Package dot11 implements plain IEEE 802.11 DCF as the paper's §1
// characterises it: "IEEE 802.11 ... only supports reliability for
// unicast with the RTS/CTS/DATA/ACK scheme; and for multicast or
// broadcast, it simply transmits the data frames once without any
// recovery mechanism."
//
// Reliable Send with one destination runs the full RTS/CTS/DATA/ACK
// exchange with retransmissions; Reliable Send with several destinations
// degrades — exactly as the standard does — to a single unacknowledged
// broadcast data frame (TxResult reports Delivered for what the protocol
// *attempted*; the application-level delivery ratio shows the loss the
// paper's introduction motivates RMAC with). The Unreliable service is
// the same single broadcast.
//
// It embeds the DCF station of package csma. The node declares its
// DCF-won initiations and its unicast reliable outcomes to the auditor.
// The one-shot reliable broadcast is not declared: it completes on
// attempt by design (§1), so there is no ACK-complete contract to check.
package dot11

import (
	"fmt"

	"rmac/internal/audit"
	"rmac/internal/frame"
	"rmac/internal/mac"
	"rmac/internal/mac/csma"
	"rmac/internal/phy"
	"rmac/internal/sim"
)

const (
	stTxRTS = csma.FirstState + iota
	stWfCTS
	stTxData
	stWfACK
	stTxBcast
)

var stateNames = [...]string{"IDLE", "TX_RESP", "GAP", "TX_RTS", "WF_CTS", "TX_DATA", "WF_ACK", "TX_BCAST"}

// Node is one 802.11 DCF instance bound to a radio.
type Node struct {
	csma.Station

	timer *sim.Timer
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

// New creates an 802.11 node on the given radio and installs itself as
// the radio's PHY handler.
func New(radio *phy.Radio, cfg phy.Config, eng *sim.Engine, limits mac.Limits) *Node {
	n := &Node{}
	n.Init(n, radio, cfg, eng, limits, n.onWin)
	n.timer = sim.NewTimer(eng, n.onTimeout)
	return n
}

// Liveness implements mac.LivenessReporter.
func (n *Node) Liveness() mac.Liveness {
	return n.Progress(stateNames[n.St], n.timer)
}

func (n *Node) onWin() {
	req := n.Req
	if req == nil || n.St != csma.Idle {
		return
	}
	n.Aud.Initiation(n.Radio.ID())
	if req.Service == mac.Reliable && len(req.Dests) == 1 && !req.Dests[0].IsBroadcast() {
		n.St = stTxRTS
		tail := phy.SIFS + n.Cfg.TxDuration(frame.CTSLen) +
			phy.SIFS + n.Cfg.TxDuration(frame.Data80211Overhead+len(req.Payload)) +
			phy.SIFS + n.Cfg.TxDuration(frame.ACKLen)
		f := n.Frames.RTS()
		f.Duration = csma.Micros(tail)
		f.Receiver = req.Dests[0]
		f.Transmitter = n.Addr()
		n.SendCtrl(f)
		return
	}
	// Multicast/broadcast (reliable requested or not): one transmission,
	// no recovery — the 802.11 behaviour §1 describes.
	n.St = stTxBcast
	if req.Service == mac.Unreliable {
		n.StartUnreliable()
		return
	}
	n.SendData(n.Data(frame.Broadcast))
}

// OnTxDone implements phy.Handler.
func (n *Node) OnTxDone(f frame.Frame) {
	if n.TxDone() {
		return
	}
	switch n.St {
	case stTxRTS:
		n.St = stWfCTS
		n.timer.Start(n.RespWait(frame.CTSLen))
	case stTxData:
		n.St = stWfACK
		n.timer.Start(n.RespWait(frame.ACKLen))
	case stTxBcast:
		// Best effort: the sender has no way to learn the outcome of a
		// reliable multicast; report the attempt.
		n.FinishAll(false)
	default:
		panic(fmt.Sprintf("dot11: node %v OnTxDone in state %v", n.Addr(), stateNames[n.St]))
	}
}

func (n *Node) onTimeout() {
	switch n.St {
	case stWfCTS, stWfACK:
		n.St = csma.Idle
		if !n.Retry() {
			n.completeUnicast(true)
		}
	}
}

func (n *Node) sendData() {
	n.St = stTxData
	f := n.Data(n.Req.Dests[0])
	f.Duration = csma.Micros(phy.SIFS + n.Cfg.TxDuration(frame.ACKLen))
	n.SendData(f)
}

// Call implements sim.Caller: the data frame, one SIFS after the CTS
// (AfterSIFS).
func (n *Node) Call(int32) {
	if n.StepDue() {
		n.sendData()
	}
}

func (n *Node) completeUnicast(dropped bool) {
	acked := 1
	if dropped {
		acked = 0
	}
	n.Aud.ReliableOutcome(n.Radio.ID(), acked, 1, dropped)
	n.FinishAll(dropped)
}

// --- Reception ---------------------------------------------------------------

// OnFrameReceived implements phy.Handler.
func (n *Node) OnFrameReceived(f frame.Frame, ok bool, _ sim.Time) {
	if !ok {
		return
	}
	switch g := f.(type) {
	case *frame.RTS:
		if g.Receiver == n.Addr() {
			n.CountCtrlRx(g)
			n.Respond(n.CTS(g))
			return
		}
		n.Reserve(g.Duration)
	case *frame.CTS:
		if n.St == stWfCTS && g.Receiver == n.Addr() {
			n.CountCtrlRx(g)
			n.timer.Stop()
			n.AfterSIFS(n, 0)
			return
		}
		n.Overhear(g.Receiver, g.Duration)
	case *frame.Data:
		n.onData(g)
	case *frame.ACK:
		if n.St == stWfACK && g.Receiver == n.Addr() {
			n.CountCtrlRx(g)
			n.timer.Stop()
			n.completeUnicast(false)
			return
		}
		n.Overhear(g.Receiver, g.Duration)
	}
}

// onData delivers every data frame addressed to us or broadcast, once per
// (sender, seq): unlike the multicast baselines, 802.11 deduplicates its
// one-shot frames too.
func (n *Node) onData(d *frame.Data) {
	if d.Receiver == n.Addr() && d.Duration > 0 {
		// Unicast data under reservation: deliver and ACK.
		n.Deliver(d.Transmitter, uint32(d.Seq), d.Payload, true, true)
		n.Respond(n.ACK(d.Transmitter))
		return
	}
	if d.Receiver == n.Addr() || d.Receiver.IsBroadcast() {
		// One-shot multicast/broadcast data (no reservation tail): the
		// upper layer treats it as best-effort.
		n.Deliver(d.Transmitter, uint32(d.Seq), d.Payload, false, true)
		return
	}
	if d.Duration > 0 {
		n.Reserve(d.Duration)
	}
}
