// Package bmw implements the Broadcast Medium Window protocol of Tang and
// Gerla (MILCOM 2001) as described in §2 of the RMAC paper: reliable
// broadcast realised as a round-robin of RTS/CTS/DATA/ACK unicasts to
// each intended receiver, where every other receiver tries to overhear
// the DATA frame. A receiver that already overheard the current frame
// replies a CTS whose expected sequence number is past the sender's
// current frame, letting the sender skip the redundant DATA transmission.
//
// Each receiver visit involves its own contention phase — the cost that
// makes BMMM (and RMAC) cheaper per §2 — and a receiver that keeps
// missing frames stalls the round-robin, reproducing BMW's
// arbitrarily-long delays.
//
// It embeds the DCF station of package csma; the node declares its
// DCF-won initiations and reliable outcomes to the auditor.
package bmw

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
	stTxUData
)

var stateNames = [...]string{"IDLE", "TX_RESP", "GAP", "TX_RTS", "WF_CTS", "TX_DATA", "WF_ACK", "TX_UDATA"}

// Node is one BMW instance bound to a radio.
type Node struct {
	csma.Station

	timer *sim.Timer
	// idx is the round-robin's cursor into the packet's destinations:
	// Dests[:idx] have confirmed, Dests[idx] is the one being visited.
	idx int
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

// New creates a BMW node on the given radio and installs itself as the
// radio's PHY handler.
func New(radio *phy.Radio, cfg phy.Config, eng *sim.Engine, limits mac.Limits) *Node {
	n := &Node{}
	n.Init(n, radio, cfg, eng, limits, n.onWin)
	n.timer = sim.NewTimer(eng, n.onRespTimeout)
	return n
}

// Liveness implements mac.LivenessReporter.
func (n *Node) Liveness() mac.Liveness {
	return n.Progress(stateNames[n.St], n.timer)
}

// onWin: one contention phase won — visit the head receiver.
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
	n.St = stTxRTS
	// NAV covers the worst case: CTS + DATA + ACK.
	tail := phy.SIFS + n.Cfg.TxDuration(frame.CTSLen) +
		phy.SIFS + n.Cfg.TxDuration(frame.Data80211Overhead+len(n.Req.Payload)) +
		phy.SIFS + n.Cfg.TxDuration(frame.ACKLen)
	f := n.Frames.RTS()
	f.Duration = csma.Micros(tail)
	f.Receiver = n.Req.Dests[n.idx]
	f.Transmitter = n.Addr()
	n.SendCtrl(f)
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
	case stTxUData:
		n.Finish(nil, nil, false)
	default:
		panic(fmt.Sprintf("bmw: node %v OnTxDone in state %v", n.Addr(), stateNames[n.St]))
	}
}

func (n *Node) onRespTimeout() {
	switch n.St {
	case stWfCTS, stWfACK:
		n.visitFailed()
	}
}

// visitFailed: the current receiver did not respond; back off and retry
// it (round-robin stalls on the failing receiver, as BMW does).
func (n *Node) visitFailed() {
	n.St = csma.Idle
	if !n.Retry() {
		n.completeReliable(true)
	}
}

// visitDelivered: head receiver confirmed (by ACK or by an
// already-past-this-seq CTS); move to the next receiver with a fresh
// contention phase.
func (n *Node) visitDelivered() {
	n.idx++
	n.St = csma.Idle
	if n.idx >= len(n.Req.Dests) {
		n.completeReliable(false)
		return
	}
	n.Backoff.Reset()
	n.Backoff.Draw()
	n.TrySend()
}

func (n *Node) completeReliable(dropped bool) {
	dests, idx := n.Req.Dests, n.idx
	var failed []frame.Addr
	if dropped {
		failed = dests[idx:] // loaned; see mac.TxResult
	}
	n.Aud.ReliableOutcome(n.Radio.ID(), idx, len(dests), dropped)
	n.idx = 0
	n.Finish(dests[:idx], failed, dropped)
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
			cts := n.CTS(g)
			if seq, ok := n.LastSeq(g.Transmitter); ok {
				// Past the newest frame cached from this sender.
				cts.Expect = uint16(seq) + 1
			}
			n.Respond(cts)
			return
		}
		n.Reserve(g.Duration)
	case *frame.CTS:
		if n.St == stWfCTS && g.Receiver == n.Addr() {
			n.CountCtrlRx(g)
			n.timer.Stop()
			if g.Expect > uint16(n.Seq) {
				// Receiver already overheard this frame: skip DATA.
				n.visitDelivered()
				return
			}
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
			n.visitDelivered()
			return
		}
		n.Overhear(g.Receiver, g.Duration)
	}
}

func (n *Node) sendData() {
	n.St = stTxData
	f := n.Data(n.Req.Dests[n.idx])
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

// onData: reliable (Duration > 0) data frames are cached and delivered by
// the addressee and by overhearers (BMW's gain); unreliable frames go to
// their addressees.
func (n *Node) onData(d *frame.Data) {
	if d.Duration > 0 {
		n.Deliver(d.Transmitter, uint32(d.Seq), d.Payload, true, true)
		if d.Receiver == n.Addr() {
			n.Respond(n.ACK(d.Transmitter))
			return
		}
		n.Reserve(d.Duration)
		return
	}
	if d.Receiver == n.Addr() || d.Receiver.IsBroadcast() {
		n.Deliver(d.Transmitter, uint32(d.Seq), d.Payload, false, false)
	}
}
