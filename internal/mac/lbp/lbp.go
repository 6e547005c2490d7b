// Package lbp implements the Leader Based Protocol of Kuri and Kasera
// (Wireless Networks 2001) as described in §2 of the RMAC paper: one
// receiver — the leader — answers CTS and ACK on behalf of the multicast
// group, so the sender never suffers feedback collision; non-leader
// receivers that detect a corrupted data frame transmit a NAK timed to
// collide with (garble) the leader's ACK, forcing a retransmission.
//
// Simplifications, documented per DESIGN.md:
//
//   - The leader is the first address of the destination list (the paper
//     itself notes that "selecting and maintaining a leader ... are not
//     easy tasks"; we sidestep election).
//   - Group membership for one exchange is learned by overhearing the
//     sender's RTS (real LBP uses a multicast group address). A receiver
//     that misses the RTS neither receives nor complains — precisely the
//     receiver-initiated reliability gap §2 attributes to negative
//     feedback schemes, which this implementation makes measurable.
//   - NCTS (leader busy) is modelled as a missing CTS.
//
// A successful exchange therefore only proves the leader received the
// data; TxResult.Delivered reports the sender's *belief* (all receivers)
// and the application-level delivery ratio exposes the true gap.
//
// It embeds the DCF station of package csma. The node declares its
// DCF-won initiations to the auditor but no ReliableOutcome: a clean
// leader ACK proves only the leader's reception, so the sender's "all
// delivered" belief is protocol semantics, not an ACK-complete contract
// the auditor could hold it to.
package lbp

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

// peerState tracks this node's receiver-side relationship with a sender.
type peerState struct {
	// expecting is set when we overhear an RTS from the sender whose
	// exchange includes us (leader or not); it arms NAK generation until
	// armedUntil (one exchange worth of time).
	expecting  bool
	armedUntil sim.Time
	leader     bool
}

// Node is one LBP instance bound to a radio.
type Node struct {
	csma.Station

	timer *sim.Timer
	peers map[frame.Addr]*peerState
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

// New creates an LBP node on the given radio and installs itself as the
// radio's PHY handler.
func New(radio *phy.Radio, cfg phy.Config, eng *sim.Engine, limits mac.Limits) *Node {
	n := &Node{peers: make(map[frame.Addr]*peerState)}
	n.Init(n, radio, cfg, eng, limits, n.onWin)
	n.timer = sim.NewTimer(eng, n.onTimeout)
	return n
}

// Liveness implements mac.LivenessReporter.
func (n *Node) Liveness() mac.Liveness {
	return n.Progress(stateNames[n.St], n.timer)
}

func (n *Node) leader() frame.Addr { return n.Req.Dests[0] }

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
	c := n.Cfg
	tail := phy.SIFS + c.TxDuration(frame.CTSLen) +
		phy.SIFS + c.TxDuration(frame.Data80211Overhead+len(n.Req.Payload)) +
		phy.SIFS + c.TxDuration(frame.ACKLen)
	f := n.Frames.RTS()
	f.Duration = csma.Micros(tail)
	f.Receiver = n.leader()
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
		panic(fmt.Sprintf("lbp: node %v OnTxDone in state %v", n.Addr(), stateNames[n.St]))
	}
}

func (n *Node) onTimeout() {
	switch n.St {
	case stWfCTS, stWfACK:
		// Missing CTS (or NCTS in real LBP), or ACK garbled by NAKs /
		// lost: retransmission round.
		n.St = csma.Idle
		if !n.Retry() {
			n.FinishAll(true)
		}
	}
}

func (n *Node) sendData() {
	n.St = stTxData
	f := n.Data(frame.Broadcast)
	f.Duration = csma.Micros(phy.SIFS + n.Cfg.TxDuration(frame.ACKLen))
	n.SendData(f)
}

// Call implements sim.Caller: the data frame, one SIFS after the
// leader's CTS (AfterSIFS).
func (n *Node) Call(int32) {
	if n.StepDue() {
		n.sendData()
	}
}

// --- Reception ---------------------------------------------------------------

func (n *Node) peer(a frame.Addr) *peerState {
	p := n.peers[a]
	if p == nil {
		p = &peerState{}
		n.peers[a] = p
	}
	return p
}

// OnFrameReceived implements phy.Handler.
func (n *Node) OnFrameReceived(f frame.Frame, ok bool, rxStart sim.Time) {
	if !ok {
		// LBP receivers NAK on corrupted *data* frames (Kuri & Kasera).
		// A corrupted reception shorter than any data frame is a control
		// frame or fragment from someone else's exchange; NAKing those
		// would garble unrelated ACKs across the neighbourhood.
		if n.Eng.Now()-rxStart >= n.Cfg.TxDuration(frame.Data80211Overhead) {
			n.onCorrupt()
		}
		return
	}
	switch g := f.(type) {
	case *frame.RTS:
		n.onRTS(g)
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
			// The sender's belief: a clean leader ACK means everyone
			// got it. Receivers that missed the RTS never complained —
			// the reliability gap of leader/negative-feedback schemes.
			// No ReliableOutcome is declared (see the package doc).
			n.FinishAll(false)
			return
		}
		n.Overhear(g.Receiver, g.Duration)
	}
}

// onRTS arms the receiver side. The RTS names the leader; every other
// group member learns of the exchange by overhearing it (see the package
// comment for the membership simplification: any node overhearing the
// RTS from its current senders arms expectation — harmless for
// non-members, who simply never receive matching data).
func (n *Node) onRTS(g *frame.RTS) {
	p := n.peer(g.Transmitter)
	p.expecting = true
	p.armedUntil = n.Eng.Now() + sim.Time(g.Duration)*sim.Microsecond + sim.Millisecond
	p.leader = g.Receiver == n.Addr()
	if p.leader {
		n.CountCtrlRx(g)
		n.Respond(n.CTS(g))
		return
	}
	// Third parties still honour the NAV; group members do too while the
	// exchange lasts.
	n.Reserve(g.Duration)
}

// onData delivers reliable data to expecting receivers; the leader ACKs.
func (n *Node) onData(d *frame.Data) {
	if d.Duration > 0 {
		p := n.peer(d.Transmitter)
		if p.expecting && n.Eng.Now() < p.armedUntil && (d.Receiver == n.Addr() || d.Receiver.IsBroadcast()) {
			n.Deliver(d.Transmitter, uint32(d.Seq), d.Payload, true, true)
			if p.leader {
				n.Respond(n.ACK(d.Transmitter))
			}
			return
		}
		n.Reserve(d.Duration)
		return
	}
	if d.Receiver == n.Addr() || d.Receiver.IsBroadcast() {
		n.Deliver(d.Transmitter, uint32(d.Seq), d.Payload, false, false)
	}
}

// onCorrupt implements LBP's negative acknowledgment: an expecting
// non-leader that sees a corrupted frame during an armed exchange
// transmits a NAK in the ACK slot, garbling the leader's ACK at the
// sender and forcing a retransmission. (We cannot know the corrupted
// frame's sender; LBP receivers can't either — they NAK on any CRC
// failure while armed.)
func (n *Node) onCorrupt() {
	armed := false
	now := n.Eng.Now()
	for _, p := range n.peers {
		if p.expecting && !p.leader && now < p.armedUntil {
			armed = true
			break
		}
	}
	if !armed || n.St != csma.Idle {
		return
	}
	// NAK is an ACK-sized control frame (the paper sizes NAK like ACK),
	// broadcast so it garbles the leader's ACK at the sender.
	n.Respond(n.ACK(frame.Broadcast))
}
