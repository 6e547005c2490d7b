// Package bmmm implements the Batch Mode Multicast MAC protocol of Sun,
// Huang, Arora and Lai (ICPP 2002) as described in §2 of the RMAC paper:
// an IEEE 802.11 extension that reliably multicasts one data frame to n
// receivers using n RTS/CTS pairs to reserve the channel, a single DATA
// transmission, and n RAK (Request-for-ACK)/ACK pairs to collect ordered
// feedback — 2n pairs of control frames per data frame, costing 632 n µs
// of control airtime at 802.11b rates.
//
// It embeds the DCF station of package csma (contention, NAV virtual
// carrier sense, SIFS responses, delivery); the node declares its DCF-won
// initiations and reliable outcomes to the auditor. Its Unreliable
// service is plain 802.11 broadcast.
//
// Two simulator liberties, both invisible on the wire: the RAK a sender
// emits carries the data sequence number in the struct (real BMMM
// receivers bind RAKs to the exchange by timing), and group membership of
// the broadcast-addressed DATA frame is checked against the RTS
// solicitation state rather than a multicast group address.
package bmmm

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
	stTxRAK
	stWfACK
	stTxUData
)

var stateNames = [...]string{"IDLE", "TX_RESP", "GAP", "TX_RTS", "WF_CTS", "TX_DATA", "TX_RAK", "WF_ACK", "TX_UDATA"}

// The sender's SIFS-deferred exchange steps: the tags of the node's
// sim.Caller dispatch, scheduled by the station's AfterSIFS.
const (
	stepRTS int32 = iota
	stepData
	stepRAK
)

// Node is one BMMM instance bound to a radio.
type Node struct {
	csma.Station

	timer *sim.Timer // CTS/ACK response timeout
	// solicited marks the senders whose RTS has addressed this node.
	solicited map[frame.Addr]bool

	// The reliable packet in flight, across retransmission rounds:
	// receivers still unacknowledged and those acknowledged so far.
	// stillBuf and failedBuf are scratch receiver lists reused across
	// rounds.
	remaining []frame.Addr
	delivered []frame.Addr
	stillBuf  []frame.Addr
	failedBuf []frame.Addr

	// Per-round state: CTS and ACK outcomes per remaining receiver, and
	// the receiver index within the current phase.
	ctsOK []bool
	ackOK []bool
	idx   int
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

// New creates a BMMM node on the given radio and installs itself as the
// radio's PHY handler.
func New(radio *phy.Radio, cfg phy.Config, eng *sim.Engine, limits mac.Limits) *Node {
	n := &Node{solicited: make(map[frame.Addr]bool)}
	n.Init(n, radio, cfg, eng, limits, n.onWin)
	n.timer = sim.NewTimer(eng, n.onRespTimeout)
	return n
}

// Liveness implements mac.LivenessReporter.
func (n *Node) Liveness() mac.Liveness {
	return n.Progress(stateNames[n.St], n.timer)
}

// onWin: the DCF granted a transmission opportunity.
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
	if n.Retries == 0 {
		// The packet's first round: every destination is outstanding.
		n.remaining = append(n.remaining[:0], n.Req.Dests...)
		n.delivered = n.delivered[:0]
	}
	// New round: solicit every remaining receiver.
	n.ctsOK = n.ctsOK[:0]
	n.ackOK = n.ackOK[:0]
	for range n.remaining {
		n.ctsOK = append(n.ctsOK, false)
		n.ackOK = append(n.ackOK, false)
	}
	n.idx = 0
	n.sendRTS()
}

// exchangeRemaining computes the Duration (NAV) value covering the rest of
// the exchange as seen from just after the current frame: control pairs,
// the data frame and the RAK/ACK tail.
func (n *Node) exchangeRemaining(phase csma.State) uint16 {
	c := n.Cfg
	rts := c.TxDuration(frame.RTSLen)
	cts := c.TxDuration(frame.CTSLen)
	rak := c.TxDuration(frame.RAKLen)
	ack := c.TxDuration(frame.ACKLen)
	data := c.TxDuration(frame.Data80211Overhead + len(n.Req.Payload))
	var d sim.Time
	switch phase {
	case stTxRTS:
		pairsLeft := len(n.remaining) - n.idx - 1
		d = phy.SIFS + cts
		d += sim.Time(pairsLeft) * (phy.SIFS + rts + phy.SIFS + cts)
		d += phy.SIFS + data
		d += sim.Time(len(n.remaining)) * (phy.SIFS + rak + phy.SIFS + ack)
	case stTxData:
		d = sim.Time(len(n.remaining)) * (phy.SIFS + rak + phy.SIFS + ack)
	case stTxRAK:
		raksLeft := countTrue(n.ctsOK[n.idx+1:])
		d = phy.SIFS + ack
		d += sim.Time(raksLeft) * (phy.SIFS + rak + phy.SIFS + ack)
	}
	return csma.Micros(d)
}

func countTrue(b []bool) int {
	c := 0
	for _, v := range b {
		if v {
			c++
		}
	}
	return c
}

func (n *Node) sendRTS() {
	n.St = stTxRTS
	f := n.Frames.RTS()
	f.Duration = n.exchangeRemaining(stTxRTS)
	f.Receiver = n.remaining[n.idx]
	f.Transmitter = n.Addr()
	n.SendCtrl(f)
}

func (n *Node) sendData() {
	n.St = stTxData
	f := n.Data(frame.Broadcast)
	f.Duration = n.exchangeRemaining(stTxData)
	n.SendData(f)
}

func (n *Node) sendRAK() {
	n.St = stTxRAK
	f := n.Frames.RAK()
	f.Duration = n.exchangeRemaining(stTxRAK)
	f.Receiver = n.remaining[n.idx]
	f.Transmitter = n.Addr()
	f.Seq = uint16(n.Seq)
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
		n.idx = -1
		n.advanceRAK()
	case stTxRAK:
		n.St = stWfACK
		n.timer.Start(n.RespWait(frame.ACKLen))
	case stTxUData:
		n.Finish(nil, nil, false)
	default:
		panic(fmt.Sprintf("bmmm: node %v OnTxDone in state %v", n.Addr(), stateNames[n.St]))
	}
}

// onRespTimeout: the solicited CTS or ACK did not arrive.
func (n *Node) onRespTimeout() {
	switch n.St {
	case stWfCTS:
		n.advanceCTS(false)
	case stWfACK:
		n.advanceACK(false)
	}
}

// advanceCTS records the outcome for receiver idx and moves to the next
// RTS/CTS pair, the DATA frame, or a failed round.
func (n *Node) advanceCTS(ok bool) {
	n.timer.Stop()
	n.ctsOK[n.idx] = ok
	n.idx++
	if n.idx < len(n.remaining) {
		n.AfterSIFS(n, stepRTS)
		return
	}
	if countTrue(n.ctsOK) == 0 {
		n.roundFailed()
		return
	}
	n.AfterSIFS(n, stepData)
}

// advanceRAK advances idx to the next receiver that returned a CTS and
// sends its RAK; when exhausted the round is scored.
func (n *Node) advanceRAK() {
	i := n.idx + 1
	for i < len(n.remaining) && !n.ctsOK[i] {
		i++
	}
	n.idx = i
	if i >= len(n.remaining) {
		n.scoreRound()
		return
	}
	n.AfterSIFS(n, stepRAK)
}

func (n *Node) advanceACK(ok bool) {
	n.timer.Stop()
	n.ackOK[n.idx] = ok
	n.advanceRAK()
}

// Call implements sim.Caller: the exchange step AfterSIFS deferred.
func (n *Node) Call(step int32) {
	if !n.StepDue() {
		return
	}
	switch step {
	case stepRTS:
		n.sendRTS()
	case stepData:
		n.sendData()
	case stepRAK:
		n.sendRAK()
	}
}

// scoreRound splits the remaining receivers by ACK outcome. still reuses
// the node's scratch buffer, swapping roles with remaining.
func (n *Node) scoreRound() {
	still := n.stillBuf[:0]
	for i, a := range n.remaining {
		if n.ackOK[i] {
			n.delivered = append(n.delivered, a)
		} else {
			still = append(still, a)
		}
	}
	if len(still) == 0 {
		n.stillBuf = still
		n.completeReliable(false)
		return
	}
	n.stillBuf = n.remaining
	n.remaining = still
	n.roundFailed()
}

func (n *Node) roundFailed() {
	n.St = csma.Idle
	if !n.Retry() {
		n.completeReliable(true)
	}
}

func (n *Node) completeReliable(dropped bool) {
	var failed []frame.Addr
	if dropped {
		failed = append(n.failedBuf[:0], n.remaining...)
		n.failedBuf = failed
	}
	n.Aud.ReliableOutcome(n.Radio.ID(), len(n.delivered), len(n.Req.Dests), dropped)
	n.Finish(n.delivered, failed, dropped)
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
			n.solicited[g.Transmitter] = true
			n.Respond(n.CTS(g))
			return
		}
		n.Reserve(g.Duration)
	case *frame.CTS:
		if n.St == stWfCTS && g.Receiver == n.Addr() {
			n.CountCtrlRx(g)
			n.advanceCTS(true)
			return
		}
		n.Overhear(g.Receiver, g.Duration)
	case *frame.Data:
		n.onData(g)
	case *frame.RAK:
		if g.Receiver == n.Addr() {
			n.CountCtrlRx(g)
			// ACK only the data frame this node holds: the last one
			// delivered (or deduplicated) from the sender.
			if seq, ok := n.LastSeq(g.Transmitter); ok && seq == uint32(g.Seq) {
				ack := n.ACK(g.Transmitter)
				ack.Duration = csma.SubDuration(g.Duration, phy.SIFS+n.Cfg.TxDuration(frame.ACKLen))
				n.Respond(ack)
			}
			return
		}
		n.Reserve(g.Duration)
	case *frame.ACK:
		if n.St == stWfACK && g.Receiver == n.Addr() {
			n.CountCtrlRx(g)
			n.advanceACK(true)
			return
		}
		n.Overhear(g.Receiver, g.Duration)
	}
}

// onData handles a data frame. A reliable multicast data frame always
// carries a Duration reserving its RAK/ACK tail; an unreliable frame has
// Duration zero. Solicited receivers accept reliable data; addressees
// accept unreliable data.
func (n *Node) onData(d *frame.Data) {
	if d.Duration > 0 { // reliable multicast data
		if n.solicited[d.Transmitter] && (d.Receiver == n.Addr() || d.Receiver.IsBroadcast()) {
			n.Deliver(d.Transmitter, uint32(d.Seq), d.Payload, true, true)
			return
		}
		n.Reserve(d.Duration)
		return
	}
	if d.Receiver == n.Addr() || d.Receiver.IsBroadcast() {
		n.Deliver(d.Transmitter, uint32(d.Seq), d.Payload, false, false)
	}
}
