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
	stGap // inside a SIFS gap of an ongoing exchange
)

var stateNames = [...]string{"IDLE", "TX_RESP", "TX_RTS", "WF_CTS", "TX_DATA", "TX_RAK", "WF_ACK", "TX_UDATA", "GAP"}

// txContext tracks one reliable packet across retransmission rounds.
type txContext struct {
	req       *mac.SendRequest
	remaining []frame.Addr // receivers still unacknowledged
	delivered []frame.Addr
	retries   int
	seq       uint16

	// Per-round state.
	ctsOK []bool
	ackOK []bool
	idx   int // receiver index within the current phase
}

// peerState is per-sender receiver bookkeeping.
type peerState struct {
	solicited bool   // an RTS from this sender addressed us
	haveSeq   uint16 // last data seq correctly received
	have      bool
}

// step identifies the deferred exchange step scheduled by afterSIFS,
// replacing the per-step closure with a tagged event on the node.
type step int8

const (
	stepNone step = iota
	stepRTS
	stepData
	stepRAK
)

// Node is one BMMM instance bound to a radio.
type Node struct {
	csma.Station

	cur   *txContext
	timer *sim.Timer // CTS/ACK response timeout
	peers map[frame.Addr]*peerState
	seq   uint16

	// ctxBuf backs cur (one exchange at a time); stillBuf/failedBuf are
	// scratch receiver lists reused across rounds.
	ctxBuf    txContext
	stillBuf  []frame.Addr
	failedBuf []frame.Addr

	// pendingStep carries the argument of the next tagged event: the
	// deferred sender-side step (exchange steps are strictly sequential).
	pendingStep step
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
	n := &Node{peers: make(map[frame.Addr]*peerState)}
	n.Init(n, radio, cfg, eng, limits, n.onWin)
	n.timer = sim.NewTimer(eng, n.onRespTimeout)
	return n
}

// AuditPending implements audit.PendingReporter.
func (n *Node) AuditPending() (queued int, inFlight bool) {
	return n.Queue.Len(), n.cur != nil
}

// Liveness implements mac.LivenessReporter.
func (n *Node) Liveness() mac.Liveness {
	return n.Progress(stateNames[n.St], n.cur != nil, n.timer)
}

// Send implements mac.MAC.
func (n *Node) Send(req *mac.SendRequest) bool {
	if !n.Queue.Admit(req, n.Eng.Now(), n.Stats()) {
		return false
	}
	n.trySend()
	return true
}

func (n *Node) trySend() {
	if n.St != csma.Idle || n.DCF.Armed() {
		return
	}
	if n.cur == nil {
		req := n.Queue.Pop()
		if req == nil {
			return
		}
		n.seq++
		ctx := &n.ctxBuf
		*ctx = txContext{
			req: req, seq: n.seq,
			remaining: ctx.remaining[:0],
			delivered: ctx.delivered[:0],
			ctsOK:     ctx.ctsOK[:0],
			ackOK:     ctx.ackOK[:0],
		}
		n.cur = ctx
		if req.Service == mac.Reliable {
			ctx.remaining = append(ctx.remaining, req.Dests...)
			n.Stats().ReliableToTransmit++
		}
	}
	n.DCF.Arm()
}

// onWin: the DCF granted a transmission opportunity.
func (n *Node) onWin() {
	if n.cur == nil || n.St != csma.Idle {
		return
	}
	n.Aud.Initiation(n.Radio.ID())
	if n.cur.req.Service == mac.Unreliable {
		n.St = stTxUData
		n.StartUnreliable(n.cur.req, n.cur.seq)
		return
	}
	// New round: solicit every remaining receiver.
	n.cur.ctsOK = n.cur.ctsOK[:0]
	n.cur.ackOK = n.cur.ackOK[:0]
	for range n.cur.remaining {
		n.cur.ctsOK = append(n.cur.ctsOK, false)
		n.cur.ackOK = append(n.cur.ackOK, false)
	}
	n.cur.idx = 0
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
	data := c.TxDuration(frame.Data80211Overhead + len(n.cur.req.Payload))
	var d sim.Time
	switch phase {
	case stTxRTS:
		pairsLeft := len(n.cur.remaining) - n.cur.idx - 1
		d = phy.SIFS + cts
		d += sim.Time(pairsLeft) * (phy.SIFS + rts + phy.SIFS + cts)
		d += phy.SIFS + data
		d += sim.Time(len(n.cur.remaining)) * (phy.SIFS + rak + phy.SIFS + ack)
	case stTxData:
		d = sim.Time(len(n.cur.remaining)) * (phy.SIFS + rak + phy.SIFS + ack)
	case stTxRAK:
		raksLeft := countTrue(n.cur.ctsOK[n.cur.idx+1:])
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
	f.Receiver = n.cur.remaining[n.cur.idx]
	f.Transmitter = n.Addr()
	n.SendCtrl(f)
}

func (n *Node) sendData() {
	n.St = stTxData
	f := n.Data(frame.Broadcast, n.cur.seq, n.cur.req.Payload)
	f.Duration = n.exchangeRemaining(stTxData)
	n.SendData(f)
}

func (n *Node) sendRAK() {
	n.St = stTxRAK
	f := n.Frames.RAK()
	f.Duration = n.exchangeRemaining(stTxRAK)
	f.Receiver = n.cur.remaining[n.cur.idx]
	f.Transmitter = n.Addr()
	f.Seq = n.cur.seq
	n.SendCtrl(f)
}

// OnTxDone implements phy.Handler.
func (n *Node) OnTxDone(f frame.Frame) {
	n.DCF.ChannelMaybeIdle()
	switch n.St {
	case stTxRTS:
		n.St = stWfCTS
		n.timer.Start(n.RespWait(frame.CTSLen))
	case stTxData:
		n.cur.idx = -1
		n.advanceRAK()
	case stTxRAK:
		n.St = stWfACK
		n.timer.Start(n.RespWait(frame.ACKLen))
	case stTxUData:
		n.finish(mac.TxResult{Req: n.cur.req})
	case csma.Responding:
		n.St = csma.Idle
		n.trySend()
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
	n.cur.ctsOK[n.cur.idx] = ok
	n.cur.idx++
	if n.cur.idx < len(n.cur.remaining) {
		n.afterSIFS(stepRTS)
		return
	}
	if countTrue(n.cur.ctsOK) == 0 {
		n.roundFailed()
		return
	}
	n.afterSIFS(stepData)
}

// advanceRAK advances idx to the next receiver that returned a CTS and
// sends its RAK; when exhausted the round is scored.
func (n *Node) advanceRAK() {
	i := n.cur.idx + 1
	for i < len(n.cur.remaining) && !n.cur.ctsOK[i] {
		i++
	}
	n.cur.idx = i
	if i >= len(n.cur.remaining) {
		n.scoreRound()
		return
	}
	n.afterSIFS(stepRAK)
}

func (n *Node) advanceACK(ok bool) {
	n.timer.Stop()
	n.cur.ackOK[n.cur.idx] = ok
	n.advanceRAK()
}

// Call implements sim.Caller: the SIFS-deferred sender-side step,
// scheduled closure-free through the engine's tagged-event path, with
// its argument in pendingStep.
func (n *Node) Call(int32) {
	n.Deferred--
	s := n.pendingStep
	n.pendingStep = stepNone
	if n.cur == nil || n.Radio.Transmitting() {
		return
	}
	switch s {
	case stepRTS:
		n.sendRTS()
	case stepData:
		n.sendData()
	case stepRAK:
		n.sendRAK()
	}
}

// afterSIFS schedules the next exchange step one SIFS later. The node
// stays in stGap so it neither responds to solicitations nor starts a new
// contention meanwhile.
func (n *Node) afterSIFS(s step) {
	n.St = stGap
	n.Deferred++
	n.pendingStep = s
	n.Eng.AfterCall(phy.SIFS, n, 0)
}

// scoreRound splits the remaining receivers by ACK outcome. still reuses
// the node's scratch buffer, swapping roles with cur.remaining.
func (n *Node) scoreRound() {
	still := n.stillBuf[:0]
	for i, a := range n.cur.remaining {
		if n.cur.ackOK[i] {
			n.cur.delivered = append(n.cur.delivered, a)
		} else {
			still = append(still, a)
		}
	}
	if len(still) == 0 {
		n.stillBuf = still
		n.completeReliable(false)
		return
	}
	n.stillBuf = n.cur.remaining
	n.cur.remaining = still
	n.roundFailed()
}

func (n *Node) roundFailed() {
	n.St = csma.Idle
	if !n.Retry(&n.cur.retries) {
		n.completeReliable(true)
		return
	}
	n.trySend()
}

func (n *Node) completeReliable(dropped bool) {
	ctx := n.cur
	res := mac.TxResult{Req: ctx.req, Delivered: ctx.delivered, Retries: ctx.retries, Dropped: dropped}
	if dropped {
		res.Failed = append(n.failedBuf[:0], ctx.remaining...)
		n.failedBuf = res.Failed
	}
	n.Aud.ReliableOutcome(n.Radio.ID(), len(ctx.delivered), len(ctx.req.Dests), dropped)
	n.finish(res)
}

// finish ends the packet in flight with res and moves on to the next.
func (n *Node) finish(res mac.TxResult) {
	n.St = csma.Idle
	n.cur = nil
	n.Complete(res)
	n.trySend()
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
		return
	}
	switch g := f.(type) {
	case *frame.RTS:
		if g.Receiver == n.Addr() {
			n.CountCtrlRx(g)
			n.peer(g.Transmitter).solicited = true
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
		n.onData(g, rxStart)
	case *frame.RAK:
		if g.Receiver == n.Addr() {
			n.CountCtrlRx(g)
			p := n.peer(g.Transmitter)
			if p.have && p.haveSeq == g.Seq {
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
func (n *Node) onData(d *frame.Data, rxStart sim.Time) {
	if d.Duration > 0 { // reliable multicast data
		p := n.peer(d.Transmitter)
		if p.solicited && (d.Receiver == n.Addr() || d.Receiver.IsBroadcast()) {
			p.have = true
			p.haveSeq = d.Seq
			n.Deliver(d, true, true, rxStart)
			return
		}
		n.Reserve(d.Duration)
		return
	}
	if d.Receiver == n.Addr() || d.Receiver.IsBroadcast() {
		n.Deliver(d, false, false, rxStart)
	}
}
