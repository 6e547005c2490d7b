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
	stGap
)

var stateNames = [...]string{"IDLE", "TX_RESP", "TX_RTS", "WF_CTS", "TX_DATA", "WF_ACK", "TX_UDATA", "GAP"}

type txContext struct {
	req       *mac.SendRequest
	remaining []frame.Addr
	delivered []frame.Addr
	idx       int // cursor into remaining: [idx:] is still outstanding
	retries   int
	seq       uint16
}

type peerState struct {
	lastSeq uint16 // highest data seq seen from this sender
	haveAny bool
}

// Node is one BMW instance bound to a radio.
type Node struct {
	csma.Station

	cur   *txContext
	timer *sim.Timer
	peers map[frame.Addr]*peerState
	seq   uint16

	// ctxBuf backs cur (one packet in flight at a time).
	ctxBuf txContext
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
		}
		n.cur = ctx
		if req.Service == mac.Reliable {
			ctx.remaining = append(ctx.remaining, req.Dests...)
			n.Stats().ReliableToTransmit++
		}
	}
	n.DCF.Arm()
}

// onWin: one contention phase won — visit the head receiver.
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
	n.St = stTxRTS
	// NAV covers the worst case: CTS + DATA + ACK.
	tail := phy.SIFS + n.Cfg.TxDuration(frame.CTSLen) +
		phy.SIFS + n.Cfg.TxDuration(frame.Data80211Overhead+len(n.cur.req.Payload)) +
		phy.SIFS + n.Cfg.TxDuration(frame.ACKLen)
	f := n.Frames.RTS()
	f.Duration = csma.Micros(tail)
	f.Receiver = n.cur.remaining[n.cur.idx]
	f.Transmitter = n.Addr()
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
		n.St = stWfACK
		n.timer.Start(n.RespWait(frame.ACKLen))
	case stTxUData:
		n.finish(mac.TxResult{Req: n.cur.req})
	case csma.Responding:
		n.St = csma.Idle
		n.trySend()
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
	if !n.Retry(&n.cur.retries) {
		n.completeReliable(true)
		return
	}
	n.trySend()
}

// visitDelivered: head receiver confirmed (by ACK or by an
// already-past-this-seq CTS); move to the next receiver with a fresh
// contention phase.
func (n *Node) visitDelivered() {
	n.cur.delivered = append(n.cur.delivered, n.cur.remaining[n.cur.idx])
	n.cur.idx++
	n.St = csma.Idle
	if n.cur.idx >= len(n.cur.remaining) {
		n.completeReliable(false)
		return
	}
	n.DCF.Backoff().Reset()
	n.DCF.Backoff().Draw()
	n.trySend()
}

func (n *Node) completeReliable(dropped bool) {
	ctx := n.cur
	res := mac.TxResult{Req: ctx.req, Delivered: ctx.delivered, Retries: ctx.retries, Dropped: dropped}
	if dropped {
		res.Failed = ctx.remaining[ctx.idx:] // loaned; see mac.TxResult
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
			p := n.peer(g.Transmitter)
			cts := n.CTS(g)
			if p.haveAny {
				cts.Expect = p.lastSeq + 1
			}
			n.Respond(cts)
			return
		}
		n.Reserve(g.Duration)
	case *frame.CTS:
		if n.St == stWfCTS && g.Receiver == n.Addr() {
			n.CountCtrlRx(g)
			n.timer.Stop()
			if g.Expect > n.cur.seq {
				// Receiver already overheard this frame: skip DATA.
				n.visitDelivered()
				return
			}
			n.afterSIFS()
			return
		}
		n.Overhear(g.Receiver, g.Duration)
	case *frame.Data:
		n.onData(g, rxStart)
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
	f := n.Data(n.cur.remaining[n.cur.idx], n.cur.seq, n.cur.req.Payload)
	f.Duration = csma.Micros(phy.SIFS + n.Cfg.TxDuration(frame.ACKLen))
	n.SendData(f)
}

// Call implements sim.Caller: the SIFS-deferred data transmission after
// a CTS, scheduled closure-free through the engine's tagged-event path.
func (n *Node) Call(int32) {
	n.Deferred--
	if n.cur == nil || n.Radio.Transmitting() {
		return
	}
	n.sendData()
}

func (n *Node) afterSIFS() {
	n.St = stGap
	n.Deferred++
	n.Eng.AfterCall(phy.SIFS, n, 0)
}

// onData: reliable (Duration > 0) data frames are cached and delivered by
// the addressee and by overhearers (BMW's gain); unreliable frames go to
// their addressees.
func (n *Node) onData(d *frame.Data, rxStart sim.Time) {
	if d.Duration > 0 {
		p := n.peer(d.Transmitter)
		if !p.haveAny || seqNewer(d.Seq, p.lastSeq) {
			p.haveAny = true
			p.lastSeq = d.Seq
		}
		n.Deliver(d, true, true, rxStart)
		if d.Receiver == n.Addr() {
			n.Respond(n.ACK(d.Transmitter))
			return
		}
		n.Reserve(d.Duration)
		return
	}
	if d.Receiver == n.Addr() || d.Receiver.IsBroadcast() {
		n.Deliver(d, false, false, rxStart)
	}
}

// seqNewer compares 16-bit sequence numbers with wraparound.
func seqNewer(a, b uint16) bool { return int16(a-b) > 0 }
