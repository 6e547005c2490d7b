// Package rmac implements the RMAC protocol of Si & Li (ICPP 2004): a
// comprehensive MAC for wireless ad hoc networks providing a Reliable Send
// service (unicast, multicast, broadcast) built on three mechanisms —
//
//   - a variable-length MRTS control frame that stipulates the order in
//     which receivers respond (§3.2),
//   - the Receiver Busy Tone (RBT), turned on by every receiver during
//     data reception to eliminate hidden-node collisions (§3.1–3.2), and
//   - the Acknowledgment Busy Tone (ABT), an ordered per-receiver tone
//     acknowledgment replacing ACK frames (§3.2),
//
// plus an Unreliable Send service that transmits once with no recovery
// (§3.3.3). The state machine follows the appendix (IDLE, BACKOFF,
// WF_RBT, WF_RDATA, WF_ABT, TX_MRTS, TX_RDATA, TX_UNRDATA; conditions
// C1–C19).
package rmac

import (
	"fmt"

	"rmac/internal/audit"
	"rmac/internal/frame"
	"rmac/internal/mac"
	"rmac/internal/phy"
	"rmac/internal/sim"
)

// State is the protocol state of a node (appendix, Fig 14).
type State int

const (
	// StateIdle covers both IDLE and suspended/pending BACKOFF: no
	// exchange in progress. Frame reception is accepted here only.
	StateIdle State = iota
	// StateTxMRTS: transmitting an MRTS (abortable on RBT, C11).
	StateTxMRTS
	// StateWfRBT: MRTS sent, sensing the RBT channel for 2τ+λ.
	StateWfRBT
	// StateTxRData: transmitting the reliable data frame.
	StateTxRData
	// StateWfABT: data sent, sensing n ordered ABT windows.
	StateWfABT
	// StateTxUnrData: transmitting an unreliable data frame (abortable).
	StateTxUnrData
	// StateWfRData: receiver role — RBT on, waiting for the data frame.
	StateWfRData
)

var stateNames = [...]string{"IDLE", "TX_MRTS", "WF_RBT", "TX_RDATA", "WF_ABT", "TX_UNRDATA", "WF_RDATA"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// GuardTime is the receive/transmit turnaround slack added to the
// receiver's T_wf_rdata deadline. The paper's timer arithmetic makes the
// data frame's first bit arrive exactly at T_wf_rdata expiry (sender waits
// the full 2τ+λ before transmitting; both intervals span 2τ+λ); real
// radios absorb this with turnaround tolerance, which this constant
// models.
const GuardTime = 2 * sim.Microsecond

// rxContext tracks the receiver role (WF_RDATA).
type rxContext struct {
	sender      frame.Addr
	index       int // position in the MRTS address sequence
	deadline    sim.Time
	dataStarted bool
}

// Options tweaks protocol behaviour for ablation studies.
type Options struct {
	// DisableRBTProtection stops the node from honouring foreign RBTs:
	// no backoff deference and no MRTS/unreliable-data abortion on a
	// sensed RBT. Receivers still raise their RBT so the sender
	// handshake (step 4 of §3.3.2) keeps working. This ablates the
	// hidden-node protection whose benefit §4.3.1 claims.
	DisableRBTProtection bool
}

// Node is one RMAC instance bound to a radio. The packet in flight, its
// sequence number and retry count live in the embedded mac.Node; the
// RetryLimit bounds the attempts of each §3.4 batch.
type Node struct {
	mac.Node
	opts  Options
	state State
	aud   *audit.Auditor

	// The reliable packet in flight: batches are the §3.4 splits of its
	// destination list and batchIdx cursors through them (a [1:] reslice
	// would bleed capacity off the reused backing array and defeat the
	// per-packet buffer reuse); remaining holds the unacked receivers of
	// the active batch and delivered the receivers acknowledged so far.
	batches   [][]frame.Addr
	batchIdx  int
	remaining []frame.Addr
	delivered []frame.Addr

	// rx is the receiver role (WF_RDATA), backed by rxBuf: a node runs
	// at most one receiver context at a time.
	rx    *rxContext
	rxBuf rxContext

	// Sender-side timers. rbtMark and abtMark are the radio's tone meter
	// readings (phy.Radio.ToneTime) when the open RBT or ABT window began.
	wfRBT    *sim.Timer
	wfABT    *sim.Timer
	rbtMark  sim.Time
	abtMark  sim.Time
	abtSlot  int
	abtAcked []bool

	// stillBuf/failedBuf are scratch receiver lists reused across
	// attempts (stillBuf swaps with remaining after each ABT round).
	stillBuf  []frame.Addr
	failedBuf []frame.Addr

	// Receiver-side timer.
	wfRData *sim.Timer
}

var _ mac.MAC = (*Node)(nil)
var _ phy.Handler = (*Node)(nil)

// New creates an RMAC node on the given radio and installs itself as the
// radio's PHY handler.
func New(radio *phy.Radio, cfg phy.Config, eng *sim.Engine, limits mac.Limits) *Node {
	return NewWithOptions(radio, cfg, eng, limits, Options{})
}

// NewWithOptions is New with ablation options.
func NewWithOptions(radio *phy.Radio, cfg phy.Config, eng *sim.Engine, limits mac.Limits, opts Options) *Node {
	n := &Node{opts: opts}
	n.Init(n, radio, cfg, eng, limits, mac.NewBackoff(eng, eng.Rand(), phy.SlotTime, n.channelsIdle, n.TrySend))
	n.wfRBT = sim.NewTimer(eng, n.onWfRBTExpire)
	n.wfABT = sim.NewTimer(eng, n.onABTWindow)
	n.wfRData = sim.NewTimer(eng, n.onWfRDataExpire)
	return n
}

// SetAuditor attaches the protocol-invariant auditor; the node declares
// its legal tone windows and reliable-send outcomes to it. A nil auditor
// (the default) costs a nil check per declaration.
func (n *Node) SetAuditor(a *audit.Auditor) { n.aud = a }

// AuditContention implements audit.ContentionReporter. The backoff is
// gated (not stuck) whenever the state machine or a protocol timer will
// advance the node regardless of the countdown.
func (n *Node) AuditContention() (wants, counting, gated, idle bool) {
	gated = n.state != StateIdle || n.wfRBT.Pending() || n.wfABT.Pending() || n.wfRData.Pending()
	return n.Backoff.Active(), n.Backoff.Counting(), gated, n.channelsIdle()
}

// State returns the node's current protocol state (for tests/tracing).
func (n *Node) State() State { return n.state }

// Liveness implements mac.LivenessReporter. Every non-idle state is
// advanced by exactly one of: the in-flight transmission (TX_* states,
// resolved by OnTxDone even if the radio crashed mid-frame), an armed
// protocol timer (WF_*), or a signal currently arriving (WF_RDATA with
// the T_wf_rdata timer cancelled after the data's first bit).
func (n *Node) Liveness() mac.Liveness {
	return mac.Liveness{
		State: n.state.String(),
		Idle:  n.state == StateIdle && n.Req == nil && n.Queue.Len() == 0,
		Pending: n.Radio.Transmitting() || n.Radio.CarrierSensed() ||
			n.wfRBT.Pending() || n.wfABT.Pending() || n.wfRData.Pending() ||
			n.Backoff.Counting() ||
			// A sensed foreign RBT suspends our backoff; its falling edge
			// is what resumes us, so it counts as a pending wake-up.
			n.Radio.ToneSensed(phy.ToneRBT),
	}
}

// channelsIdle is the §3.3.1 countdown condition: both the data channel
// and the RBT channel idle.
func (n *Node) channelsIdle() bool {
	if n.opts.DisableRBTProtection {
		return !n.Radio.DataChannelBusy()
	}
	return !n.Radio.DataChannelBusy() && !n.Radio.ToneSensed(phy.ToneRBT)
}

// TrySend implements mac.Protocol: it advances the transmission pipeline
// when the node is idle. It is also the backoff's fire callback.
func (n *Node) TrySend() {
	if n.state != StateIdle {
		return
	}
	if n.Backoff.Active() {
		n.Backoff.Resume()
		return
	}
	if n.Req == nil {
		if !n.Next() {
			return
		}
		n.split()
	}
	if !n.channelsIdle() {
		// Condition (1) of §3.3.1: packet pending, channel busy.
		n.Backoff.Draw()
		return
	}
	n.startAttempt()
}

// split lays out the batches of a new packet in flight: the §3.4
// refinement splits a destination list longer than the receiver limit
// into several Reliable Send invocations.
func (n *Node) split() {
	n.batches, n.batchIdx = n.batches[:0], 0
	n.remaining, n.delivered = n.remaining[:0], n.delivered[:0]
	if n.Req.Service == mac.Unreliable {
		return
	}
	dests := n.Req.Dests
	limit := n.Limits.MaxReceivers
	if limit <= 0 {
		limit = frame.MaxReceivers
	}
	for len(dests) > limit {
		n.batches = append(n.batches, dests[:limit])
		dests = dests[limit:]
	}
	n.batches = append(n.batches, dests)
	n.remaining = append(n.remaining, n.batches[0]...)
	n.batchIdx = 1
}

// startAttempt begins one transmission attempt for the head packet:
// C1/C6 (unreliable) or C10/C14 (reliable).
func (n *Node) startAttempt() {
	if n.Req.Service == mac.Unreliable {
		n.startUnreliable()
		return
	}
	n.startMRTS()
}

func (n *Node) startUnreliable() {
	dest := frame.Broadcast
	if len(n.Req.Dests) > 0 {
		dest = n.Req.Dests[0]
	}
	f := n.Frames.UData()
	f.Transmitter = n.Addr()
	f.Receiver = dest
	f.Seq = n.Seq
	f.Payload = append(f.Payload, n.Req.Payload...)
	n.state = StateTxUnrData
	n.Radio.StartTx(f)
}

func (n *Node) startMRTS() {
	m := n.Frames.MRTS()
	m.Transmitter = n.Addr()
	m.Receivers = append(m.Receivers, n.remaining...)
	st := n.Stats()
	st.MRTSSent++
	st.MRTSLens = append(st.MRTSLens, m.WireSize())
	n.state = StateTxMRTS
	st.CtrlTxTime += n.Radio.StartTx(m)
}

// OnTxDone implements phy.Handler (natural completion only; aborts are
// handled where they are triggered).
func (n *Node) OnTxDone(f frame.Frame) {
	switch n.state {
	case StateTxMRTS:
		// C17: MRTS complete -> WF_RBT, timer 2τ+λ.
		n.state = StateWfRBT
		n.rbtMark = n.Radio.ToneTime(phy.ToneRBT)
		n.wfRBT.Start(phy.ToneWaitTimeout)
	case StateTxRData:
		// C19: data complete -> WF_ABT, n cycles of 2τ+λ.
		n.state = StateWfABT
		n.abtMark = n.Radio.ToneTime(phy.ToneABT)
		n.abtSlot = 0
		n.abtAcked = n.abtAcked[:0]
		for range n.remaining {
			n.abtAcked = append(n.abtAcked, false)
		}
		n.wfABT.Start(phy.ABTDuration)
	case StateTxUnrData:
		// C5/C2: unreliable transmission done.
		n.state = StateIdle
		n.Complete(nil, nil, false)
	default:
		panic(fmt.Sprintf("rmac: node %v OnTxDone in state %v", n.Addr(), n.state))
	}
}

// onWfRBTExpire: step 4 of §3.3.2 — at T_wf_rbt expiry, transmit data if
// an RBT was detected during the timer period, otherwise back off and
// retry.
func (n *Node) onWfRBTExpire() {
	detected := n.Radio.ToneTime(phy.ToneRBT)-n.rbtMark >= phy.Lambda
	if !detected {
		n.attemptFailed()
		return
	}
	// Retransmissions and later §3.4 batches repeat the packet's Seq, so
	// receivers can recognise (and re-acknowledge without re-delivering)
	// a data frame whose ABT the sender missed.
	f := n.Frames.RData()
	f.Transmitter = n.Addr()
	f.Receiver = frame.Broadcast // delivery set governed by the MRTS
	f.Seq = n.Seq
	f.Payload = append(f.Payload, n.Req.Payload...)
	n.state = StateTxRData
	n.Stats().DataTxTime += n.Radio.StartTx(f)
}

// onABTWindow closes one ABT sensing window (step 6 of §3.3.2): window i
// spans the i-th l_abt after the data frame ended; receiver i acknowledged
// iff the ABT channel was sensed for at least λ within it. Window i closes
// now, and window i+1 opens now.
func (n *Node) onABTWindow() {
	i := n.abtSlot
	n.Stats().ABTCheckTime += phy.ABTDuration
	mark := n.Radio.ToneTime(phy.ToneABT)
	if mark-n.abtMark >= phy.Lambda {
		n.abtAcked[i] = true
	}
	n.abtMark = mark
	n.abtSlot++
	if n.abtSlot < len(n.remaining) {
		n.wfABT.Start(phy.ABTDuration)
		return
	}
	// All windows sensed: split acked / unacked. still reuses the node's
	// scratch buffer, which swaps roles with remaining below.
	still := n.stillBuf[:0]
	for j, a := range n.remaining {
		if n.abtAcked[j] {
			n.delivered = append(n.delivered, a)
		} else {
			still = append(still, a)
		}
	}
	if len(still) == 0 {
		n.stillBuf = still
		n.batchDone()
		return
	}
	n.stillBuf = n.remaining
	n.remaining = still
	n.attemptFailed()
}

// attemptFailed handles a failed attempt (no RBT, missing ABTs, or MRTS
// abortion): exponential backoff and retransmission, or, past the retry
// limit, the packet is dropped with every receiver not yet acknowledged.
func (n *Node) attemptFailed() {
	n.state = StateIdle
	if n.Retry() {
		return
	}
	failed := append(n.failedBuf[:0], n.remaining...)
	for _, b := range n.batches[n.batchIdx:] {
		failed = append(failed, b...)
	}
	n.failedBuf = failed
	n.aud.ReliableOutcome(n.Radio.ID(), len(n.delivered), len(n.Req.Dests), true)
	n.Complete(n.delivered, failed, true)
}

// batchDone advances past a fully-acknowledged batch: next §3.4 batch
// (separated by a backoff procedure, with a fresh retry count) or packet
// completion.
func (n *Node) batchDone() {
	n.state = StateIdle
	if n.batchIdx < len(n.batches) {
		n.remaining = append(n.remaining[:0], n.batches[n.batchIdx]...)
		n.batchIdx++
		n.Retries = 0
		n.Backoff.Reset()
		n.Backoff.Draw()
		n.TrySend()
		return
	}
	n.aud.ReliableOutcome(n.Radio.ID(), len(n.delivered), len(n.Req.Dests), false)
	n.Complete(n.delivered, nil, false)
}

// --- Receiver role ----------------------------------------------------------

// OnFrameReceived implements phy.Handler.
func (n *Node) OnFrameReceived(f frame.Frame, ok bool, _ sim.Time) {
	switch n.state {
	case StateIdle:
		if !ok {
			return // noise/collision; backoff already suspended via carrier
		}
		switch g := f.(type) {
		case *frame.MRTS:
			n.onMRTS(g)
		case *frame.UData:
			n.onUData(g)
		case *frame.RData:
			// Stray reliable data (e.g. our receiver role ended early
			// after a nearby abort): no RBT was held, so it arrived
			// unprotected. It is not acknowledged; the sender will
			// retransmit. Do not deliver to avoid duplicate-count
			// ambiguity at the MAC; the app-level dedup handles resends.
		}
	case StateWfRData:
		n.receiverFrameEnd(f, ok)
	default:
		// Senders in TX/WF states do not receive (appendix: reception
		// only happens in IDLE).
	}
}

// onMRTS: step 2 of §3.3.2 — a node finding its address in the MRTS
// memorizes its index and turns on the RBT.
func (n *Node) onMRTS(m *frame.MRTS) {
	idx := m.IndexOf(n.Addr())
	if idx < 0 {
		return
	}
	n.Stats().CtrlRxTime += n.Cfg.TxDuration(m.WireSize())
	n.rxBuf = rxContext{
		sender:   m.Transmitter,
		index:    idx,
		deadline: n.Eng.Now() + phy.ToneWaitTimeout + GuardTime,
	}
	n.rx = &n.rxBuf
	n.state = StateWfRData
	n.Backoff.Suspend()
	n.aud.ExpectTone(n.Radio.ID(), phy.ToneRBT, n.Eng.Now(), 0)
	n.Radio.SetTone(phy.ToneRBT, true)
	if n.Radio.CarrierSensed() {
		// A signal is already arriving; treat it as the data candidate.
		n.rx.dataStarted = true
	} else {
		n.wfRData.StartAt(n.rx.deadline)
	}
}

// onWfRDataExpire: no data frame started before T_wf_rdata(+guard): stop
// the RBT (step 5).
func (n *Node) onWfRDataExpire() {
	n.endReceiverRole()
}

// receiverFrameEnd resolves a reception that ended while in WF_RDATA.
func (n *Node) receiverFrameEnd(f frame.Frame, ok bool) {
	if ok {
		if d, isData := f.(*frame.RData); isData && d.Transmitter == n.rx.sender {
			// Data received correctly: RBT off, ABT scheduled at
			// index·l_abt after the data frame reception (step 5).
			idx := n.rx.index
			n.wfRData.Stop()
			n.endReceiverRoleKeepingTimerStopped()
			n.scheduleABT(idx)
			// Retransmission of an already-delivered packet (the sender
			// missed this receiver's ABT): acknowledge again, deliver once.
			n.Deliver(d.Transmitter, d.Seq, d.Payload, true, true)
			return
		}
	}
	// Not our data (a truncated foreign MRTS fragment, a collision, or an
	// unrelated frame). If the arrival deadline has not passed, keep the
	// RBT up and keep waiting — the protected data frame may still come.
	if n.Eng.Now() < n.rx.deadline {
		n.rx.dataStarted = false
		n.wfRData.StartAt(n.rx.deadline)
		return
	}
	n.endReceiverRole()
}

func (n *Node) endReceiverRole() {
	n.wfRData.Stop()
	n.endReceiverRoleKeepingTimerStopped()
}

func (n *Node) endReceiverRoleKeepingTimerStopped() {
	n.Radio.SetTone(phy.ToneRBT, false)
	n.rx = nil
	n.state = StateIdle
	n.TrySend()
}

// Tags for the node's sim.Caller dispatch (ABT emission). The transitions
// are stateless — the tone itself carries all the state — so overlapping
// schedules from back-to-back receiver roles stay correct.
const (
	tagABTOn int32 = iota
	tagABTOff
)

// Call implements sim.Caller: the two halves of an ABT emission, scheduled
// closure-free through the engine's tagged-event path.
func (n *Node) Call(tag int32) {
	switch tag {
	case tagABTOn:
		n.Stats().ABTSent++
		n.Radio.SetTone(phy.ToneABT, true)
		n.Eng.AfterCall(phy.ABTDuration, n, tagABTOff)
	case tagABTOff:
		n.Radio.SetTone(phy.ToneABT, false)
	}
}

// scheduleABT emits the acknowledgment busy tone for l_abt after waiting
// index·l_abt (T_tx_abt, §3.3.2).
func (n *Node) scheduleABT(index int) {
	n.aud.ExpectTone(n.Radio.ID(), phy.ToneABT,
		n.Eng.Now()+sim.Time(index)*phy.ABTDuration, phy.ABTDuration)
	n.Eng.AfterCall(sim.Time(index)*phy.ABTDuration, n, tagABTOn)
}

// onUData: §3.3.3 step 3 — accept unreliable frames destined to this node
// (unicast or broadcast).
func (n *Node) onUData(d *frame.UData) {
	if d.Receiver != n.Addr() && !d.Receiver.IsBroadcast() {
		return
	}
	n.Deliver(d.Transmitter, d.Seq, d.Payload, false, false)
}

// --- Channel state callbacks -------------------------------------------------

// OnCarrierChange implements phy.Handler.
func (n *Node) OnCarrierChange(busy bool) {
	switch n.state {
	case StateIdle:
		if busy {
			n.Backoff.Suspend()
		} else {
			n.Backoff.Resume()
		}
	case StateWfRData:
		if busy && !n.rx.dataStarted {
			// First bit of the data frame arrived: cancel T_wf_rdata
			// (step 5); the RBT continues until the reception ends.
			n.rx.dataStarted = true
			n.wfRData.Stop()
		}
	}
}

// OnToneChange implements phy.Handler.
func (n *Node) OnToneChange(t phy.Tone, sensed bool) {
	if t != phy.ToneRBT {
		return // ABT levels are evaluated by windowed queries only
	}
	if n.opts.DisableRBTProtection {
		return
	}
	switch n.state {
	case StateTxMRTS:
		if sensed {
			// Step 3 of §3.3.2 / C11: abort the MRTS so the node that
			// set up the RBT suffers no collision.
			n.Radio.AbortTx()
			n.Stats().MRTSAborted++
			n.attemptFailed()
		}
	case StateTxUnrData:
		if sensed {
			// §3.3.3 step 2: abort; unreliable frames are not retried.
			n.Radio.AbortTx()
			n.state = StateIdle
			n.Complete(nil, nil, false)
		}
	case StateIdle:
		if sensed {
			n.Backoff.Suspend()
		} else {
			n.Backoff.Resume()
		}
	}
}
