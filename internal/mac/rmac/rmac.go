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

// txContext tracks one reliable packet through (possibly split) Reliable
// Send invocations.
type txContext struct {
	req *mac.SendRequest
	// seq is the packet's MAC sequence number, assigned once per packet so
	// every retransmission (and every §3.4 batch) carries the same value —
	// receivers dedup retransmitted data on (sender, seq).
	seq uint32
	// batches are the §3.4 splits of the destination list; batchIdx
	// cursors through them (a [1:] reslice would bleed capacity off the
	// reused backing array and defeat the per-packet buffer reuse).
	batches   [][]frame.Addr
	batchIdx  int
	remaining []frame.Addr // unacked receivers of the active batch
	delivered []frame.Addr
	retries   int // failed attempts of the active batch
}

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

// Node is one RMAC instance bound to a radio.
type Node struct {
	eng    *sim.Engine
	radio  *phy.Radio
	cfg    phy.Config
	addr   frame.Addr
	limits mac.Limits
	opts   Options
	upper  mac.UpperLayer
	frames *frame.Pool

	state   State
	queue   *mac.Queue
	backoff *mac.Backoff
	stats   mac.Stats
	aud     *audit.Auditor

	cur *txContext
	rx  *rxContext

	// ctxBuf and rxBuf back cur and rx: a node runs at most one sender
	// and one receiver context at a time, so both are reused across
	// packets instead of allocated per packet.
	ctxBuf txContext
	rxBuf  rxContext

	seq uint32

	// lastSeq dedups the receiver role: the last (sender, seq) delivered
	// upward. A retransmitted data frame (the sender missed our ABT) is
	// re-acknowledged but not re-delivered. Last-value tracking suffices:
	// a sender transmits packets strictly one at a time, so a receiver
	// sees each sender's sequence numbers in non-decreasing order.
	lastSeq map[frame.Addr]uint32

	// Sender-side timers. rbtMark and abtMark are the radio's tone meter
	// readings (phy.Radio.ToneTime) when the open RBT or ABT window began.
	wfRBT    *sim.Timer
	wfABT    *sim.Timer
	rbtMark  sim.Time
	abtMark  sim.Time
	abtSlot  int
	abtAcked []bool

	// stillBuf/failedBuf are scratch receiver lists reused across
	// attempts (stillBuf swaps with cur.remaining after each ABT round).
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
	n := &Node{
		eng:     eng,
		radio:   radio,
		cfg:     cfg,
		addr:    frame.AddrFromID(radio.ID()),
		limits:  limits,
		opts:    opts,
		queue:   mac.NewQueue(limits.QueueCap),
		frames:  radio.Frames(),
		lastSeq: make(map[frame.Addr]uint32),
	}
	n.backoff = mac.NewBackoff(eng, eng.Rand(), phy.SlotTime, n.channelsIdle, n.onBackoffFire)
	n.wfRBT = sim.NewTimer(eng, n.onWfRBTExpire)
	n.wfABT = sim.NewTimer(eng, n.onABTWindow)
	n.wfRData = sim.NewTimer(eng, n.onWfRDataExpire)
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
// its legal tone windows and reliable-send outcomes to it. A nil auditor
// (the default) costs a nil check per declaration.
func (n *Node) SetAuditor(a *audit.Auditor) { n.aud = a }

// AuditContention implements audit.ContentionReporter. The backoff is
// gated (not stuck) whenever the state machine or a protocol timer will
// advance the node regardless of the countdown.
func (n *Node) AuditContention() (wants, counting, gated, idle bool) {
	gated = n.state != StateIdle || n.wfRBT.Pending() || n.wfABT.Pending() || n.wfRData.Pending()
	return n.backoff.Active(), n.backoff.Counting(), gated, n.channelsIdle()
}

// AuditPending implements audit.PendingReporter.
func (n *Node) AuditPending() (queued int, inFlight bool) {
	return n.queue.Len(), n.cur != nil
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
		Idle:  n.state == StateIdle && n.cur == nil && n.queue.Len() == 0,
		Pending: n.radio.Transmitting() || n.radio.CarrierSensed() ||
			n.wfRBT.Pending() || n.wfABT.Pending() || n.wfRData.Pending() ||
			n.backoff.Counting() ||
			// A sensed foreign RBT suspends our backoff; its falling edge
			// is what resumes us, so it counts as a pending wake-up.
			n.radio.ToneSensed(phy.ToneRBT),
	}
}

// Send implements mac.MAC: it enqueues the request and kicks the pipeline.
func (n *Node) Send(req *mac.SendRequest) bool {
	if !n.queue.Admit(req, n.eng.Now(), &n.stats) {
		return false
	}
	n.trySend()
	return true
}

// channelsIdle is the §3.3.1 countdown condition: both the data channel
// and the RBT channel idle.
func (n *Node) channelsIdle() bool {
	if n.opts.DisableRBTProtection {
		return !n.radio.DataChannelBusy()
	}
	return !n.radio.DataChannelBusy() && !n.radio.ToneSensed(phy.ToneRBT)
}

// trySend advances the transmission pipeline when the node is idle.
func (n *Node) trySend() {
	if n.state != StateIdle {
		return
	}
	if n.backoff.Active() {
		n.backoff.Resume()
		return
	}
	if n.cur == nil {
		req := n.queue.Pop()
		if req == nil {
			return
		}
		n.cur = n.newContext(req)
	}
	if !n.channelsIdle() {
		// Condition (1) of §3.3.1: packet pending, channel busy.
		n.backoff.Draw()
		return
	}
	n.startAttempt()
}

func (n *Node) onBackoffFire() { n.trySend() }

func (n *Node) newContext(req *mac.SendRequest) *txContext {
	ctx := &n.ctxBuf
	n.seq++
	*ctx = txContext{
		req:       req,
		seq:       n.seq,
		batches:   ctx.batches[:0],
		remaining: ctx.remaining[:0],
		delivered: ctx.delivered[:0],
	}
	if req.Service == mac.Unreliable {
		return ctx
	}
	// §3.4 refinement: split destination lists longer than the limit
	// into multiple Reliable Send invocations.
	dests := req.Dests
	limit := n.limits.MaxReceivers
	if limit <= 0 {
		limit = frame.MaxReceivers
	}
	for len(dests) > limit {
		ctx.batches = append(ctx.batches, dests[:limit])
		dests = dests[limit:]
	}
	ctx.batches = append(ctx.batches, dests)
	ctx.remaining = append(ctx.remaining, ctx.batches[0]...)
	ctx.batchIdx = 1
	n.stats.ReliableToTransmit++
	return ctx
}

// startAttempt begins one transmission attempt for the head packet:
// C1/C6 (unreliable) or C10/C14 (reliable).
func (n *Node) startAttempt() {
	if n.cur.req.Service == mac.Unreliable {
		n.startUnreliable()
		return
	}
	n.startMRTS()
}

func (n *Node) startUnreliable() {
	req := n.cur.req
	dest := frame.Broadcast
	if len(req.Dests) > 0 {
		dest = req.Dests[0]
	}
	f := n.frames.UData()
	f.Transmitter = n.addr
	f.Receiver = dest
	f.Seq = n.cur.seq
	f.Payload = append(f.Payload, req.Payload...)
	n.state = StateTxUnrData
	n.radio.StartTx(f)
}

func (n *Node) startMRTS() {
	m := n.frames.MRTS()
	m.Transmitter = n.addr
	m.Receivers = append(m.Receivers, n.cur.remaining...)
	n.stats.MRTSSent++
	n.stats.MRTSLens = append(n.stats.MRTSLens, m.WireSize())
	n.state = StateTxMRTS
	dur := n.radio.StartTx(m)
	n.stats.CtrlTxTime += dur
}

// OnTxDone implements phy.Handler (natural completion only; aborts are
// handled where they are triggered).
func (n *Node) OnTxDone(f frame.Frame) {
	switch n.state {
	case StateTxMRTS:
		// C17: MRTS complete -> WF_RBT, timer 2τ+λ.
		n.state = StateWfRBT
		n.rbtMark = n.radio.ToneTime(phy.ToneRBT)
		n.wfRBT.Start(phy.ToneWaitTimeout)
	case StateTxRData:
		// C19: data complete -> WF_ABT, n cycles of 2τ+λ.
		n.state = StateWfABT
		n.abtMark = n.radio.ToneTime(phy.ToneABT)
		n.abtSlot = 0
		n.abtAcked = n.abtAcked[:0]
		for range n.cur.remaining {
			n.abtAcked = append(n.abtAcked, false)
		}
		n.wfABT.Start(phy.ABTDuration)
	case StateTxUnrData:
		// C5/C2: unreliable transmission done.
		n.stats.UnreliableSent++
		n.completeUnreliable()
	default:
		panic(fmt.Sprintf("rmac: node %v OnTxDone in state %v", n.addr, n.state))
	}
}

func (n *Node) completeUnreliable() {
	req := n.cur.req
	n.cur = nil
	n.state = StateIdle
	n.postTxBackoff(true)
	if n.upper != nil {
		n.upper.OnSendComplete(mac.TxResult{Req: req})
	}
	n.trySend()
}

// onWfRBTExpire: step 4 of §3.3.2 — at T_wf_rbt expiry, transmit data if
// an RBT was detected during the timer period, otherwise back off and
// retry.
func (n *Node) onWfRBTExpire() {
	detected := n.radio.ToneTime(phy.ToneRBT)-n.rbtMark >= phy.Lambda
	if !detected {
		n.attemptFailed()
		return
	}
	// The packet's sequence number was fixed at newContext time:
	// retransmissions and later §3.4 batches repeat it, so receivers can
	// recognise (and re-acknowledge without re-delivering) a data frame
	// whose ABT the sender missed.
	f := n.frames.RData()
	f.Transmitter = n.addr
	f.Receiver = frame.Broadcast // delivery set governed by the MRTS
	f.Seq = n.cur.seq
	f.Payload = append(f.Payload, n.cur.req.Payload...)
	n.state = StateTxRData
	dur := n.radio.StartTx(f)
	n.stats.DataTxTime += dur
}

// onABTWindow closes one ABT sensing window (step 6 of §3.3.2): window i
// spans the i-th l_abt after the data frame ended; receiver i acknowledged
// iff the ABT channel was sensed for at least λ within it. Window i closes
// now, and window i+1 opens now.
func (n *Node) onABTWindow() {
	i := n.abtSlot
	n.stats.ABTCheckTime += phy.ABTDuration
	mark := n.radio.ToneTime(phy.ToneABT)
	if mark-n.abtMark >= phy.Lambda {
		n.abtAcked[i] = true
	}
	n.abtMark = mark
	n.abtSlot++
	if n.abtSlot < len(n.cur.remaining) {
		n.wfABT.Start(phy.ABTDuration)
		return
	}
	// All windows sensed: split acked / unacked. still reuses the node's
	// scratch buffer, which swaps roles with cur.remaining below.
	still := n.stillBuf[:0]
	for j, a := range n.cur.remaining {
		if n.abtAcked[j] {
			n.cur.delivered = append(n.cur.delivered, a)
		} else {
			still = append(still, a)
		}
	}
	if len(still) == 0 {
		n.stillBuf = still
		n.batchDone()
		return
	}
	n.stillBuf = n.cur.remaining
	n.cur.remaining = still
	n.attemptFailed()
}

// attemptFailed handles a failed attempt (no RBT, missing ABTs, or MRTS
// abortion): exponential backoff and retransmission, or drop past the
// retry limit.
func (n *Node) attemptFailed() {
	n.state = StateIdle
	n.cur.retries++
	if n.cur.retries > n.limits.RetryLimit {
		n.dropCurrent()
		return
	}
	n.stats.Retransmissions++
	n.backoff.Fail()
	n.backoff.Draw()
	n.trySend()
}

// dropCurrent abandons the head packet at the retry limit (§3.3.2 note 1).
func (n *Node) dropCurrent() {
	ctx := n.cur
	n.cur = nil
	n.stats.Drops++
	failed := append(n.failedBuf[:0], ctx.remaining...)
	for _, b := range ctx.batches[ctx.batchIdx:] {
		failed = append(failed, b...)
	}
	n.failedBuf = failed
	n.postTxBackoff(true)
	n.aud.ReliableOutcome(n.radio.ID(), len(ctx.delivered), len(ctx.req.Dests), true)
	if n.upper != nil {
		n.upper.OnSendComplete(mac.TxResult{
			Req:       ctx.req,
			Delivered: ctx.delivered,
			Failed:    failed,
			Dropped:   true,
			Retries:   ctx.retries,
		})
	}
	n.trySend()
}

// batchDone advances past a fully-acknowledged batch: next §3.4 batch
// (separated by a backoff procedure) or packet completion.
func (n *Node) batchDone() {
	n.state = StateIdle
	ctx := n.cur
	if ctx.batchIdx < len(ctx.batches) {
		ctx.remaining = append(ctx.remaining[:0], ctx.batches[ctx.batchIdx]...)
		ctx.batchIdx++
		ctx.retries = 0
		n.backoff.Reset()
		n.backoff.Draw()
		n.trySend()
		return
	}
	n.cur = nil
	n.stats.ReliableDelivered++
	n.postTxBackoff(true)
	n.aud.ReliableOutcome(n.radio.ID(), len(ctx.delivered), len(ctx.req.Dests), false)
	if n.upper != nil {
		n.upper.OnSendComplete(mac.TxResult{
			Req:       ctx.req,
			Delivered: ctx.delivered,
			Retries:   ctx.retries,
		})
	}
	n.trySend()
}

// postTxBackoff implements §3.3.1 condition (3): a backoff procedure after
// every completed transmission or drop, so successive transmissions are
// separated by contention. reset selects CW restoration (success/drop).
func (n *Node) postTxBackoff(reset bool) {
	if reset {
		n.backoff.Reset()
	}
	n.backoff.Draw()
}

// --- Receiver role ----------------------------------------------------------

// OnFrameReceived implements phy.Handler.
func (n *Node) OnFrameReceived(f frame.Frame, ok bool, rxStart sim.Time) {
	switch n.state {
	case StateIdle:
		if !ok {
			return // noise/collision; backoff already suspended via carrier
		}
		switch g := f.(type) {
		case *frame.MRTS:
			n.onMRTS(g)
		case *frame.UData:
			n.onUData(g, rxStart)
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
	idx := m.IndexOf(n.addr)
	if idx < 0 {
		return
	}
	n.stats.CtrlRxTime += n.cfg.TxDuration(m.WireSize())
	n.rxBuf = rxContext{
		sender:   m.Transmitter,
		index:    idx,
		deadline: n.eng.Now() + phy.ToneWaitTimeout + GuardTime,
	}
	n.rx = &n.rxBuf
	n.state = StateWfRData
	n.backoff.Suspend()
	n.aud.ExpectTone(n.radio.ID(), phy.ToneRBT, n.eng.Now(), 0)
	n.radio.SetTone(phy.ToneRBT, true)
	if n.radio.CarrierSensed() {
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
			last, seen := n.lastSeq[d.Transmitter]
			dup := seen && last == d.Seq
			n.lastSeq[d.Transmitter] = d.Seq
			if !dup && n.upper != nil {
				n.upper.OnDeliver(d.Payload, mac.RxInfo{
					From:     d.Transmitter,
					Reliable: true,
					Seq:      d.Seq,
					RxEnd:    n.eng.Now(),
				})
			}
			return
		}
	}
	// Not our data (a truncated foreign MRTS fragment, a collision, or an
	// unrelated frame). If the arrival deadline has not passed, keep the
	// RBT up and keep waiting — the protected data frame may still come.
	if n.eng.Now() < n.rx.deadline {
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
	n.radio.SetTone(phy.ToneRBT, false)
	n.rx = nil
	n.state = StateIdle
	n.trySend()
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
		n.stats.ABTSent++
		n.radio.SetTone(phy.ToneABT, true)
		n.eng.AfterCall(phy.ABTDuration, n, tagABTOff)
	case tagABTOff:
		n.radio.SetTone(phy.ToneABT, false)
	}
}

// scheduleABT emits the acknowledgment busy tone for l_abt after waiting
// index·l_abt (T_tx_abt, §3.3.2).
func (n *Node) scheduleABT(index int) {
	n.aud.ExpectTone(n.radio.ID(), phy.ToneABT,
		n.eng.Now()+sim.Time(index)*phy.ABTDuration, phy.ABTDuration)
	n.eng.AfterCall(sim.Time(index)*phy.ABTDuration, n, tagABTOn)
}

// onUData: §3.3.3 step 3 — accept unreliable frames destined to this node
// (unicast or broadcast).
func (n *Node) onUData(d *frame.UData, rxStart sim.Time) {
	if d.Receiver != n.addr && !d.Receiver.IsBroadcast() {
		return
	}
	if n.upper != nil {
		n.upper.OnDeliver(d.Payload, mac.RxInfo{
			From:     d.Transmitter,
			Reliable: false,
			Seq:      d.Seq,
			RxStart:  rxStart,
			RxEnd:    n.eng.Now(),
		})
	}
}

// --- Channel state callbacks -------------------------------------------------

// OnCarrierChange implements phy.Handler.
func (n *Node) OnCarrierChange(busy bool) {
	switch n.state {
	case StateIdle:
		if busy {
			n.backoff.Suspend()
		} else {
			n.backoff.Resume()
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
			n.radio.AbortTx()
			n.stats.MRTSAborted++
			n.attemptFailed()
		}
	case StateTxUnrData:
		if sensed {
			// §3.3.3 step 2: abort; unreliable frames are not retried.
			n.radio.AbortTx()
			n.stats.UnreliableSent++
			n.completeUnreliable()
		}
	case StateIdle:
		if sensed {
			n.backoff.Suspend()
		} else {
			n.backoff.Resume()
		}
	}
}
