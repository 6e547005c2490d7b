package mac

import (
	"rmac/internal/frame"
	"rmac/internal/phy"
	"rmac/internal/sim"
)

// Node is the protocol-independent half of every MAC in this repository:
// its wiring, Send's admission, the packet in flight, retry-or-drop,
// completion and deduplicated upward delivery. A protocol embeds it,
// calls Init from its constructor, and keeps only its own exchange and
// the contention that grants it: DCF for the 802.11 family (package
// csma), busy tones for RMAC. Node supplies Addr, Stats, SetUpper and
// Send of MAC and AuditPending of the auditor's PendingReporter.
type Node struct {
	Eng    *sim.Engine
	Radio  *phy.Radio
	Cfg    phy.Config
	Frames *frame.Pool
	Queue  *Queue
	Limits Limits
	// Backoff is the §3.3.1 backoff the protocol contends with; Retry
	// and Complete draw on it.
	Backoff *Backoff

	// Req is the packet in flight, nil when the node holds none. Seq is
	// its sequence number, the count of packets taken from the queue:
	// every retransmission, and every §3.4 batch, carries the same
	// value, so receivers can recognise a repeat. Retries counts its
	// failed attempts.
	Req     *SendRequest
	Seq     uint32
	Retries int

	proto Protocol
	upper UpperLayer
	addr  frame.Addr
	stats Stats
	// lastSeq is the receiver-side dedup: the last seq deduplicated from
	// each sender, keyed by its node id, made on first use.
	lastSeq map[uint32]uint32
}

// Protocol is what the MAC embedding a Node supplies: its PHY handler,
// and TrySend, which advances its transmission pipeline. Node runs
// TrySend after every admission, retry and completion.
type Protocol interface {
	phy.Handler
	TrySend()
}

// Init wires node p, which becomes radio's PHY handler; b is the backoff
// it contends with.
func (m *Node) Init(p Protocol, radio *phy.Radio, cfg phy.Config, eng *sim.Engine, limits Limits, b *Backoff) {
	m.Eng, m.Radio, m.Cfg, m.Limits, m.Backoff, m.proto = eng, radio, cfg, limits, b, p
	m.Frames = radio.Frames()
	m.Queue = NewQueue(limits.QueueCap)
	m.addr = frame.AddrFromID(radio.ID())
	radio.SetHandler(p)
}

// Addr implements MAC.
func (m *Node) Addr() frame.Addr { return m.addr }

// Stats implements MAC.
func (m *Node) Stats() *Stats { return &m.stats }

// SetUpper implements MAC.
func (m *Node) SetUpper(u UpperLayer) { m.upper = u }

// BusyTicks returns the backoff's count of countdown expiries that found
// the channel busy with no Suspend (Backoff.BusyTicks).
func (m *Node) BusyTicks() uint64 { return m.Backoff.BusyTicks }

// AuditPending implements audit.PendingReporter.
func (m *Node) AuditPending() (queued int, inFlight bool) {
	return m.Queue.Len(), m.Req != nil
}

// Send implements MAC: a Reliable request must name a destination. It
// stamps EnqueuedAt and queues req, urgent requests at the front, then
// runs the pipeline. A full queue counts a queue drop instead.
func (m *Node) Send(req *SendRequest) bool {
	if req.Service == Reliable && len(req.Dests) == 0 {
		panic("mac: Reliable Send needs at least one destination")
	}
	req.EnqueuedAt = m.Eng.Now()
	pushed := false
	if req.Urgent {
		pushed = m.Queue.PushFront(req)
	} else {
		pushed = m.Queue.Push(req)
	}
	if !pushed {
		m.stats.QueueDrops++
		return false
	}
	m.stats.Enqueued++
	m.proto.TrySend()
	return true
}

// Next takes the head of the queue as the packet in flight and numbers
// it; it returns false when the queue is empty. A reliable packet counts
// as to be transmitted.
func (m *Node) Next() bool {
	req := m.Queue.Pop()
	if req == nil {
		return false
	}
	m.Req, m.Retries = req, 0
	m.Seq++
	if req.Service == Reliable {
		m.stats.ReliableToTransmit++
	}
	return true
}

// Retry counts a failed attempt of the packet in flight. Within the retry
// limit it counts a retransmission, doubles the contention window, draws
// a backoff, runs the pipeline and returns true. Past the limit it
// returns false: the caller completes the packet as dropped (§3.3.2
// note 1).
func (m *Node) Retry() bool {
	m.Retries++
	if m.Retries > m.Limits.RetryLimit {
		return false
	}
	m.stats.Retransmissions++
	m.Backoff.Fail()
	m.Backoff.Draw()
	m.proto.TrySend()
	return true
}

// Complete ends the packet in flight with the given receivers (loaned;
// see TxResult). It counts the packet as sent, delivered or dropped,
// restores the contention window, draws the backoff that §3.3.1
// condition (3) puts after every transmission, hands the TxResult to the
// upper layer and runs the pipeline. The caller must be back in its idle
// state: an upper-layer Send inside OnSendComplete runs the pipeline too.
func (m *Node) Complete(delivered, failed []frame.Addr, dropped bool) {
	res := TxResult{Req: m.Req, Delivered: delivered, Failed: failed, Dropped: dropped, Retries: m.Retries}
	m.Req = nil
	switch {
	case res.Req.Service == Unreliable:
		m.stats.UnreliableSent++
	case dropped:
		m.stats.Drops++
	default:
		m.stats.ReliableDelivered++
	}
	m.Backoff.Reset()
	m.Backoff.Draw()
	if m.upper != nil {
		m.upper.OnSendComplete(res)
	}
	m.proto.TrySend()
}

// Deliver hands a received data frame's payload to the upper layer. With
// dedup set, a frame whose seq equals the last one deduplicated from the
// same sender is a retransmission (the sender missed our
// acknowledgement) and is dropped. Last-value tracking suffices: a
// sender transmits its packets one at a time, in sequence order.
func (m *Node) Deliver(from frame.Addr, seq uint32, payload []byte, reliable, dedup bool) {
	if dedup {
		if last, ok := m.LastSeq(from); ok && last == seq {
			return
		}
		if m.lastSeq == nil {
			m.lastSeq = make(map[uint32]uint32)
		}
		m.lastSeq[uint32(from.NodeID())] = seq
	}
	if m.upper != nil {
		m.upper.OnDeliver(payload, RxInfo{From: from, Reliable: reliable, Seq: seq})
	}
}

// LastSeq reports the last seq deduplicated from sender from, the newest
// of its packets this node has received, and whether there is one.
func (m *Node) LastSeq(from frame.Addr) (uint32, bool) {
	seq, ok := m.lastSeq[uint32(from.NodeID())]
	return seq, ok
}
