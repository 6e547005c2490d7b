// Package mac defines the interface between upper layers (routing, the
// multicast application) and the six MAC protocol implementations (RMAC,
// BMMM, BMW, LBP, 802.11MX and plain 802.11), plus the machinery all of
// them share: Node, the protocol-independent half of a MAC node that all
// six embed (Send's admission into the transmission queue, the packet in
// flight, retry-or-drop, completion and deduplicated delivery), the
// contention backoff procedure (§3.3.1), and per-node statistics feeding
// the paper's evaluation metrics (§4.2, §4.3).
package mac

import (
	"rmac/internal/frame"
	"rmac/internal/sim"
)

// Service selects between the paper's two transmission services (§3.3).
type Service int

const (
	// Reliable is the Reliable Send service: positive feedback and
	// retransmission until delivered or the retry limit is exceeded.
	Reliable Service = iota
	// Unreliable is the Unreliable Send service: one transmission, no
	// recovery.
	Unreliable
)

func (s Service) String() string {
	if s == Reliable {
		return "reliable"
	}
	return "unreliable"
}

// SendRequest is one upper-layer packet handed to the MAC.
type SendRequest struct {
	Service Service
	// Dests lists the intended receivers for Reliable service: one
	// address (unicast), several (multicast) or all one-hop neighbours
	// (broadcast) — the three modes of §3.3.2. For Unreliable service
	// Dests holds the single receiver address field of the frame, which
	// may be frame.Broadcast.
	Dests   []frame.Addr
	Payload []byte
	// Urgent marks control-plane traffic (routing beacons): it jumps to
	// the front of the transmission queue so topology maintenance is not
	// starved behind a data backlog.
	Urgent bool
	// Meta is an opaque upper-layer cookie returned in the TxResult.
	Meta any

	// EnqueuedAt is stamped by the MAC when accepted.
	EnqueuedAt sim.Time

	// pool/live back the recycling machinery; see ReqPool.
	pool *ReqPool
	live bool
}

// TxResult reports the outcome of a SendRequest. The Delivered and Failed
// slices are loaned from the reporting MAC's reusable buffers: they are
// valid only for the duration of the OnSendComplete call and must be
// copied out if kept (same copy-out contract as received frames, see
// DESIGN.md §9).
type TxResult struct {
	Req *SendRequest
	// Delivered lists the receivers that positively acknowledged
	// (Reliable service only).
	Delivered []frame.Addr
	// Failed lists receivers never acknowledged before the retry limit.
	Failed []frame.Addr
	// Dropped is true when the packet was abandoned: retry limit hit
	// with at least one receiver outstanding, or queue overflow.
	Dropped bool
	// Retries is the number of retransmission cycles beyond the first
	// attempt.
	Retries int
}

// RxInfo describes a received data frame delivered to the upper layer.
type RxInfo struct {
	From     frame.Addr
	Reliable bool
	Seq      uint32
}

// UpperLayer receives MAC indications. Implemented by routing and the
// multicast application.
type UpperLayer interface {
	// OnDeliver is called once per data frame addressed to (or accepted
	// by) this node. payload aliases the pooled frame's backing storage
	// and is valid only for the duration of the call: copy out before
	// returning (DESIGN.md §9).
	OnDeliver(payload []byte, info RxInfo)
	// OnSendComplete is called exactly once per accepted SendRequest.
	// The upper layer owns the request again when this returns; a pooled
	// request should be Recycled here.
	OnSendComplete(res TxResult)
}

// MAC is the protocol-independent surface the upper layers program
// against.
type MAC interface {
	// Addr returns this node's MAC address.
	Addr() frame.Addr
	// Send enqueues a packet. It returns false (and reports a queue
	// drop) when the transmission queue is full; no OnSendComplete
	// follows in that case.
	Send(req *SendRequest) bool
	// SetUpper installs the upper-layer sink. Must be called before
	// traffic starts.
	SetUpper(u UpperLayer)
	// Stats exposes the node's counters.
	Stats() *Stats
}

// Liveness is a point-in-time snapshot of a MAC's progress guarantees,
// taken by the experiment harness's deadlock auditor when the engine
// quiesces. A node reporting !Idle with !Pending is stuck: it is inside
// an exchange but holds no armed timer, in-flight transmission or
// arriving signal that could ever advance it — a protocol deadlock.
// Pending is deliberately conservative (any plausibly-advancing source
// counts), so a flagged node is a genuine bug, not a mid-exchange
// snapshot artifact.
type Liveness struct {
	// State is the protocol state name, for diagnostics.
	State string
	// Idle reports that no exchange, queued packet or pending context
	// could require the node to make progress.
	Idle bool
	// Pending reports that something is armed that will advance the
	// node: a protocol timer, the contention process, an in-flight
	// transmission or reception, or a scheduled exchange step.
	Pending bool
}

// LivenessReporter is implemented by MAC protocols that can be audited
// for deadlock. All protocols in this repository implement it.
type LivenessReporter interface {
	Liveness() Liveness
}

// Limits bundles the retry/queue policies shared by the protocols.
type Limits struct {
	// RetryLimit is the maximum number of retransmission cycles for one
	// packet before it is dropped (§3.3.2 note 1).
	RetryLimit int
	// QueueCap is the transmission queue capacity in packets.
	QueueCap int
	// MaxReceivers caps receivers per Reliable Send invocation; larger
	// destination sets are split (§3.4). Protocols that do not split
	// (BMMM) ignore it.
	MaxReceivers int
}

// DefaultLimits mirrors the paper's implementation choices: retry limit 7
// (802.11 short retry), a deep queue (the paper's delays reach seconds,
// implying substantial queueing), and the §3.4 receiver limit of 20.
func DefaultLimits() Limits {
	return Limits{RetryLimit: 7, QueueCap: 512, MaxReceivers: 20}
}
