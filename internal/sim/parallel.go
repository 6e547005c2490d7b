package sim

import (
	"fmt"
	"sync/atomic"
)

// Conservative parallel-simulation support. A sharded run partitions the
// network into spatial shards, each owning a private Engine on its own
// goroutine; shards advance their clocks under a Chandy–Misra–Bryant
// variant without null messages: every shard publishes a frontier — a
// lower bound on the earliest influence it can still exert, i.e.
// min(next local event, send time of its earliest outbound message no
// receiver has drained yet) — and each shard j may safely execute all
// events strictly before
//
//	target(j) = min( outCap(j) + walkLookahead(j, j),
//	                 min over k ≠ j of frontier(k) + walkLookahead(k, j) )
//
// where walkLookahead is the all-pairs minimum over walks of length ≥ 1
// in the direct lookahead graph (minimum cross-shard propagation delay
// between any two radios of the two shards) and outCap(j) is the send
// time of j's earliest undrained outbound message. Including walks — not
// just simple paths — matters twice over. Relays: influence from k
// forwarded through intermediate shards is bounded transitively by the
// triangle inequality, with the sender-side cap keeping frontier(k) at or
// below an in-flight message's send time until its receiver has scheduled
// the delivery (and so covers the relay itself). Echoes: the k = j
// diagonal is the minimum round trip through any other shard, bounding
// responses to shard j's *own* sends — a neighbour can react to a border
// arrival and transmit back within the same timestamp (tone-triggered
// aborts). The own term covers only sends already made; the shard loop
// covers the rest by ending every window right after an event that sends
// across, so each echo lands after everything the window ran. Frontiers
// are pure measurements (next event / undrained send time), never derived
// from other shards' frontiers, so targets converge in one step and the
// classic null-message creep cannot occur.
//
// Cross-shard events are injected with ScheduleCrossCall under a dedicated
// sequence-number space (CrossSeqBase | sender<<CrossSeqShardShift | local
// counter): the (time, seq) total order then interleaves cross traffic
// after same-tick local events deterministically, independent of wall-clock
// arrival order, which is what makes a fixed (seed, shards) pair
// bit-identical across reruns.

// MaxTime is the largest representable simulated time; used as the
// "no event pending / never" sentinel by the shard frontier protocol.
const MaxTime = maxTime

// Cross-shard sequence-number space. Bit 63 lifts every cross event above
// all locally allocated sequence numbers (a run would need 2^63 local
// events to collide); the shard index sits above a per-shard monotone
// counter so two senders can never mint the same sequence number without
// any cross-goroutine coordination.
const (
	// CrossSeqBase marks a sequence number as cross-shard.
	CrossSeqBase uint64 = 1 << 63
	// CrossSeqShardShift positions the sending shard's index.
	CrossSeqShardShift = 48
	// MaxShards bounds the shard count (shard index field width and the
	// O(S²) lookahead matrix both assume it).
	MaxShards = 1 << (62 - CrossSeqShardShift)
)

// CrossSeq builds the sequence number for the i-th cross event minted by
// shard src. local must stay below 1<<CrossSeqShardShift.
func CrossSeq(src int, local uint64) uint64 {
	return CrossSeqBase | uint64(src)<<CrossSeqShardShift | local
}

// NextLowerBound returns the exact fire time of the engine's earliest
// pending event, or MaxTime when nothing is pending. Exactness (not just a
// lower bound) matters for shard liveness: frontiers are exchanged as
// next-event bounds, and the deadlock-freedom argument — "the shard
// holding the globally minimal next event always finds target > that
// event and advances" — needs the published bound to *be* the next event
// time. A slot-start approximation (wheelMin) can under-report by up to
// one slot width (128 ns), which exceeds the smallest lookahead (the
// 1 ns propagation-delay floor) and can stall two shards against each
// other forever.
//
// Due-list head and heap top are exact by construction. For in-slot wheel
// events the earliest occupied slot per level is chain-scanned: within a
// level, every event in a later slot fires at or after that slot's start,
// which is strictly after every event in the earliest slot, so the
// earliest slot's chain minimum is the level minimum and the cross-level
// minimum of the two chains is globally exact. Slots hold a handful of
// events, so the scan is effectively O(1). May refresh the scan cache;
// only called between Run windows, where that is safe.
func (e *Engine) NextLowerBound() Time {
	lb := maxTime
	if e.dueHead >= 0 {
		lb = e.nodes[e.dueHead].at
	}
	if len(e.order) > 0 && e.order[0].at < lb {
		lb = e.order[0].at
	}
	if e.wheelCount > 0 {
		if !e.scanValid {
			e.rescan()
		}
		if e.nb0 < maxTime {
			for id := e.tw.head0[e.ns0&l0Mask]; id >= 0; id = e.nodes[id].next {
				if e.nodes[id].at < lb {
					lb = e.nodes[id].at
				}
			}
		}
		if e.nb1 < maxTime && e.nb1 < lb {
			for id := e.tw.head1[e.ns1&l1Mask]; id >= 0; id = e.nodes[id].next {
				if e.nodes[id].at < lb {
					lb = e.nodes[id].at
				}
			}
		}
	}
	return lb
}

// ScheduleCrossCall schedules c.Call(tag) at absolute time at under an
// explicitly supplied sequence number instead of the engine's own counter.
// The cross-shard conduit uses it to inject mirrored events whose global
// order is fixed by the sender, not by arrival order.
//
// seq must lie in the cross space (CrossSeqBase set): the timing wheel's
// flush path packs sequence numbers into 57 bits, so cross events bypass
// the wheel and go straight to the heap — correct (the heap honours any
// (time, seq) order) and cheap (cross events are rare relative to local
// traffic).
func (e *Engine) ScheduleCrossCall(at Time, c Caller, tag int32, seq uint64) Event {
	if at < e.now {
		e.panicPast(at)
	}
	if seq < CrossSeqBase {
		panic(fmt.Sprintf("sim: ScheduleCrossCall seq %#x below CrossSeqBase", seq))
	}
	var id int32
	if n := len(e.free); n > 0 {
		id = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		id = e.grow()
	}
	n := &e.nodes[id]
	n.at = at
	n.seq = seq
	n.target = c
	n.tag = tag
	e.heapPush(id, at)
	if e.tstats != nil {
		e.tstats.place(placeOverflow, at-e.now)
	}
	return Event{eng: e, id: id, gen: n.gen}
}

// ShardSync is the shared frontier table of one sharded run. Each shard
// publishes its frontier with Publish and computes its safe execution bound
// with Target; both are lock-free (one atomic store / S+1 atomic loads).
// The lookahead matrix is held behind an atomic pointer: mobile runs
// replace it at every epoch boundary (SetLookahead), and a shard parked in
// its stall loop keeps polling Target throughout — the swap guarantees it
// reads a complete matrix, old or new, never a half-written one.
type ShardSync struct {
	// walk closure: (*la)[k][j] = min walk lookahead k→j (k==j: min
	// cycle); MaxTime = decoupled. Immutable once stored.
	la atomic.Pointer[[][]Time]
	fr []padTime
	_  [56]byte
	// lowered counts the Lower calls that moved a frontier down; Target
	// and MinFrontier re-read every frontier when it changes mid-scan.
	lowered atomic.Uint64
	_       [56]byte
}

// padTime pads each frontier to its own cache line so Publish stores from
// different shards never false-share.
type padTime struct {
	v atomic.Int64
	_ [56]byte
}

// NewShardSync builds the frontier table for the given direct lookahead
// matrix (la[k][j] = minimum delay for shard k to influence shard j;
// MaxTime where no pair of radios is in range). The matrix is closed over
// walks of length ≥ 1 (Floyd–Warshall with the diagonal seeded to MaxTime
// — shard counts are small): off-diagonal entries become shortest paths,
// bounding relayed influence transitively, and diagonal entries become
// minimum cycles, bounding echoes of a shard's own sends. Frontiers start
// at 0.
func NewShardSync(direct [][]Time) *ShardSync {
	s := len(direct)
	if s > MaxShards {
		panic(fmt.Sprintf("sim: %d shards exceeds MaxShards %d", s, MaxShards))
	}
	ss := &ShardSync{fr: make([]padTime, s)}
	ss.SetLookahead(direct)
	return ss
}

// SetLookahead replaces the lookahead table with the walk closure of a new
// direct matrix. Mobile sharded runs call it at every epoch boundary, when
// node movement has changed the minimum cross-shard distances. The closure
// is computed into a fresh matrix and swapped in atomically: shards parked
// in stall loops keep polling Target during the swap and must never see a
// half-written table. Memory safety comes from the swap; *determinism*
// still needs the epoch barrier — without it, which epoch's matrix a
// Target call reads would depend on goroutine scheduling (see DESIGN.md
// §15 for the happens-before chain).
func (ss *ShardSync) SetLookahead(direct [][]Time) {
	la := make([][]Time, len(direct))
	for i := range la {
		la[i] = make([]Time, len(direct))
		copy(la[i], direct[i])
		la[i][i] = maxTime // no self-edges: the diagonal closes to min cycle
	}
	closeWalks(la)
	ss.la.Store(&la)
}

// closeWalks closes a direct lookahead matrix over walks of length ≥ 1 in
// place (Floyd–Warshall; shard counts are small).
func closeWalks(la [][]Time) {
	s := len(la)
	for k := 0; k < s; k++ {
		for i := 0; i < s; i++ {
			if la[i][k] == maxTime {
				continue
			}
			for j := 0; j < s; j++ {
				if la[k][j] == maxTime {
					continue
				}
				if d := la[i][k] + la[k][j]; d < la[i][j] {
					la[i][j] = d
				}
			}
		}
	}
}

// MinFrontier returns the minimum published frontier across all shards.
// The epoch-rollover leader spins on it to detect the boundary barrier:
// every frontier at or past the boundary means every shard has executed
// all its pre-boundary events and every conduit ring has been drained (an
// undrained message caps its sender's frontier at the send time).
func (ss *ShardSync) MinFrontier() Time {
	for {
		n := ss.lowered.Load()
		t := maxTime
		for k := range ss.fr {
			if f := Time(ss.fr[k].v.Load()); f < t {
				t = f
			}
		}
		if ss.lowered.Load() == n {
			return t
		}
	}
}

// Lookahead returns the closed (minimum-walk) lookahead from shard k to
// shard j — for k == j the minimum round trip through any other shard;
// MaxTime when no such influence is possible.
func (ss *ShardSync) Lookahead(k, j int) Time { return (*ss.la.Load())[k][j] }

// Publish records shard k's frontier: a promise that shard k will not mint
// any new influence before t. Callers must derive t from measurements only
// — min(NextLowerBound after draining inbound rings, earliest undrained
// outbound send time) — never from other shards' frontiers. Frontiers are
// not monotone: Lower pulls one down when a drain schedules an earlier
// delivery. Only shard k's goroutine may publish or lower frontier k.
//
// An unchanged frontier is not stored again: a shard re-publishes on every
// spin of its waits, and each store would invalidate the cache line its
// neighbours are polling. Readers then synchronise with the earlier store
// of the same value, which is enough: between the two, shard k ran only
// events at or after that value, so any message it sent meanwhile lands at
// or after the value plus the lookahead the readers already bound by.
func (ss *ShardSync) Publish(k int, t Time) {
	if Time(ss.fr[k].v.Load()) != t {
		ss.fr[k].v.Store(int64(t))
	}
}

// Lower pulls shard k's published frontier down to t when it is above it.
// A draining shard calls it with the deliveries it has just scheduled,
// before releasing their ring slots: the release lifts the sender's cap
// on its own frontier, so the receiver's frontier must already cover them.
//
// The hand-off from the sender's frontier to the receiver's is not atomic
// for a reader that loads the frontiers one at a time: it may read the
// receiver's before the Lower and the sender's after the release, and see
// neither cover the delivery. Lower therefore bumps a counter between its
// store and the caller's release, and Target and MinFrontier rescan when
// the counter moved under them. (Publish never needs this: a published
// frontier only drops below its previous value through events a drain
// scheduled, and that drain has lowered it already.)
func (ss *ShardSync) Lower(k int, t Time) {
	if Time(ss.fr[k].v.Load()) > t {
		ss.fr[k].v.Store(int64(t))
		ss.lowered.Add(1)
	}
}

// Frontier returns shard k's last published frontier.
func (ss *ShardSync) Frontier(k int) Time { return Time(ss.fr[k].v.Load()) }

// Target returns the conservative execution bound for shard j — it may
// run every event strictly before the returned time — and the shard whose
// term set it (-1 when none did). outCap is the send time of j's earliest
// undrained outbound message (MaxTime when none); the caller must read it
// before calling Target. A receiver lowers its own frontier before it
// releases a drained slot (Lower), so a cap read first and a frontier read
// after can never both miss the delivery.
//
// The k == j term is the echo bound: outCap plus the minimum round trip
// covers every response to a send j has already made, and Target returns
// j when it binds. Sends j has yet to make are not covered: the caller
// must end its window right after any event that sends across and ask
// again. j's own published frontier plays no part, so with nothing in
// flight only foreign frontiers bound the window. MaxTime means j is
// unconstrained (no shard — itself included — can route influence to it,
// or all have terminated).
func (ss *ShardSync) Target(j int, outCap Time) (Time, int) {
	for {
		n := ss.lowered.Load()
		t, by := ss.target(j, outCap)
		if ss.lowered.Load() == n {
			return t, by
		}
	}
}

// target is one scan of Target's bound.
func (ss *ShardSync) target(j int, outCap Time) (Time, int) {
	t, by := Time(maxTime), -1
	m := *ss.la.Load()
	for k := range ss.fr {
		la := m[k][j]
		if la == maxTime {
			continue
		}
		f := outCap
		if k != j {
			f = Time(ss.fr[k].v.Load())
		}
		if f == maxTime {
			continue // k terminated (or j has nothing in flight): constrains nobody
		}
		if b := f + la; b < t {
			t, by = b, k
		}
	}
	return t, by
}

// Stopped reports whether an event called Stop during the engine's last
// Run, which then returned right after that event; the next Run clears
// it. The sharded loop uses it to tell a window a cross-shard send cut
// short from one that ran every event up to its limit.
func (e *Engine) Stopped() bool { return e.stopped }
