package sim

import "fmt"

// Conservative parallel-simulation support. A sharded run partitions the
// network into spatial shards, each owning a private Engine. Shards that
// can influence each other — a connected component of the lookahead
// graph — are stepped in turn on one goroutine, and components run in
// parallel. Shards advance their clocks under a Chandy–Misra–Bryant
// variant without null messages: every shard's frontier is its engine's
// exact next event time — published after each of its windows and
// lowered at once when another shard delivers an event to it — and each
// shard j may safely execute all events strictly before
//
//	target(j) = min over k ≠ j of frontier(k) + walkLookahead(k, j)
//
// where walkLookahead is the all-pairs minimum over walks in the direct
// lookahead graph (minimum cross-shard propagation delay between any two
// radios of the two shards). Relays: influence from k forwarded through
// intermediate shards is bounded transitively by the triangle inequality,
// because a delivery lowers the intermediate shard's frontier the moment
// it is sent. Echoes: a neighbour can react to a border arrival and
// transmit back within the same timestamp (tone-triggered aborts); the
// receiver's lowered frontier plus the lookahead back bounds that reply,
// and the shard loop ends every window right after an event that sends
// across and asks again, so each echo lands after everything the window
// ran. Frontiers are pure measurements (next event), never derived from
// other shards' frontiers, so targets converge in one step and the classic
// null-message creep cannot occur.
//
// Cross-shard events are injected with ScheduleCrossCall under a dedicated
// sequence-number space (CrossSeqBase | sender<<CrossSeqShardShift | local
// counter): the (time, seq) total order then interleaves cross traffic
// after same-tick local events deterministically, independent of when a
// message is inserted, which is what makes a fixed (seed, shards) pair
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
// 1 ns propagation-delay floor) and can leave two shards unable to
// advance past each other forever.
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

// ShardSync is the frontier table of one sharded run: each shard's
// frontier and the closed lookahead matrix. It holds no lock and no
// atomic: a finite lookahead couples two shards into one component, whose
// shards run on one goroutine, so Target only reads frontiers, and Lower
// only writes them, on the goroutine that publishes them; and the matrix
// changes only at an epoch join, before the component goroutines of the
// next epoch start.
type ShardSync struct {
	// walk closure: la[k][j] = min walk lookahead k→j (k==j: min cycle);
	// MaxTime = decoupled.
	la [][]Time
	fr []Time
}

// NewShardSync builds the frontier table for the given direct lookahead
// matrix (la[k][j] = minimum delay for shard k to influence shard j;
// MaxTime where no pair of radios is in range). The matrix is closed over
// walks of length ≥ 1 (Floyd–Warshall with the diagonal seeded to MaxTime
// — shard counts are small): off-diagonal entries become shortest paths,
// bounding relayed influence transitively, and diagonal entries become
// minimum cycles, which no target reads. Frontiers start at 0.
func NewShardSync(direct [][]Time) *ShardSync {
	s := len(direct)
	if s > MaxShards {
		panic(fmt.Sprintf("sim: %d shards exceeds MaxShards %d", s, MaxShards))
	}
	ss := &ShardSync{la: make([][]Time, s), fr: make([]Time, s)}
	for i := range ss.la {
		ss.la[i] = make([]Time, s)
	}
	ss.SetLookahead(direct)
	return ss
}

// SetLookahead replaces the lookahead table, in place, with the walk
// closure of a new direct matrix. Mobile sharded runs call it at every
// epoch join, when node movement has changed the minimum cross-shard
// distances.
func (ss *ShardSync) SetLookahead(direct [][]Time) {
	for i, row := range direct {
		copy(ss.la[i], row)
		ss.la[i][i] = maxTime // no self-edges: the diagonal closes to min cycle
	}
	closeWalks(ss.la)
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

// Lookahead returns the closed (minimum-walk) lookahead from shard k to
// shard j — for k == j the minimum round trip through any other shard;
// MaxTime when no such influence is possible.
func (ss *ShardSync) Lookahead(k, j int) Time { return ss.la[k][j] }

// Publish records shard k's frontier, its engine's next event time
// (Engine.NextLowerBound) — never a value derived from other shards'
// frontiers. Frontiers are not monotone: a delivery can schedule an event
// before the next one, and Lower keeps the frontier exact until k's next
// publication.
func (ss *ShardSync) Publish(k int, t Time) { ss.fr[k] = t }

// Lower lowers shard k's frontier to t when t is earlier: a cross-shard
// delivery has just scheduled an event at t on k's engine.
func (ss *ShardSync) Lower(k int, t Time) { ss.fr[k] = min(ss.fr[k], t) }

// Frontier returns shard k's frontier.
func (ss *ShardSync) Frontier(k int) Time { return ss.fr[k] }

// Target returns the conservative execution bound for shard j — it may
// run every event strictly before the returned time — and the shard whose
// term set it (-1 when none did). j's own frontier plays no part: a
// response to one of j's sends is bounded by the receiver's frontier,
// which the delivery lowered. Sends j has yet to make are not covered:
// the caller must end its window right after any event that sends across
// and ask again. MaxTime means j is unconstrained (no other shard can
// route influence to it).
func (ss *ShardSync) Target(j int) (Time, int) {
	t, by := Time(maxTime), -1
	for k := range ss.fr {
		la := ss.la[k][j]
		if k == j || la == maxTime {
			continue // j's own frontier, or another component's: never read
		}
		if f := ss.fr[k]; f != maxTime && f+la < t {
			t, by = f+la, k
		}
	}
	return t, by
}

// Stopped reports whether an event called Stop during the engine's last
// Run, which then returned right after that event; the next Run clears
// it. The sharded loop uses it to tell a window a cross-shard send cut
// short from one that ran every event up to its limit.
func (e *Engine) Stopped() bool { return e.stopped }
