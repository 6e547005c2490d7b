package phy

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"rmac/internal/frame"
	"rmac/internal/geom"
	"rmac/internal/sim"
)

// Cross-shard conduit — the PHY half of the sharded conservative parallel
// engine (see sim/parallel.go for the synchronization protocol and
// DESIGN.md §14 for the full derivation).
//
// A sharded run gives every spatial shard its own Medium on its own
// Engine/goroutine. Radios within one interference range of a shard
// boundary are marked border radios; for each of them the setup phase
// precomputes an immutable catalog per foreign shard: the in-range
// receivers over there, each with its exact propagation delay and
// decode-range flag. When a border radio transmits, aborts, or toggles a
// tone, the sender shard — in addition to its normal local fan-out —
// publishes a fixed-size message into a bounded SPSC ring per target
// shard. Messages carry a field-copied image of the frame (wireFrame), the
// event times, and a sender-minted sequence base in the engine's cross
// sequence space (sim.CrossSeq), which fixes the merge order at the
// receiver independent of wall-clock arrival.
//
// The receiver drains its rings between (and while waiting for) execution
// windows. Draining does NOT touch any simulation-visible pool: each
// message is copied into a conduit-owned holder (pendingCross) and a
// single holder event is scheduled at the message's earliest receiver
// event time under the sender's sequence base. All observable work — frame
// materialisation from the receiver's pool, mirror transmission setup,
// per-receiver rx scheduling — happens when the holder fires, which is a
// deterministic position in the receiver's event stream. This is what
// keeps pool hit/miss statistics (and therefore run fingerprints)
// bit-identical for a fixed (seed, shards) pair no matter how the OS
// schedules the shard goroutines.
//
// Mirror transmissions carry a ghost *Radio as their source: an
// unregistered, static radio with the foreign node's id and position. It
// is never part of the receiver medium's radio list, never transmits
// locally, and appears only as tx.src — every consumer of that field
// (trace, audit ObsRxEnd, fault's per-receiver error chains) is keyed by
// the receiving radio.

// crossKind enumerates conduit message types. The ghost records exist only
// in mobile runs: at every epoch boundary the rollover leader diffs the new
// border-band membership against the old and announces additions and
// removals to each receiver shard as stamped control records, so the ghost
// tables change at a deterministic position in every receiver's event
// stream (time = epoch boundary, sequence = sender-minted) instead of as a
// side effect of whichever message happens to arrive first.
const (
	crossTx uint8 = iota
	crossAbort
	crossToneOn
	crossToneOff
	crossGhostAdd
	crossGhostDel
)

// wireFrame is a field-copied image of a frame for ring transport: no
// pointers shared with the sender shard survive in it (slices are copied
// into the wireFrame's own reusable backing arrays).
type wireFrame struct {
	kind        frame.Kind
	flags       uint8
	transmitter frame.Addr
	receiver    frame.Addr
	seq32       uint32
	seq16       uint16
	duration    uint16
	expect      uint16
	receivers   []frame.Addr // MRTS only
	payload     []byte
}

// copyIn snapshots f. The concrete switch mirrors the eight frame kinds;
// slice contents are copied into w's capacity-reusing buffers.
func (w *wireFrame) copyIn(f frame.Frame) {
	w.receivers = w.receivers[:0]
	w.payload = w.payload[:0]
	w.flags, w.seq32, w.seq16, w.duration, w.expect = 0, 0, 0, 0, 0
	switch v := f.(type) {
	case *frame.MRTS:
		w.kind = frame.KindMRTS
		w.transmitter = v.Transmitter
		w.receivers = append(w.receivers, v.Receivers...)
	case *frame.RData:
		w.kind = frame.KindRData
		w.transmitter, w.receiver = v.Transmitter, v.Receiver
		w.seq32, w.flags = v.Seq, v.Flags
		w.payload = append(w.payload, v.Payload...)
	case *frame.UData:
		w.kind = frame.KindUData
		w.transmitter, w.receiver = v.Transmitter, v.Receiver
		w.seq32, w.flags = v.Seq, v.Flags
		w.payload = append(w.payload, v.Payload...)
	case *frame.RTS:
		w.kind = frame.KindRTS
		w.duration, w.receiver, w.transmitter = v.Duration, v.Receiver, v.Transmitter
	case *frame.CTS:
		w.kind = frame.KindCTS
		w.duration, w.receiver, w.transmitter = v.Duration, v.Receiver, v.Transmitter
		w.expect = v.Expect
	case *frame.ACK:
		w.kind = frame.KindACK
		w.duration, w.receiver, w.transmitter = v.Duration, v.Receiver, v.Transmitter
	case *frame.RAK:
		w.kind = frame.KindRAK
		w.duration, w.receiver, w.transmitter = v.Duration, v.Receiver, v.Transmitter
		w.seq16 = v.Seq
	case *frame.Data:
		w.kind = frame.KindData
		w.duration, w.receiver, w.transmitter = v.Duration, v.Receiver, v.Transmitter
		w.seq16 = v.Seq
		w.payload = append(w.payload, v.Payload...)
	default:
		panic(fmt.Sprintf("phy: cross conduit cannot transport %T", f))
	}
}

// copyFrom copies another wireFrame (ring slot → holder), again into w's
// own buffers.
func (w *wireFrame) copyFrom(o *wireFrame) {
	w.kind, w.flags = o.kind, o.flags
	w.transmitter, w.receiver = o.transmitter, o.receiver
	w.seq32, w.seq16, w.duration, w.expect = o.seq32, o.seq16, o.duration, o.expect
	w.receivers = append(w.receivers[:0], o.receivers...)
	w.payload = append(w.payload[:0], o.payload...)
}

// materialize acquires a frame of the snapshotted kind from the receiver
// shard's pool and fills it. Runs only at holder fire time.
func (w *wireFrame) materialize(p *frame.Pool) frame.Frame {
	switch w.kind {
	case frame.KindMRTS:
		f := p.MRTS()
		f.Transmitter = w.transmitter
		f.Receivers = append(f.Receivers, w.receivers...)
		return f
	case frame.KindRData:
		f := p.RData()
		f.Transmitter, f.Receiver = w.transmitter, w.receiver
		f.Seq, f.Flags = w.seq32, w.flags
		f.Payload = append(f.Payload, w.payload...)
		return f
	case frame.KindUData:
		f := p.UData()
		f.Transmitter, f.Receiver = w.transmitter, w.receiver
		f.Seq, f.Flags = w.seq32, w.flags
		f.Payload = append(f.Payload, w.payload...)
		return f
	case frame.KindRTS:
		f := p.RTS()
		f.Duration, f.Receiver, f.Transmitter = w.duration, w.receiver, w.transmitter
		return f
	case frame.KindCTS:
		f := p.CTS()
		f.Duration, f.Receiver, f.Transmitter = w.duration, w.receiver, w.transmitter
		f.Expect = w.expect
		return f
	case frame.KindACK:
		f := p.ACK()
		f.Duration, f.Receiver, f.Transmitter = w.duration, w.receiver, w.transmitter
		return f
	case frame.KindRAK:
		f := p.RAK()
		f.Duration, f.Receiver, f.Transmitter = w.duration, w.receiver, w.transmitter
		f.Seq = w.seq16
		return f
	case frame.KindData:
		f := p.Data()
		f.Duration, f.Receiver, f.Transmitter = w.duration, w.receiver, w.transmitter
		f.Seq = w.seq16
		f.Payload = append(f.Payload, w.payload...)
		return f
	}
	panic(fmt.Sprintf("phy: cross conduit cannot materialize kind %v", w.kind))
}

// crossDest is one receiver in a catalog: its index into the receiver
// medium's radio slice, the exact propagation delay from the source
// radio's (static) position, and whether it sits within decode range.
type crossDest struct {
	idx    int32
	prop   sim.Time
	inComm bool
}

// crossCatalog is the immutable receiver set of one (border radio, target
// shard) pair. Stationary runs compute it once at setup from the static
// placement: dests carry exact propagation delays and minProp is their
// minimum. Mobile runs rebuild catalogs at every epoch boundary from the
// boundary positions: dests are then *candidates* — every foreign radio
// that could come within interference range during the epoch (boundary
// distance ≤ irange + envelope) — with prop/inComm left zero, and minProp
// is the conservative bound propDelay(max(0, minBoundaryDist − envelope)).
// Either way a catalog is immutable once published: epoch rollover swaps
// in freshly allocated catalogs, so in-flight holders referencing the old
// epoch's catalog stay valid.
type crossCatalog struct {
	srcID   int
	minProp sim.Time
	dests   []crossDest
}

// crossMsg is one ring slot. Slots are reused in place; the embedded
// wireFrame keeps its backing arrays across messages. srcPos and gid only
// matter in mobile runs: srcPos is the sender's position at t0 (crossTx,
// crossToneOn — receiver-side physics needs it since no exact props are
// baked into mobile catalogs) or the ghost's boundary position
// (crossGhostAdd); gid names the ghost for the two ghost record kinds,
// which travel with cat == nil.
type crossMsg struct {
	kind    uint8
	tone    uint8
	gid     int32
	cat     *crossCatalog
	t0      sim.Time // tx start / abort time / tone transition / epoch boundary
	t1      sim.Time // tx natural end (crossTx); original tx start (crossAbort)
	seqBase uint64
	srcPos  geom.Point
	fr      wireFrame
}

// spscRing is a bounded single-producer single-consumer ring. The producer
// is the sender shard's simulation goroutine, the consumer the receiver
// shard's. Capacity is a power of two; a full ring makes the producer spin
// (draining its own inboxes to break producer cycles — see send).
type spscRing struct {
	head  atomic.Uint64 // next slot the consumer will read
	_     [56]byte
	tail  atomic.Uint64 // next slot the producer will write
	_     [56]byte
	slots []crossMsg
	mask  uint64
}

const crossRingCap = 1024

func newRing() *spscRing {
	return &spscRing{slots: make([]crossMsg, crossRingCap), mask: crossRingCap - 1}
}

// pendingCross is the receiver-side holder: the drained image of one
// message plus the free-list link. Holders are conduit-private — acquiring
// one at drain time is invisible to the simulation, which is what keeps
// drain timing out of the deterministic state.
type pendingCross struct {
	c       *shardConduit
	kind    uint8
	tone    uint8
	gid     int32
	cat     *crossCatalog
	t0, t1  sim.Time
	seqBase uint64
	srcPos  geom.Point
	fr      wireFrame
	next    *pendingCross
}

// Call implements sim.Caller: the holder fired at the message's earliest
// receiver event time.
func (p *pendingCross) Call(int32) { p.c.fire(p) }

// mirrorKey identifies a mirror transmission for abort routing: foreign
// transmissions are uniquely named by (source node, start time) — a radio
// transmits at most once at a time.
type mirrorKey struct {
	src   int
	start sim.Time
}

// mirrorExp is one entry of the mirror table's expiry queue.
type mirrorExp struct {
	key    mirrorKey
	expire sim.Time
}

// ShardStats counts one shard's conduit traffic. MsgsOut/MsgsIn and the
// ghost churn counters are deterministic for a fixed (seed, shards);
// FullSpins is wall-clock scheduling observability and excluded from any
// fingerprint. GhostAdds/GhostDels count ghost installs and removals at
// this (receiver) shard — the initial-epoch setup installs plus every
// ghost record firing, so GhostAdds-GhostDels is the live ghost count.
// Stationary runs keep their ghost tables static and count only the
// setup installs.
type ShardStats struct {
	MsgsOut   uint64
	MsgsIn    uint64
	GhostAdds uint64
	GhostDels uint64
	FullSpins uint64
}

// toneSessKey names a mobile receiver-side tone session: foreign tones are
// uniquely live per (source node, tone) pair.
type toneSessKey struct {
	src  int
	tone uint8
}

// shardConduit is one shard's half of the cross-shard fabric, owned by
// that shard's Medium/goroutine.
type shardConduit struct {
	net   *ShardNet
	med   *Medium
	shard int

	// Sender state.
	out      []*spscRing                // per target shard; nil where no pairs
	catalogs map[*Radio][]*crossCatalog // border radio → per-target catalogs (index parallel to outIdx)
	catIdx   map[*Radio][]int           // target shard index per catalog
	localSeq uint64
	endTime  sim.Time

	// Receiver state.
	in       []*spscRing // per source shard; nil where no pairs
	ghosts   map[int]*Radio
	free     *pendingCross
	mirrors  map[mirrorKey]*transmission
	expQueue []mirrorExp
	maxProp  sim.Time // max inbound prop; bounds how long an abort can trail

	// Mobile receiver state: foreign tone sessions, keyed by (source node,
	// tone). The ON fire captures the receivers actually in range at the
	// transition (with their live propagation delays); the OFF fire replays
	// exactly that set, mirroring the unsharded toneSession contract.
	toneSess map[toneSessKey]*toneSession

	stats ShardStats
}

// ShardNet is the cross-shard fabric of one sharded run: conduits, rings,
// the direct lookahead matrix, and the frontier table built from it.
// Stationary runs derive the matrix once from the static placement; mobile
// runs rebuild it (and every catalog, border flag, and ghost set) at each
// epoch boundary via Rebuild.
type ShardNet struct {
	conduits []*shardConduit
	direct   [][]sim.Time
	sync     *sim.ShardSync
	stop     atomic.Bool

	// Mobile epoch state. localIdx/shardOf/mediums are setup-time constants;
	// prevGhost — the per-(sender, receiver) sorted ghost-source id sets of
	// the current epoch — is owned by the rollover leader and only touched
	// inside the boundary barrier.
	mobile    bool
	envelope  float64 // max pairwise distance change within one epoch (2·MaxSpeed·epoch)
	irange    float64
	r2, c2    float64 // irange², CommRange²
	seqBlock  uint64  // uniform per-message sequence stride (2·nodes+2)
	mediums   []*Medium
	localIdx  []int32
	shardOf   []int
	prevGhost [][][]int
}

// ConnectShards wires the mediums of one sharded run together. pos holds
// every node's static position (sharded runs are stationary by contract),
// shardOf maps global node id → owning shard. Each medium must already
// hold exactly its shard's radios, registered in ascending global id
// order. endTime is the run horizon: messages whose earliest receiver
// event falls strictly after it are dropped at the sender, matching the
// unsharded engine's never-run semantics and guaranteeing no message can
// chase a shard that already ran its final window.
func ConnectShards(mediums []*Medium, pos []geom.Point, shardOf []int, endTime sim.Time) *ShardNet {
	s := len(mediums)
	net := &ShardNet{conduits: make([]*shardConduit, s), direct: make([][]sim.Time, s)}
	for i := range net.direct {
		net.direct[i] = make([]sim.Time, s)
		for j := range net.direct[i] {
			net.direct[i][j] = sim.MaxTime
		}
	}
	localIdx := make([]int32, len(pos))
	for _, m := range mediums {
		for li, r := range m.radios {
			localIdx[r.id] = int32(li)
		}
	}
	for i, m := range mediums {
		net.conduits[i] = &shardConduit{
			net: net, med: m, shard: i,
			out: make([]*spscRing, s), in: make([]*spscRing, s),
			catalogs: make(map[*Radio][]*crossCatalog),
			catIdx:   make(map[*Radio][]int),
			ghosts:   make(map[int]*Radio),
			mirrors:  make(map[mirrorKey]*transmission),
			endTime:  endTime,
		}
	}

	// Cell-hash the whole placement at the interference range so border
	// discovery is O(n · neighbors) instead of O(n²): only cross-shard
	// pairs within range matter.
	irange := mediums[0].cfg.interferenceRange()
	cell := irange
	type cellKey struct{ x, y int }
	cells := make(map[cellKey][]int)
	for id := range pos {
		k := cellKey{int(math.Floor(pos[id].X / cell)), int(math.Floor(pos[id].Y / cell))}
		cells[k] = append(cells[k], id)
	}
	r2 := irange * irange
	c2 := mediums[0].cfg.CommRange * mediums[0].cfg.CommRange
	// cats[src][target] accumulates receiver lists; built in ascending
	// (src, neighbor-cell, id) order, then dests sorted by id implicitly:
	// neighbor ids are gathered per source and sorted below.
	for src := range pos {
		ss := shardOf[src]
		base := cellKey{int(math.Floor(pos[src].X / cell)), int(math.Floor(pos[src].Y / cell))}
		var perShard map[int][]crossDest
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, o := range cells[cellKey{base.x + dx, base.y + dy}] {
					if o == src || shardOf[o] == ss {
						continue
					}
					d2 := pos[o].Dist2(pos[src])
					if d2 > r2 {
						continue
					}
					if perShard == nil {
						perShard = make(map[int][]crossDest)
					}
					perShard[shardOf[o]] = append(perShard[shardOf[o]], crossDest{
						idx:    localIdx[o],
						prop:   mediums[0].propDelay(math.Sqrt(d2)),
						inComm: d2 <= c2,
					})
				}
			}
		}
		if perShard == nil {
			continue
		}
		srcRadio := mediums[ss].radios[localIdx[src]]
		srcRadio.border = true
		c := net.conduits[ss]
		for t := 0; t < s; t++ {
			dests := perShard[t]
			if len(dests) == 0 {
				continue
			}
			// Deterministic receiver order: ascending global id. Radios
			// register in id order, so the local index is monotone in id.
			sortDests(dests)
			cat := &crossCatalog{srcID: src, minProp: sim.MaxTime, dests: dests}
			for _, d := range dests {
				if d.prop < cat.minProp {
					cat.minProp = d.prop
				}
			}
			c.catalogs[srcRadio] = append(c.catalogs[srcRadio], cat)
			c.catIdx[srcRadio] = append(c.catIdx[srcRadio], t)
			if cat.minProp < net.direct[ss][t] {
				net.direct[ss][t] = cat.minProp
			}
			if c.out[t] == nil {
				ring := newRing()
				c.out[t] = ring
				net.conduits[t].in[ss] = ring
			}
			// Receiver-side ghost + expiry bound.
			rc := net.conduits[t]
			if rc.ghosts[src] == nil {
				rc.stats.GhostAdds++
				g := &Radio{m: mediums[t], eng: mediums[t].eng, id: src, static: true, pos: pos[src]}
				for ti := range g.toneLog {
					g.toneLog[ti].onSince = -1
				}
				rc.ghosts[src] = g
			}
			for _, d := range dests {
				if d.prop > rc.maxProp {
					rc.maxProp = d.prop
				}
			}
		}
	}
	for i, m := range mediums {
		m.cross = net.conduits[i]
	}
	net.sync = sim.NewShardSync(net.direct)
	return net
}

// sortDests sorts a catalog by local radio index (== ascending global id);
// catalogs are tiny, insertion sort avoids a sort.Slice closure.
func sortDests(d []crossDest) {
	for i := 1; i < len(d); i++ {
		for j := i; j > 0 && d[j].idx < d[j-1].idx; j-- {
			d[j], d[j-1] = d[j-1], d[j]
		}
	}
}

// ConnectShardsMobile wires the mediums of a mobile sharded run together.
// pos holds every node's position at t=0; envelope bounds how much any
// pairwise distance can change within one mobility epoch (2 × MaxSpeed ×
// epoch length). Unlike the stationary fabric, catalogs here are candidate
// sets over conservative position envelopes, valid for exactly one epoch:
// the experiment layer must call Rebuild at every epoch boundary with the
// boundary positions (see DESIGN.md §15 for the barrier protocol).
//
// The ring topology is fixed up front — every ordered shard pair gets its
// ring even if no pair of radios is currently in reach — so epoch rollover
// never has to publish new rings to a foreign goroutine; only the border
// membership churns.
func ConnectShardsMobile(mediums []*Medium, pos []geom.Point, shardOf []int, endTime sim.Time, envelope float64) *ShardNet {
	s := len(mediums)
	irange := mediums[0].cfg.interferenceRange()
	cr := mediums[0].cfg.CommRange
	net := &ShardNet{
		conduits:  make([]*shardConduit, s),
		direct:    make([][]sim.Time, s),
		mobile:    true,
		envelope:  envelope,
		irange:    irange,
		r2:        irange * irange,
		c2:        cr * cr,
		seqBlock:  2*uint64(len(pos)) + 2,
		mediums:   mediums,
		localIdx:  make([]int32, len(pos)),
		shardOf:   shardOf,
		prevGhost: make([][][]int, s),
	}
	for i := range net.direct {
		net.direct[i] = make([]sim.Time, s)
		net.prevGhost[i] = make([][]int, s)
	}
	for _, m := range mediums {
		for li, r := range m.radios {
			net.localIdx[r.id] = int32(li)
		}
	}
	// maxProp bounds every actual mirror prop forever: receivers beyond the
	// interference range are filtered at fire time.
	maxProp := mediums[0].propDelay(irange)
	for i, m := range mediums {
		net.conduits[i] = &shardConduit{
			net: net, med: m, shard: i,
			out:      make([]*spscRing, s),
			in:       make([]*spscRing, s),
			catalogs: make(map[*Radio][]*crossCatalog),
			catIdx:   make(map[*Radio][]int),
			ghosts:   make(map[int]*Radio),
			mirrors:  make(map[mirrorKey]*transmission),
			toneSess: make(map[toneSessKey]*toneSession),
			endTime:  endTime,
			maxProp:  maxProp,
		}
	}
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			if i == j {
				continue
			}
			ring := newRing()
			net.conduits[i].out[j] = ring
			net.conduits[j].in[i] = ring
		}
	}
	net.rebuild(pos, 0, 0, false)
	for i, m := range mediums {
		m.cross = net.conduits[i]
	}
	net.sync = sim.NewShardSync(net.direct)
	return net
}

// Rebuild recomputes the epoch state — candidate catalogs, border flags,
// ghost membership, and the direct lookahead matrix — from the node
// positions at epoch boundary B. Ghost membership changes are announced to
// each receiver shard as crossGhostAdd/crossGhostDel records stamped at
// t=B with sender-minted sequence numbers.
//
// MUST be called only by the rollover leader while every shard is parked
// at the boundary barrier (all frontiers ≥ B): it rewrites sender state
// (catalogs, border flags, localSeq) owned by other shards' goroutines,
// which is only race-free under the barrier's happens-before chain —
// frontier release-stores before parking, epoch-generation release-store
// after Rebuild returns.
func (n *ShardNet) Rebuild(pos []geom.Point, B sim.Time, leader int) {
	n.rebuild(pos, B, leader, true)
}

func (n *ShardNet) rebuild(pos []geom.Point, B sim.Time, leader int, emit bool) {
	s := len(n.conduits)
	for i := range n.direct {
		for j := range n.direct[i] {
			n.direct[i][j] = sim.MaxTime
		}
	}
	for _, c := range n.conduits {
		for _, r := range c.med.radios {
			r.border = false
		}
		// Fresh maps, not cleared ones: in-flight holders may still point at
		// old-epoch catalogs, and those must stay intact until they fire.
		c.catalogs = make(map[*Radio][]*crossCatalog)
		c.catIdx = make(map[*Radio][]int)
	}
	newGhost := make([][][]int, s)
	for i := range newGhost {
		newGhost[i] = make([][]int, s)
	}
	// Candidate reach: any pair within irange+envelope at B can interact
	// during the epoch; any pair beyond it provably cannot (each endpoint
	// contributes at most envelope/2 of displacement).
	reach := n.irange + n.envelope
	cell := reach
	type cellKey struct{ x, y int }
	cells := make(map[cellKey][]int)
	for id := range pos {
		k := cellKey{int(math.Floor(pos[id].X / cell)), int(math.Floor(pos[id].Y / cell))}
		cells[k] = append(cells[k], id)
	}
	reach2 := reach * reach
	for src := range pos {
		ss := n.shardOf[src]
		base := cellKey{int(math.Floor(pos[src].X / cell)), int(math.Floor(pos[src].Y / cell))}
		var perShard map[int][]crossDest
		var minD2 map[int]float64
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, o := range cells[cellKey{base.x + dx, base.y + dy}] {
					if o == src || n.shardOf[o] == ss {
						continue
					}
					d2 := pos[o].Dist2(pos[src])
					if d2 > reach2 {
						continue
					}
					if perShard == nil {
						perShard = make(map[int][]crossDest)
						minD2 = make(map[int]float64)
					}
					t := n.shardOf[o]
					if cur, ok := minD2[t]; !ok || d2 < cur {
						minD2[t] = d2
					}
					perShard[t] = append(perShard[t], crossDest{idx: n.localIdx[o]})
				}
			}
		}
		if perShard == nil {
			continue
		}
		srcRadio := n.mediums[ss].radios[n.localIdx[src]]
		srcRadio.border = true
		c := n.conduits[ss]
		for t := 0; t < s; t++ {
			dests := perShard[t]
			if len(dests) == 0 {
				continue
			}
			sortDests(dests)
			dmin := math.Sqrt(minD2[t]) - n.envelope
			if dmin < 0 {
				dmin = 0
			}
			cat := &crossCatalog{srcID: src, minProp: n.mediums[0].propDelay(dmin), dests: dests}
			c.catalogs[srcRadio] = append(c.catalogs[srcRadio], cat)
			c.catIdx[srcRadio] = append(c.catIdx[srcRadio], t)
			if cat.minProp < n.direct[ss][t] {
				n.direct[ss][t] = cat.minProp
			}
			newGhost[ss][t] = append(newGhost[ss][t], src)
		}
	}
	// Diff ghost membership per ordered shard pair. Sources were visited in
	// ascending id order, so both slices are sorted; a merge walk yields the
	// additions and removals in ascending id order, which fixes the record
	// sequence numbers deterministically.
	for ss := 0; ss < s; ss++ {
		for t := 0; t < s; t++ {
			if ss == t {
				continue
			}
			old, cur := n.prevGhost[ss][t], newGhost[ss][t]
			i, j := 0, 0
			for i < len(old) || j < len(cur) {
				switch {
				case j >= len(cur) || (i < len(old) && old[i] < cur[j]):
					if emit {
						n.ghostRecord(ss, t, leader, crossGhostDel, old[i], geom.Point{}, B)
					} else {
						n.conduits[t].stats.GhostDels++
						delete(n.conduits[t].ghosts, old[i])
					}
					i++
				case i >= len(old) || cur[j] < old[i]:
					if emit {
						n.ghostRecord(ss, t, leader, crossGhostAdd, cur[j], pos[cur[j]], B)
					} else {
						n.conduits[t].stats.GhostAdds++
						n.conduits[t].ghost(cur[j], pos[cur[j]])
					}
					j++
				default:
					i++
					j++
				}
			}
			n.prevGhost[ss][t] = cur
		}
	}
}

// ghostRecord publishes one ghost membership record from shard ss to shard
// t on behalf of the rollover leader. It cannot use the normal send() path:
// that spins draining *shard ss's* inbox, but the leader may only touch its
// own conduit. Receivers parked at the barrier drain their rings while
// spinning on the epoch generation, so a full ring targeting a follower
// always makes progress; a full ring targeting the leader itself is drained
// right here.
func (n *ShardNet) ghostRecord(ss, t, leader int, kind uint8, src int, pos geom.Point, B sim.Time) {
	c := n.conduits[ss]
	ring := c.out[t]
	seqBase := sim.CrossSeq(ss, c.localSeq)
	c.localSeq += n.seqBlock
	for {
		tail := ring.tail.Load()
		if tail-ring.head.Load() < uint64(len(ring.slots)) {
			slot := &ring.slots[tail&ring.mask]
			slot.kind, slot.tone, slot.cat = kind, 0, nil
			slot.gid = int32(src)
			slot.srcPos = pos
			slot.t0, slot.t1, slot.seqBase = B, 0, seqBase
			ring.tail.Store(tail + 1)
			c.stats.MsgsOut++
			return
		}
		if n.stop.Load() {
			return
		}
		c.stats.FullSpins++
		if t == leader {
			n.conduits[leader].drain()
		} else {
			runtime.Gosched()
		}
	}
}

// ghost returns the receiver-side ghost radio for foreign node src,
// creating it on demand. Creation is deterministic wherever it happens: a
// ghost record firing at an epoch boundary, or a mirror transmission whose
// holder crossed the boundary after the source left the border band (its
// crossGhostDel already fired — the mirror recreates the ghost it needs).
func (c *shardConduit) ghost(src int, pos geom.Point) *Radio {
	g := c.ghosts[src]
	if g == nil {
		g = &Radio{m: c.med, eng: c.med.eng, id: src, static: true, pos: pos, memoTime: -1}
		for ti := range g.toneLog {
			g.toneLog[ti].onSince = -1
		}
		c.ghosts[src] = g
	} else {
		g.pos = pos
	}
	return g
}

// Direct returns the direct lookahead matrix: Direct()[k][j] is the
// minimum cross-shard propagation delay from shard k to shard j
// (sim.MaxTime where no pair of radios is in range). Mobile runs feed it
// to Sync().SetLookahead after every Rebuild.
func (n *ShardNet) Direct() [][]sim.Time { return n.direct }

// Sync returns the run's frontier table, built from the direct matrix at
// connect time. Drains lower a receiver's frontier in it before they
// release ring slots, so the shard loop must publish and read frontiers
// through this table.
func (n *ShardNet) Sync() *sim.ShardSync { return n.sync }

// Stop releases every producer blocked on a full ring (messages are
// dropped from then on). Called when a sharded run aborts; determinism is
// only contracted for runs that complete.
func (n *ShardNet) Stop() { n.stop.Store(true) }

// Stats returns shard j's conduit counters.
func (n *ShardNet) Stats(j int) ShardStats { return n.conduits[j].stats }

// OutCap returns the earliest send time among shard j's undrained outbound
// messages, or sim.MaxTime when every outbound ring is empty. A shard's
// published frontier must not exceed this cap: until a receiver has
// drained a message, the closure argument needs the sender's frontier to
// still cover that message's send time — otherwise a third shard reading
// the (already advanced) frontier could under-estimate how early the
// receiver can relay it (see DESIGN.md §14).
//
// Send times are monotone per ring (the sender's clock only advances), so
// the head slot holds each ring's minimum. Safe to call from shard j's
// goroutine only: slots are written by j alone, and a consumer advancing
// head concurrently merely makes the cap conservatively low.
func (n *ShardNet) OutCap(j int) sim.Time {
	lb := sim.MaxTime
	for _, ring := range n.conduits[j].out {
		if ring == nil {
			continue
		}
		h := ring.head.Load()
		if h == ring.tail.Load() {
			continue
		}
		if t := ring.slots[h&ring.mask].t0; t < lb {
			lb = t
		}
	}
	return lb
}

// Drain consumes every queued inbound message of shard j and schedules
// the corresponding holder events. Must be called from shard j's
// goroutine: between execution windows, while waiting at the frontier
// barrier, and (via the producer spin path) while blocked on a full
// outbound ring.
func (n *ShardNet) Drain(j int) { n.conduits[j].drain() }

func (c *shardConduit) drain() {
	for _, ring := range c.in {
		if ring == nil {
			continue
		}
		h := ring.head.Load()
		t := ring.tail.Load()
		if h == t {
			continue
		}
		first := sim.MaxTime
		for ; h != t; h++ {
			slot := &ring.slots[h&ring.mask]
			p := c.takeHolder()
			p.kind, p.tone, p.gid, p.cat = slot.kind, slot.tone, slot.gid, slot.cat
			p.t0, p.t1, p.seqBase = slot.t0, slot.t1, slot.seqBase
			p.srcPos = slot.srcPos
			if slot.kind == crossTx {
				p.fr.copyFrom(&slot.fr)
			}
			c.stats.MsgsIn++
			at := p.t0
			if p.cat != nil {
				at += p.cat.minProp // ghost records (cat==nil) fire at the boundary itself
			}
			c.med.eng.ScheduleCrossCall(at, p, 0, p.seqBase)
			first = min(first, at)
		}
		// Cover the deliveries with this shard's frontier before handing the
		// slots back: the release lifts the sender's OutCap, and otherwise,
		// for a moment, neither frontier covers them and a shard may run
		// past their consequences (DESIGN.md §14).
		c.net.sync.Lower(c.shard, first)
		ring.head.Store(t)
	}
}

func (c *shardConduit) takeHolder() *pendingCross {
	if p := c.free; p != nil {
		c.free = p.next
		p.next = nil
		return p
	}
	return &pendingCross{c: c}
}

func (c *shardConduit) putHolder(p *pendingCross) {
	p.cat = nil
	p.next = c.free
	c.free = p
}

// fire runs a holder event: the deterministic point where a cross message
// becomes simulation state.
func (c *shardConduit) fire(p *pendingCross) {
	m := c.med
	switch p.kind {
	case crossTx:
		if c.net.mobile {
			c.fireTxMobile(p)
			break
		}
		tx := m.newTx()
		tx.src = c.ghosts[p.cat.srcID]
		tx.f = p.fr.materialize(m.frames)
		tx.start, tx.end = p.t0, p.t1
		// No local txDone ever runs for a mirror: the sender shard owns
		// the sender-side lifecycle. finished=true makes the last rxEnd
		// recycle the mirror and release its frame.
		tx.finished = true
		seq := p.seqBase + 1
		for _, d := range p.cat.dests {
			q := m.newRxPath()
			q.tx, q.r, q.inComm, q.prop = tx, m.radios[d.idx], d.inComm, d.prop
			tx.dests = append(tx.dests, q)
			m.eng.ScheduleCrossCall(p.t0+d.prop, q, tagRxStart, seq)
			q.endEv = m.eng.ScheduleCrossCall(p.t1+d.prop, q, tagRxEnd, seq+1)
			seq += 2
		}
		tx.pending = len(tx.dests)
		key := mirrorKey{p.cat.srcID, p.t0}
		c.evictExpired()
		c.mirrors[key] = tx
		c.expQueue = append(c.expQueue, mirrorExp{key: key, expire: p.t1 + c.maxProp})
	case crossAbort:
		// p.t1 is the original start time (the mirror's key), p.t0 the
		// abort instant. Stationary: the abort holder fires at t0+minProp,
		// strictly before the mirror's first rxEnd (t1'>t0 ⇒ end+prop >
		// t0+prop ≥ t0+minProp), so every path is still intact; the guards
		// mirror AbortTx's belt-and-braces. Mobile: a transmission that
		// spans an epoch boundary carries props sampled under the previous
		// epoch's envelope, which the current epoch's lookahead floor may
		// exceed — the clamp below then lands the truncation at the holder
		// instant (a deterministic position; at most minProp late, sub-µs).
		tx := c.mirrors[mirrorKey{p.cat.srcID, p.t1}]
		seq := p.seqBase + 1
		if tx != nil && !tx.aborted {
			now := m.eng.Now()
			tx.aborted = true
			tx.end = p.t0
			for _, q := range tx.dests {
				s := seq
				seq++
				if q.tx != tx || !q.endEv.Pending() {
					continue
				}
				q.corrupted = true
				q.endEv.Cancel()
				at := p.t0 + q.prop
				if at < now {
					at = now
				}
				q.endEv = m.eng.ScheduleCrossCall(at, q, tagRxEnd, s)
			}
			delete(c.mirrors, mirrorKey{p.cat.srcID, p.t1})
		}
	case crossToneOn, crossToneOff:
		if c.net.mobile {
			c.fireToneMobile(p)
			break
		}
		tag := toneOffTag(Tone(p.tone))
		if p.kind == crossToneOn {
			tag = toneOnTag(Tone(p.tone))
		}
		seq := p.seqBase + 1
		for _, d := range p.cat.dests {
			m.eng.ScheduleCrossCall(p.t0+d.prop, m.radios[d.idx], tag, seq)
			seq++
		}
	case crossGhostAdd:
		c.stats.GhostAdds++
		c.ghost(int(p.gid), p.srcPos)
	case crossGhostDel:
		c.stats.GhostDels++
		delete(c.ghosts, int(p.gid))
		// A source leaving the border band can no longer route its tone OFF
		// through the conduit (its catalogs toward this shard are empty), so
		// any tone it still holds here would jam its captured receivers for
		// the rest of the run. Drop those sessions at the boundary instead:
		// the receivers are by now > irange away, so losing the tone early
		// is the physically conservative reading of the captured-set
		// contract. 2 tones × (nodes−1) dests fits the 2·nodes+2 sequence
		// block.
		seq := p.seqBase + 1
		for t := Tone(0); t < NumTones; t++ {
			key := toneSessKey{src: int(p.gid), tone: uint8(t)}
			sess := c.toneSess[key]
			if sess == nil {
				continue
			}
			delete(c.toneSess, key)
			for i, r := range sess.dests {
				m.eng.ScheduleCrossCall(p.t0+sess.props[i], r, toneOffTag(t), seq)
				seq++
			}
			m.freeSess(sess)
		}
	}
	c.putHolder(p)
}

// fireTxMobile mirrors a foreign transmission under mobility: the catalog
// only names candidates, so the actual receiver set, propagation delays,
// and decode flags are computed here from the sender's position at t0
// (carried in the message) and each candidate's own trajectory at t0 (a
// backward query bounded by minProp ≪ the retention horizon). Every
// candidate consumes its two sequence numbers whether or not it is in
// range, so the merge order is independent of the filter outcome.
func (c *shardConduit) fireTxMobile(p *pendingCross) {
	m := c.med
	tx := m.newTx()
	tx.src = c.ghost(p.cat.srcID, p.srcPos)
	tx.f = p.fr.materialize(m.frames)
	tx.start, tx.end = p.t0, p.t1
	tx.finished = true
	seq := p.seqBase + 1
	for _, d := range p.cat.dests {
		s := seq
		seq += 2
		r := m.radios[d.idx]
		d2 := m.positionAt(r, p.t0).Dist2(p.srcPos)
		if d2 > c.net.r2 {
			continue
		}
		q := m.newRxPath()
		q.tx, q.r, q.inComm = tx, r, d2 <= c.net.c2
		q.prop = m.propDelay(math.Sqrt(d2))
		tx.dests = append(tx.dests, q)
		m.eng.ScheduleCrossCall(p.t0+q.prop, q, tagRxStart, s)
		q.endEv = m.eng.ScheduleCrossCall(p.t1+q.prop, q, tagRxEnd, s+1)
	}
	tx.pending = len(tx.dests)
	if tx.pending == 0 {
		// Every candidate drifted out of reach by t0: nothing will ever
		// reference this mirror (aborts look up the mirror table, which we
		// skip), so recycle it and its frame immediately.
		m.freeTx(tx)
		return
	}
	key := mirrorKey{p.cat.srcID, p.t0}
	c.evictExpired()
	c.mirrors[key] = tx
	c.expQueue = append(c.expQueue, mirrorExp{key: key, expire: p.t1 + c.maxProp})
}

// fireToneMobile handles foreign tone transitions under mobility. The ON
// fire captures the live receiver set (positions at t0) into a session
// keyed by (source, tone); the OFF fire replays exactly that session with
// the ON delays — the unsharded SetTone contract. An OFF whose ON was
// horizon-filtered at the sender finds no session and is a no-op, matching
// the unsharded engine's never-run semantics. An OFF-then-ON pair where
// only the OFF was filtered leaves a stale session behind; the next ON
// replaces it. As with aborts, a tone held across epoch boundaries may
// carry ON props below the current lookahead floor, so OFF transitions
// clamp to the holder instant.
func (c *shardConduit) fireToneMobile(p *pendingCross) {
	m := c.med
	key := toneSessKey{src: p.cat.srcID, tone: p.tone}
	if p.kind == crossToneOff {
		sess := c.toneSess[key]
		if sess == nil {
			return
		}
		delete(c.toneSess, key)
		now := m.eng.Now()
		seq := p.seqBase + 1
		for i, r := range sess.dests {
			at := p.t0 + sess.props[i]
			if at < now {
				at = now
			}
			m.eng.ScheduleCrossCall(at, r, toneOffTag(Tone(p.tone)), seq)
			seq++
		}
		m.freeSess(sess)
		return
	}
	if old := c.toneSess[key]; old != nil {
		m.freeSess(old) // stale session from a horizon-filtered OFF
	}
	sess := m.newSess()
	seq := p.seqBase + 1
	for _, d := range p.cat.dests {
		s := seq
		seq++
		r := m.radios[d.idx]
		d2 := m.positionAt(r, p.t0).Dist2(p.srcPos)
		if d2 > c.net.r2 {
			continue
		}
		prop := m.propDelay(math.Sqrt(d2))
		sess.dests = append(sess.dests, r)
		sess.props = append(sess.props, prop)
		m.eng.ScheduleCrossCall(p.t0+prop, r, toneOnTag(Tone(p.tone)), s)
	}
	c.toneSess[key] = sess
}

// evictExpired drops mirror-table entries whose abort can no longer
// arrive: an abort happens strictly before the natural end, so its holder
// fires before end+minProp ≤ end+maxProp. Amortized O(1) via the FIFO
// expiry queue.
func (c *shardConduit) evictExpired() {
	now := c.med.eng.Now()
	i := 0
	for ; i < len(c.expQueue) && c.expQueue[i].expire < now; i++ {
		delete(c.mirrors, c.expQueue[i].key)
	}
	if i > 0 {
		n := copy(c.expQueue, c.expQueue[i:])
		c.expQueue = c.expQueue[:n]
	}
}

// send publishes one message to target shard t, spinning when the ring is
// full. A blocked producer drains its own inboxes each spin: a cycle of
// mutually-full shards always has every participant emptying its inbound
// rings, so some producer always unblocks — production cannot deadlock.
func (c *shardConduit) send(t int, fill func(slot *crossMsg)) {
	ring := c.out[t]
	spins := 0
	for {
		tail := ring.tail.Load()
		if tail-ring.head.Load() < uint64(len(ring.slots)) {
			slot := &ring.slots[tail&ring.mask]
			fill(slot)
			ring.tail.Store(tail + 1)
			c.stats.MsgsOut++
			return
		}
		if c.net.stop.Load() {
			return // aborting run: drop rather than block forever
		}
		c.stats.FullSpins++
		c.drain()
		if spins < 256 {
			runtime.Gosched()
		} else {
			d := time.Duration(spins)
			if d > 100 {
				d = 100
			}
			time.Sleep(d * time.Microsecond)
		}
		spins++
	}
}

// mintSeq reserves a block of cross sequence numbers and returns its base.
// Stationary runs reserve exactly what the message can consume (the
// catalog is exact). Mobile runs reserve a uniform stride instead: a tone
// OFF replays its ON-time session, whose size is bounded by a *previous*
// epoch's catalog, not the current one — a content-sized stride could
// collide with the next message's block. 2·nodes+2 bounds every message
// kind, and the 48-bit per-shard space absorbs the slack (2^48 / stride
// messages per shard).
func (c *shardConduit) mintSeq(n uint64) uint64 {
	if c.net.mobile {
		n = c.net.seqBlock
	}
	s := sim.CrossSeq(c.shard, c.localSeq)
	c.localSeq += n
	return s
}

// txStart mirrors a border transmission into every foreign shard with
// in-range receivers. Called by Medium.StartTx after the local fan-out.
func (c *shardConduit) txStart(r *Radio, tx *transmission) {
	var srcPos geom.Point
	if c.net.mobile {
		srcPos = c.med.PositionOf(r) // tx.start == Now: the memo from the local fan-out hits
	}
	for i, cat := range c.catalogs[r] {
		if tx.start+cat.minProp > c.endTime {
			continue // no receiver event on or before the horizon
		}
		seqBase := c.mintSeq(uint64(1 + 2*len(cat.dests)))
		c.send(c.catIdx[r][i], func(slot *crossMsg) {
			slot.kind, slot.cat = crossTx, cat
			slot.t0, slot.t1, slot.seqBase = tx.start, tx.end, seqBase
			slot.srcPos = srcPos
			slot.fr.copyIn(tx.f)
		})
	}
}

// txAbort mirrors an abort (AbortTx or a crash truncation). now is the
// abort instant; tx.start still names the mirror.
func (c *shardConduit) txAbort(r *Radio, tx *transmission, now sim.Time) {
	for i, cat := range c.catalogs[r] {
		if tx.start+cat.minProp > c.endTime {
			continue // the mirror itself was filtered; nothing to abort
		}
		if now+cat.minProp > c.endTime {
			continue // every truncated rxEnd would fall past the horizon
		}
		seqBase := c.mintSeq(uint64(1 + len(cat.dests)))
		c.send(c.catIdx[r][i], func(slot *crossMsg) {
			slot.kind, slot.cat = crossAbort, cat
			slot.t0, slot.t1, slot.seqBase = now, tx.start, seqBase
		})
	}
}

// toneSet mirrors a tone transition of a border radio.
func (c *shardConduit) toneSet(r *Radio, t Tone, on bool, now sim.Time) {
	kind := crossToneOff
	if on {
		kind = crossToneOn
	}
	var srcPos geom.Point
	if c.net.mobile && on {
		srcPos = c.med.PositionOf(r)
	}
	for i, cat := range c.catalogs[r] {
		if now+cat.minProp > c.endTime {
			continue
		}
		seqBase := c.mintSeq(uint64(1 + len(cat.dests)))
		c.send(c.catIdx[r][i], func(slot *crossMsg) {
			slot.kind, slot.tone, slot.cat = kind, uint8(t), cat
			slot.t0, slot.t1, slot.seqBase = now, 0, seqBase
			slot.srcPos = srcPos
		})
	}
}
