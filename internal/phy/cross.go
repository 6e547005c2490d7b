package phy

import (
	"fmt"
	"math"
	"slices"

	"rmac/internal/frame"
	"rmac/internal/geom"
	"rmac/internal/sim"
)

// Cross-shard conduit — the PHY half of the sharded conservative parallel
// engine (see sim/parallel.go for the synchronization protocol and
// DESIGN.md §14 for the full derivation).
//
// A sharded run gives every spatial shard its own Medium on its own
// Engine. A radio that can come within one interference range of a
// foreign shard's radio during the current mobility epoch is a border
// radio: it holds one immutable catalog per foreign shard in
// reach, naming that shard and the candidate receivers over there. The
// epoch's position envelope (how far any pairwise distance can change
// within it) sizes the candidate sets; a stationary run is the case
// envelope 0 with a single epoch spanning the horizon, where the
// candidates are exactly the in-range receivers. When a border radio
// transmits, is cut (AbortTx or a crash), or raises or lowers a tone, the
// medium — after its local fan-out — mirrors the effect: one message per
// catalog, delivered to the catalog's shard at once. A message carries a
// field-copied image of the frame (wireFrame), the effect's instants, the
// sender's position, and a sender-minted sequence base in the engine's
// cross sequence space (sim.CrossSeq), which fixes the merge order at the
// receiver independent of when the message is inserted.
//
// Delivery does NOT touch any simulation-visible pool: the message is
// copied into a holder owned by the receiver's conduit (pendingCross), a
// single holder event is scheduled on the receiver's engine at the
// message's earliest receiver event time under the sender's sequence
// base, and the receiver's frontier is lowered to that instant
// (sim.ShardSync.Lower). All observable work happens when the holder
// fires, which is a deterministic position in the receiver's event
// stream: the frame is materialised from the receiver's
// pool, the receiver set, delays and decode flags are computed from
// positions, and the effect is replayed through the medium's own physics
// primitives (addRx, cut, toneTo, lowerTone in medium.go) under the
// message's sequence numbers. The conduit schedules no rx or tone event
// of its own. This is what keeps pool hit/miss statistics (and therefore
// run fingerprints) bit-identical for a fixed (seed, shards) pair no
// matter when a message is delivered.
//
// A mirrored transmission or tone carries a ghost *Radio as its source:
// an unregistered radio with the foreign node's id. It is never part of
// the receiver medium's radio list and never transmits locally; it
// appears as tx.src — every consumer of that field (trace, audit
// ObsRxEnd, fault's per-receiver error chains) is keyed by the receiving
// radio — and it holds the foreign node's open tone sessions in its
// toneSess, as a local radio holds its own.

// crossKind enumerates conduit message types. The ghost records appear
// only at epoch boundaries: the epoch join diffs the new border-band
// membership against the old and announces additions and removals to
// each receiver shard as stamped control records, so the ghost tables
// change at a deterministic position in every receiver's event stream
// (time = epoch boundary, sequence = sender-minted) instead of as a side
// effect of whichever message happens to arrive first.
const (
	crossTx uint8 = iota
	crossAbort
	crossToneOn
	crossToneOff
	crossGhostAdd
	crossGhostDel
)

// wireFrame is a field-copied image of a frame for cross-shard transport:
// no pointers shared with the sender shard survive in it (slices are
// copied into the wireFrame's own reusable backing arrays).
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

// crossCatalog is the immutable receiver set of one (border radio, target
// shard) pair for one epoch, built from the boundary positions. dests are
// *candidates*: every radio of the target shard (to) that could come within
// interference range during the epoch (boundary distance ≤ irange +
// envelope), as indices into that shard medium's radio slice in ascending
// id order. minProp is the conservative bound propDelay(max(0,
// minBoundaryDist − envelope)). With envelope 0 the candidates are exactly
// the in-range receivers and minProp is their minimum delay. Epoch
// rollover swaps in freshly allocated catalogs, so in-flight holders
// referencing the old epoch's catalog stay valid.
type crossCatalog struct {
	to      int
	minProp sim.Time
	dests   []int32
}

// crossHdr is a message without its frame image. src is the foreign
// node. srcPos is the sender's position at t0 (crossTx, crossToneOn —
// the receiver computes the actual receivers and delays from it). The two
// ghost record kinds travel with cat == nil.
type crossHdr struct {
	kind    uint8
	tone    uint8
	src     int32
	cat     *crossCatalog
	t0      sim.Time // tx start / cut instant / tone transition / epoch boundary
	t1      sim.Time // tx natural end (crossTx); original tx start (crossAbort)
	seqBase uint64
	srcPos  geom.Point
}

// pendingCross is the receiver-side holder: one delivered message, its
// frame image, and the free-list link. Holders are conduit-private —
// acquiring one at send time is invisible to the simulation, which is what
// keeps delivery timing out of the deterministic state. The wireFrame
// keeps its backing arrays across messages.
type pendingCross struct {
	crossHdr
	fr   wireFrame
	c    *shardConduit
	next *pendingCross
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

// ShardStats counts one shard's conduit traffic, deterministically for a
// fixed (seed, shards). GhostAdds/GhostDels count ghost installs and
// removals at this (receiver) shard — the initial-epoch setup installs
// plus every ghost record firing, so GhostAdds-GhostDels is the live
// ghost count. A run without epoch rollovers (stationary) counts only the
// setup installs.
type ShardStats struct {
	MsgsOut   uint64
	MsgsIn    uint64
	GhostAdds uint64
	GhostDels uint64
}

// shardConduit is one shard's half of the cross-shard fabric, owned by
// that shard's Medium. Its sender state is the sequence counter (the
// catalogs live on the border radios); its receiver state the holders, the
// ghosts, and the mirror table that routes cuts.
type shardConduit struct {
	net   *ShardNet
	med   *Medium
	shard int

	localSeq uint64
	endTime  sim.Time

	ghosts   map[int]*Radio
	free     *pendingCross
	mirrors  map[mirrorKey]*transmission
	expQueue []mirrorExp
	maxProp  sim.Time // max mirror prop (interference range); bounds how long an abort can trail

	stats ShardStats
}

// ShardNet is the cross-shard fabric of one sharded run: conduits, the
// direct lookahead matrix and the run's frontier table. The matrix, the
// radios' catalogs and the ghost sets are epoch state: built at connect
// time and rebuilt at each epoch join via Rebuild. A stationary run has
// one epoch and never rebuilds.
type ShardNet struct {
	conduits []*shardConduit
	direct   [][]sim.Time
	sync     *sim.ShardSync

	// Epoch state. localIdx/shardOf/mediums are setup-time constants;
	// prevGhost — the per-(sender, receiver) sorted ghost-source id sets of
	// the current epoch — is only touched at connect time and at the
	// epoch join.
	envelope  float64 // max pairwise distance change within one epoch (2·MaxSpeed·epoch); 0 when stationary
	irange    float64
	r2        float64 // irange²
	seqBlock  uint64  // per-message sequence stride (2·nodes+2)
	mediums   []*Medium
	localIdx  []int32
	shardOf   []int
	prevGhost [][][]int
}

// ConnectShards wires the mediums of one sharded run together. pos holds
// every node's position at t=0 and shardOf maps global node id → owning
// shard; each medium must already hold exactly its shard's radios,
// registered in ascending global id order. envelope bounds how much any
// pairwise distance can change within one mobility epoch (2 × MaxSpeed ×
// epoch length): catalogs are candidate sets over that envelope, valid
// for exactly one epoch, and the experiment layer must call Rebuild at
// every epoch boundary with the boundary positions (see DESIGN.md §15 for
// the epoch join). A stationary run passes envelope 0 and never
// rebuilds: its catalogs then hold exactly the in-range receivers, and
// its lookahead is the exact minimum cross-shard delay. The frontier table
// (Sync) is built from the direct matrix here and re-closed by Rebuild;
// every delivery lowers the receiver's frontier in it.
//
// endTime is the run horizon: messages whose earliest receiver event falls
// strictly after it are dropped at the sender, matching the unsharded
// engine's never-run semantics and guaranteeing no message can chase a
// shard that already ran its final window.
func ConnectShards(mediums []*Medium, pos []geom.Point, shardOf []int, endTime sim.Time, envelope float64) *ShardNet {
	s := len(mediums)
	irange := mediums[0].cfg.interferenceRange()
	net := &ShardNet{
		conduits:  make([]*shardConduit, s),
		direct:    make([][]sim.Time, s),
		envelope:  envelope,
		irange:    irange,
		r2:        irange * irange,
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
			ghosts:  make(map[int]*Radio),
			mirrors: make(map[mirrorKey]*transmission),
			endTime: endTime,
			maxProp: maxProp,
		}
	}
	net.rebuild(pos, 0, false)
	net.sync = sim.NewShardSync(net.direct)
	for i, m := range mediums {
		m.cross = net.conduits[i]
	}
	return net
}

// Rebuild recomputes the epoch state — candidate catalogs, ghost
// membership, and the direct lookahead matrix, which it re-closes into the
// frontier table — from the node positions at epoch boundary B. Ghost
// membership changes are delivered to each receiver shard as
// crossGhostAdd/crossGhostDel records stamped at t=B with sender-minted
// sequence numbers.
//
// MUST be called only at the epoch join, when every shard has run all its
// events before B and none is running: it rewrites every shard's sender
// state (radio catalogs, localSeq).
func (n *ShardNet) Rebuild(pos []geom.Point, B sim.Time) {
	n.rebuild(pos, B, true)
	n.sync.SetLookahead(n.direct)
}

func (n *ShardNet) rebuild(pos []geom.Point, B sim.Time, emit bool) {
	s := len(n.conduits)
	for i := range n.direct {
		for j := range n.direct[i] {
			n.direct[i][j] = sim.MaxTime
		}
	}
	// The catalogs themselves are allocated afresh below: in-flight holders
	// may still point at old-epoch ones, which must stay intact until they
	// fire.
	for _, m := range n.mediums {
		for _, r := range m.radios {
			r.cats = r.cats[:0]
		}
	}
	newGhost := make([][][]int, s)
	for i := range newGhost {
		newGhost[i] = make([][]int, s)
	}
	// Candidate reach: any pair within irange+envelope at B can interact
	// during the epoch; any pair beyond it provably cannot (each endpoint
	// contributes at most envelope/2 of displacement). Cell-hashing the
	// placement at that reach keeps border discovery O(n · neighbors)
	// instead of O(n²).
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
		var perShard map[int][]int32
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
						perShard = make(map[int][]int32)
						minD2 = make(map[int]float64)
					}
					t := n.shardOf[o]
					if cur, ok := minD2[t]; !ok || d2 < cur {
						minD2[t] = d2
					}
					perShard[t] = append(perShard[t], n.localIdx[o])
				}
			}
		}
		if perShard == nil {
			continue
		}
		srcRadio := n.mediums[ss].radios[n.localIdx[src]]
		for t := 0; t < s; t++ {
			dests := perShard[t]
			if len(dests) == 0 {
				continue
			}
			// Deterministic receiver order: ascending global id. Radios
			// register in id order, so the local index is monotone in id.
			slices.Sort(dests)
			dmin := math.Sqrt(minD2[t]) - n.envelope
			if dmin < 0 {
				dmin = 0
			}
			cat := &crossCatalog{to: t, minProp: n.mediums[0].propDelay(dmin), dests: dests}
			srcRadio.cats = append(srcRadio.cats, cat)
			if cat.minProp < n.direct[ss][t] {
				n.direct[ss][t] = cat.minProp
			}
			newGhost[ss][t] = append(newGhost[ss][t], src)
		}
	}
	// Diff ghost membership per ordered shard pair. Sources were visited in
	// ascending id order, so both slices are sorted; a merge walk yields the
	// additions and removals in ascending id order, which fixes the record
	// sequence numbers deterministically. Only an epoch boundary removes
	// ghosts: the connect-time epoch has no predecessor.
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
					n.ghostRecord(ss, t, crossGhostDel, old[i], B)
					i++
				case i >= len(old) || cur[j] < old[i]:
					if emit {
						n.ghostRecord(ss, t, crossGhostAdd, cur[j], B)
					} else {
						n.conduits[t].stats.GhostAdds++
						n.conduits[t].ghost(cur[j])
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

// ghostRecord delivers one ghost membership record from shard ss to shard t.
func (n *ShardNet) ghostRecord(ss, t int, kind uint8, src int, B sim.Time) {
	c := n.conduits[ss]
	c.put(t, &crossHdr{kind: kind, src: int32(src), t0: B, seqBase: c.mintSeq()}, nil)
}

// ghost returns the receiver-side ghost radio for foreign node src,
// creating it on demand. Creation is deterministic wherever it happens: a
// ghost record firing at an epoch boundary, or a mirrored transmission or
// tone whose holder crossed the boundary after the source left the border
// band (its crossGhostDel already fired — the mirror recreates the ghost
// it needs).
func (c *shardConduit) ghost(src int) *Radio {
	g := c.ghosts[src]
	if g == nil {
		g = &Radio{m: c.med, eng: c.med.eng, id: src}
		c.ghosts[src] = g
	}
	return g
}

// Direct returns the direct lookahead matrix: Direct()[k][j] is the
// minimum cross-shard propagation delay from shard k to shard j
// (sim.MaxTime where no pair of radios is in range). Only a finite entry
// comes with catalogs, so shards joined by no chain of finite entries
// exchange no message within the epoch. Rebuild rewrites it in place.
func (n *ShardNet) Direct() [][]sim.Time { return n.direct }

// Stats returns shard j's conduit counters.
func (n *ShardNet) Stats(j int) ShardStats { return n.conduits[j].stats }

// Sync returns the run's frontier table, whose lookahead is the closure of
// Direct().
func (n *ShardNet) Sync() *sim.ShardSync { return n.sync }

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
// becomes simulation state, replayed through the medium's primitives
// under the message's sequence block (its base is the holder's own
// number).
func (c *shardConduit) fire(p *pendingCross) {
	m := c.med
	src, t, seq := int(p.src), Tone(p.tone), p.seqBase+1
	switch p.kind {
	case crossTx:
		c.fireTx(p)
	case crossAbort:
		// p.t1 is the original start time (the mirror's key), p.t0 the cut
		// instant; cut explains when its truncation lands exactly.
		key := mirrorKey{src, p.t1}
		if tx := c.mirrors[key]; tx != nil && !tx.aborted {
			m.cut(tx, p.t0, seq)
			delete(c.mirrors, key)
		}
	case crossToneOn:
		// Capture the receivers in range at t0 into a session on the ghost;
		// the OFF replays exactly that set with these delays, as SetTone
		// does. Every candidate consumes its sequence number whether or not
		// it is in range.
		g := c.ghost(src)
		if old := g.toneSess[t]; old != nil {
			m.freeSess(old) // stale session from a horizon-filtered OFF
		}
		sess := m.newSess()
		g.toneSess[t] = sess
		for _, idx := range p.cat.dests {
			if r, d2, ok := c.candidate(p, idx); ok {
				m.toneTo(sess, t, r, d2, p.t0, seq)
			}
			seq++
		}
	case crossToneOff:
		// An OFF whose ON was horizon-filtered at the sender finds no
		// session and is a no-op, as the unsharded engine never runs it.
		if g := c.ghosts[src]; g != nil {
			m.lowerTone(g, t, p.t0, seq)
		}
	case crossGhostAdd:
		c.stats.GhostAdds++
		c.ghost(src)
	case crossGhostDel:
		c.stats.GhostDels++
		// A source leaving the border band can no longer route its tone OFF
		// through the conduit (its catalogs toward this shard are empty), so
		// any tone it still holds here would jam its captured receivers for
		// the rest of the run. Drop those sessions at the boundary instead:
		// the receivers are by now > irange away, so losing the tone early
		// is the physically conservative reading of the captured-set
		// contract. 2 tones × (nodes−1) dests fits the 2·nodes+2 sequence
		// block.
		if g := c.ghosts[src]; g != nil {
			for t := Tone(0); t < NumTones; t++ {
				seq = m.lowerTone(g, t, p.t0, seq)
			}
			delete(c.ghosts, src)
		}
	}
	c.putHolder(p)
}

// candidate returns candidate idx of a message's catalog and its squared
// distance from the sender at t0, which the fire time trails by at least
// minProp (a backward position query, well within the mobility retention
// horizon); ok is false when the candidate is out of interference range
// by then.
func (c *shardConduit) candidate(p *pendingCross, idx int32) (r *Radio, d2 float64, ok bool) {
	r = c.med.radios[idx]
	d2 = c.med.positionAt(r, p.t0).Dist2(p.srcPos)
	return r, d2, d2 <= c.net.r2
}

// fireTx mirrors a foreign transmission: the catalog only names
// candidates, so the actual receiver set, propagation delays, and decode
// flags are computed here (candidate). Every candidate consumes its two
// sequence numbers whether or not it is in range, so the merge order is
// independent of the filter outcome. With envelope 0 every candidate is
// in range.
func (c *shardConduit) fireTx(p *pendingCross) {
	m := c.med
	tx := m.newTx()
	tx.src = c.ghost(int(p.src))
	tx.f = p.fr.materialize(m.frames)
	tx.start, tx.end = p.t0, p.t1
	// No local txDone ever runs for a mirror: the sender shard owns the
	// sender-side lifecycle. finished=true makes the last rxEnd recycle the
	// mirror and release its frame.
	tx.finished = true
	seq := p.seqBase + 1
	for _, idx := range p.cat.dests {
		if r, d2, ok := c.candidate(p, idx); ok {
			m.addRx(tx, r, d2, seq)
		}
		seq += 2
	}
	tx.pending = len(tx.dests)
	if tx.pending == 0 {
		// Every candidate drifted out of reach by t0: nothing will ever
		// reference this mirror (cuts look up the mirror table, which we
		// skip), so recycle it and its frame immediately.
		m.freeTx(tx)
		return
	}
	key := mirrorKey{int(p.src), p.t0}
	c.evictExpired()
	c.mirrors[key] = tx
	c.expQueue = append(c.expQueue, mirrorExp{key: key, expire: p.t1 + c.maxProp})
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

// mirror sends the message h about border radio r's local effect to
// every shard r has a catalog for, f (when non-nil) as its frame image.
// Each catalog gets its own sequence block. A catalog is skipped when no
// receiver event could fall on or before the run horizon (every event
// of the message lies at or after t0+minProp), matching the unsharded
// engine's never-run semantics; a skipped ON or start leaves its OFF or
// cut nothing to find.
//
// Every message ends the running window: the engine stops right after the
// event that minted it, and the shard loop re-reads its target, which the
// receiver's lowered frontier now bounds (sim.ShardSync.Target).
func (c *shardConduit) mirror(r *Radio, h crossHdr, f frame.Frame) {
	h.src = int32(r.id)
	for _, cat := range r.cats {
		if h.t0+cat.minProp > c.endTime {
			continue
		}
		h.cat, h.seqBase = cat, c.mintSeq()
		c.put(cat.to, &h, f)
		c.med.eng.Stop()
	}
}

// put delivers one message, f (when non-nil) as its frame image, to shard
// t: it fills a holder of t's conduit, schedules it on t's engine at the
// message's earliest receiver event time under the message's sequence
// base — t0 + minProp, or t0 itself for a ghost record, which has no
// catalog — and lowers t's frontier to that instant. A message goes only
// along a catalog, whose finite lookahead puts both shards in one
// component, so put runs on t's goroutine between t's windows (or at the
// join, on the run's); t has run at most to the target its last window
// read, which the relay closure holds at or below that instant.
func (c *shardConduit) put(t int, h *crossHdr, f frame.Frame) {
	rc := c.net.conduits[t]
	p := rc.takeHolder()
	p.crossHdr = *h
	if f != nil {
		p.fr.copyIn(f)
	}
	at := h.t0
	if h.cat != nil {
		at += h.cat.minProp
	}
	rc.med.eng.ScheduleCrossCall(at, p, 0, h.seqBase)
	c.net.sync.Lower(t, at)
	c.stats.MsgsOut++
	rc.stats.MsgsIn++
}

// mintSeq reserves the next block of cross sequence numbers for one
// message from this shard and returns its base. Every block has the same
// size, seqBlock = 2·nodes+2, which bounds every message kind: a tone OFF
// replays its ON-time session, whose size is bounded by a *previous*
// epoch's catalog, not the current one, so a content-sized block could
// collide with the next message's. The per-shard counter must stay below
// 1<<sim.CrossSeqShardShift (sim.CrossSeq); past that it would spill into
// the shard-index bits and break the merge order, so running out panics
// instead. That takes 2^48/seqBlock messages from one shard, about 1.4·10⁹
// at 100k nodes.
func (c *shardConduit) mintSeq() uint64 {
	if c.localSeq+c.net.seqBlock > 1<<sim.CrossSeqShardShift {
		panic(fmt.Sprintf("phy: shard %d ran out of cross sequence numbers: %d messages of %d each reach the 1<<%d per-shard limit of sim.CrossSeq",
			c.shard, c.localSeq/c.net.seqBlock, c.net.seqBlock, sim.CrossSeqShardShift))
	}
	s := sim.CrossSeq(c.shard, c.localSeq)
	c.localSeq += c.net.seqBlock
	return s
}
