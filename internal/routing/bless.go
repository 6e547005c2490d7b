// Package routing implements the simplified BLESS tree protocol the
// paper's evaluation uses (§4.1.1): node 0 is always the root, and the
// single-source tree is formed by one operation — a periodic one-hop
// broadcast of routing beacons, sent through the MAC's Unreliable Send
// service. Each node picks as parent the fresh neighbour closest to the
// root (lowest ID on ties); a node's children are the fresh neighbours
// that announce it as their parent.
package routing

import (
	"encoding/binary"

	"rmac/internal/frame"
	"rmac/internal/mac"
	"rmac/internal/sim"
)

// BeaconMagic is the first payload byte of a routing beacon, used by the
// upper-layer dispatcher to separate beacons from application data.
const BeaconMagic = byte('B')

// BeaconSize is the beacon payload length in bytes.
const BeaconSize = 1 + 4 + 2 + 4 + 1

const (
	hopsInf   = 0xFFFF
	parentNil = 0xFFFFFFFF
)

// Beacon is one routing announcement: who I am, how far from the root I
// believe I am, whom I currently use as parent, and how many children I
// currently serve. The children count concentrates the tree: nodes break
// equal-hop parent ties toward already-popular parents, yielding the
// fewer-but-fatter forwarders the paper's §4.1.1 statistics show
// (3.54 children per non-leaf on average).
type Beacon struct {
	ID       int
	Hops     int // -1 when not connected to the root
	Parent   int // -1 when none
	Children int // saturates at 255
}

// Marshal encodes the beacon with the BeaconMagic prefix.
func (b Beacon) Marshal() []byte {
	return b.AppendTo(nil)
}

// AppendTo appends the encoded beacon to dst (the allocation-free form
// used by the beacon tick, which encodes into a pooled request payload).
func (b Beacon) AppendTo(dst []byte) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, BeaconSize)...)
	out := dst[n:]
	out[0] = BeaconMagic
	binary.BigEndian.PutUint32(out[1:], uint32(b.ID))
	h := uint16(hopsInf)
	if b.Hops >= 0 && b.Hops < hopsInf {
		h = uint16(b.Hops)
	}
	binary.BigEndian.PutUint16(out[5:], h)
	p := uint32(parentNil)
	if b.Parent >= 0 {
		p = uint32(b.Parent)
	}
	binary.BigEndian.PutUint32(out[7:], p)
	c := b.Children
	if c > 255 {
		c = 255
	}
	if c < 0 {
		c = 0
	}
	out[11] = byte(c)
	return dst
}

// ParseBeacon decodes a beacon payload; ok is false for non-beacons.
func ParseBeacon(payload []byte) (Beacon, bool) {
	if len(payload) != BeaconSize || payload[0] != BeaconMagic {
		return Beacon{}, false
	}
	b := Beacon{ID: int(binary.BigEndian.Uint32(payload[1:]))}
	h := binary.BigEndian.Uint16(payload[5:])
	if h == hopsInf {
		b.Hops = -1
	} else {
		b.Hops = int(h)
	}
	p := binary.BigEndian.Uint32(payload[7:])
	if p == parentNil {
		b.Parent = -1
	} else {
		b.Parent = int(p)
	}
	b.Children = int(payload[11])
	return b, true
}

// Config sets the protocol timing.
type Config struct {
	// Period between beacons (before jitter).
	Period sim.Time
	// Expiry after which a silent neighbour is forgotten.
	Expiry sim.Time
	// JitterFrac randomises each period by ±JitterFrac to desynchronise
	// beacons across nodes.
	JitterFrac float64
}

// DefaultConfig returns 500 ms beacons with 6-period (3 s) expiry and 10%
// jitter. The paper does not state its simplified BLESS timing; these
// values calibrate the delivery ratio to the §4.2.1 figures — stationary
// ≈1 even at 120 pkt/s (the expiry rides out beacon losses under load)
// and ≈0.75 at walking speed — while beacons cost ≈2% of airtime.
func DefaultConfig() Config {
	return Config{Period: 500 * sim.Millisecond, Expiry: 3 * sim.Second, JitterFrac: 0.1}
}

// neighbor is one slot of the compact neighbour table: one slot per
// neighbour heard and not yet expired, kept sorted by id. The table's
// size is the node's degree, not the largest id in the network; lookup
// and insert binary-search it, and the id order makes ChildrenInto's
// output ascending.
type neighbor struct {
	id       int
	last     sim.Time
	hops     int32
	parent   int32
	children int32
}

// firstNeighbors sizes a table's first allocation, so a node with a
// typical degree never regrows it.
const firstNeighbors = 16

// Protocol is the per-node BLESS instance. It is driven by the node's
// dispatcher: beacons received from the MAC are fed to HandleBeacon, and
// Start schedules the periodic broadcasts.
type Protocol struct {
	eng  *sim.Engine
	mac  mac.MAC
	id   int
	root bool
	cfg  Config

	hops      int
	parent    int
	neighbors []neighbor // sorted by id

	// nextExpiry is a conservative lower bound on the earliest instant any
	// present neighbour could expire (refreshed by every full recompute).
	// While now < nextExpiry, a beacon from a non-parent neighbour only
	// needs comparing against the incumbent parent — see HandleBeacon.
	nextExpiry sim.Time

	// reqs pools beacon SendRequests (recycled by the upper layer's
	// OnSendComplete); childBuf backs the tick's children count.
	reqs     mac.ReqPool
	childBuf []int

	// BeaconsSent counts transmission attempts for instrumentation.
	BeaconsSent uint64
}

// New creates a protocol instance for node id; exactly one node (the
// multicast source) must be root.
func New(eng *sim.Engine, m mac.MAC, id int, root bool, cfg Config) *Protocol {
	p := &Protocol{
		eng: eng, mac: m, id: id, root: root, cfg: cfg,
		hops: -1, parent: -1,
	}
	if root {
		p.hops = 0
	}
	return p
}

// Start begins periodic beaconing, with a random initial phase so nodes
// do not beacon in lockstep.
func (p *Protocol) Start() {
	first := sim.Time(p.eng.Rand().Float64() * float64(p.cfg.Period))
	p.eng.AfterCall(first, p, 0)
}

// Call implements sim.Caller: the beacon tick, scheduled closure-free.
func (p *Protocol) Call(int32) { p.tick() }

func (p *Protocol) tick() {
	p.recompute()
	p.childBuf = p.ChildrenInto(p.childBuf[:0])
	b := Beacon{ID: p.id, Hops: p.hops, Parent: p.parent, Children: len(p.childBuf)}
	p.BeaconsSent++
	req := p.reqs.Get()
	req.Service = mac.Unreliable
	req.Dests = append(req.Dests, frame.Broadcast)
	req.Payload = b.AppendTo(req.Payload)
	req.Urgent = true // topology maintenance must not starve behind data
	if !p.mac.Send(req) {
		req.Recycle() // queue full: no OnSendComplete will follow
	}
	jitter := 1 + p.cfg.JitterFrac*(2*p.eng.Rand().Float64()-1)
	p.eng.AfterCall(sim.Time(float64(p.cfg.Period)*jitter), p, 0)
}

// HandleBeacon ingests a received beacon payload; it reports whether the
// payload was a beacon.
func (p *Protocol) HandleBeacon(payload []byte) bool {
	b, ok := ParseBeacon(payload)
	if !ok {
		return false
	}
	if b.ID == p.id {
		return true
	}
	now := p.eng.Now()
	i, found := p.find(b.ID)
	if !found {
		if p.neighbors == nil {
			p.neighbors = make([]neighbor, 0, firstNeighbors)
		}
		p.neighbors = append(p.neighbors, neighbor{})
		copy(p.neighbors[i+1:], p.neighbors[i:])
	}
	p.neighbors[i] = neighbor{id: b.ID, last: now,
		hops: int32(b.Hops), parent: int32(b.Parent), children: int32(b.Children)}

	// Parent re-selection. The full scan is only needed when the incumbent
	// itself changed (its score moved, possibly down — a max cannot be
	// patched), when there is no incumbent, or when an entry may have
	// expired since the last scan. Otherwise the stored parent still beats
	// every unchanged entry — scores only change with beacons, which all
	// pass through here — so comparing the one updated entry against the
	// incumbent reproduces the full scan's result exactly. (If the update
	// wins it also keeps winning after inheriting the incumbent's hysteresis
	// bonus, so the invariant is preserved across the switch.)
	if p.root {
		return true
	}
	if p.parent < 0 || b.ID == p.parent || now >= p.nextExpiry {
		p.recompute()
		return true
	}
	if b.Hops < 0 {
		return true
	}
	pi, _ := p.find(p.parent) // present: only recompute removes entries, and it re-selects
	inc := &p.neighbors[pi]
	incHops, incKids := int(inc.hops), int(inc.children)+1
	if b.Hops < incHops || (b.Hops == incHops &&
		(b.Children > incKids || (b.Children == incKids && b.ID < p.parent))) {
		p.parent = b.ID
		p.hops = b.Hops + 1
	}
	return true
}

// find returns the slot holding id, or the slot where it would be
// inserted to keep the table sorted.
func (p *Protocol) find(id int) (int, bool) {
	lo, hi := 0, len(p.neighbors)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p.neighbors[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(p.neighbors) && p.neighbors[lo].id == id
}

// recompute drops expired neighbours and re-selects the parent, in one
// pass over the table.
func (p *Protocol) recompute() {
	now := p.eng.Now()
	minLast := sim.Time(1<<62 - 1)
	bestID, bestHops, bestKids := -1, -1, -1
	live := p.neighbors[:0]
	for _, nb := range p.neighbors {
		if now-nb.last > p.cfg.Expiry {
			continue
		}
		live = append(live, nb)
		if nb.last < minLast {
			minLast = nb.last
		}
		if nb.hops < 0 {
			continue
		}
		kids := int(nb.children)
		if nb.id == p.parent {
			// Hysteresis: our advertised membership counts toward the
			// incumbent, so an equally-loaded alternative does not win.
			kids++
		}
		hops := int(nb.hops)
		better := bestID < 0 || hops < bestHops ||
			(hops == bestHops && kids > bestKids) ||
			(hops == bestHops && kids == bestKids && nb.id < bestID)
		if better {
			bestID, bestHops, bestKids = nb.id, hops, kids
		}
	}
	p.neighbors = live
	p.nextExpiry = minLast + p.cfg.Expiry
	if p.root {
		p.hops = 0
		p.parent = -1
		return
	}
	if bestID < 0 {
		p.hops = -1
		p.parent = -1
		return
	}
	p.parent = bestID
	p.hops = bestHops + 1
}

// Parent returns the current parent node ID, or -1.
func (p *Protocol) Parent() int { return p.parent }

// Hops returns the believed distance to the root, or -1 when detached.
func (p *Protocol) Hops() int { return p.hops }

// Children returns the IDs of fresh neighbours currently announcing this
// node as their parent, in ascending ID order.
func (p *Protocol) Children() []int { return p.ChildrenInto(nil) }

// ChildrenInto appends the current children to buf and returns it, so
// steady-state callers can reuse one buffer across queries. The table is
// sorted by ID, so the appended IDs are ascending.
func (p *Protocol) ChildrenInto(buf []int) []int {
	now := p.eng.Now()
	pid := int32(p.id)
	for i := range p.neighbors {
		nb := &p.neighbors[i]
		if now-nb.last <= p.cfg.Expiry && nb.parent == pid {
			buf = append(buf, nb.id)
		}
	}
	return buf
}

// NeighborCount returns the number of fresh neighbours.
func (p *Protocol) NeighborCount() int {
	now := p.eng.Now()
	c := 0
	for i := range p.neighbors {
		if now-p.neighbors[i].last <= p.cfg.Expiry {
			c++
		}
	}
	return c
}
