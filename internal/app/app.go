// Package app implements the paper's evaluation workload (§4.1.1): a
// multicast application that forwards packets from a single source (node
// 0) along the BLESS tree to all nodes, using the MAC's Reliable Send at
// every hop, and collects the end-to-end metrics behind Figures 7–9
// (packet delivery ratio, drop ratio context, end-to-end delay).
package app

import (
	"encoding/binary"
	"fmt"

	"rmac/internal/frame"
	"rmac/internal/mac"
	"rmac/internal/routing"
	"rmac/internal/seqset"
	"rmac/internal/sim"
)

// DataMagic is the first payload byte of an application data packet.
const DataMagic = byte('D')

// HeaderSize is the application header length: magic, source ID,
// sequence number, generation timestamp.
const HeaderSize = 1 + 4 + 4 + 8

// MarshalPacket builds an application payload of exactly size bytes
// (HeaderSize minimum) carrying (src, seq, generated-at).
func MarshalPacket(src int, seq uint32, gen sim.Time, size int) []byte {
	return AppendPacket(nil, src, seq, gen, size)
}

// AppendPacket appends the encoded packet to dst (the allocation-free
// form used by the source, which encodes into a reusable buffer).
func AppendPacket(dst []byte, src int, seq uint32, gen sim.Time, size int) []byte {
	if size < HeaderSize {
		size = HeaderSize
	}
	n := len(dst)
	dst = append(dst, make([]byte, size)...)
	out := dst[n:]
	out[0] = DataMagic
	binary.BigEndian.PutUint32(out[1:], uint32(src))
	binary.BigEndian.PutUint32(out[5:], seq)
	binary.BigEndian.PutUint64(out[9:], uint64(gen))
	return dst
}

// ParsePacket decodes an application payload header.
func ParsePacket(payload []byte) (src int, seq uint32, gen sim.Time, ok bool) {
	if len(payload) < HeaderSize || payload[0] != DataMagic {
		return 0, 0, 0, false
	}
	src = int(binary.BigEndian.Uint32(payload[1:]))
	seq = binary.BigEndian.Uint32(payload[5:])
	gen = sim.Time(binary.BigEndian.Uint64(payload[9:]))
	return src, seq, gen, true
}

// Metrics aggregates network-wide application-level results for one run.
type Metrics struct {
	// Nodes is the network size (delivery denominator uses Nodes-1).
	Nodes int
	// Generated counts packets the source produced.
	Generated uint64
	// Receptions counts unique (node, src, seq) deliveries.
	Receptions uint64
	// Duplicates counts suppressed duplicate deliveries.
	Duplicates uint64
	// Delay accounting over all unique receptions.
	DelaySum   sim.Time
	DelayMax   sim.Time
	DelayCount uint64
}

// DeliveryRatio is R_deliv: packets received by all nodes over packets
// supposed to be received by all nodes (§4.2.1).
func (m *Metrics) DeliveryRatio() float64 {
	supposed := m.Generated * uint64(m.Nodes-1)
	if supposed == 0 {
		return 0
	}
	return float64(m.Receptions) / float64(supposed)
}

// AvgDelay is the average end-to-end delay in seconds (§4.2.3).
func (m *Metrics) AvgDelay() float64 {
	if m.DelayCount == 0 {
		return 0
	}
	return (sim.Time(uint64(m.DelaySum) / m.DelayCount)).Seconds()
}

// Node is the per-node application stack: it dispatches MAC deliveries to
// the routing protocol or the forwarder, deduplicates packets, records
// receptions and forwards down the tree.
type Node struct {
	eng     *sim.Engine
	mac     mac.MAC
	rt      *routing.Protocol
	id      int
	metrics *Metrics

	// seen records the (source, sequence number) pairs already received,
	// one bitset per source this node has heard.
	seen seqset.Set

	// reqs pools forwarding SendRequests; childBuf backs the per-forward
	// children query. Both are recycled/reused in steady state.
	reqs     mac.ReqPool
	childBuf []int

	// Forwarded counts reliable sends this node initiated.
	Forwarded uint64
	// SendRejected counts forwards rejected by a full MAC queue.
	SendRejected uint64
}

// NewNode wires the application for one node and installs itself as the
// MAC's upper layer.
func NewNode(eng *sim.Engine, m mac.MAC, rt *routing.Protocol, id int, metrics *Metrics) *Node {
	n := &Node{eng: eng, mac: m, rt: rt, id: id, metrics: metrics}
	m.SetUpper(n)
	return n
}

// OnDeliver implements mac.UpperLayer: beacons go to routing, data to the
// forwarder.
func (n *Node) OnDeliver(payload []byte, info mac.RxInfo) {
	if len(payload) == 0 {
		return
	}
	switch payload[0] {
	case routing.BeaconMagic:
		n.rt.HandleBeacon(payload)
	case DataMagic:
		n.onData(payload)
	}
}

// OnSendComplete implements mac.UpperLayer. Per-hop outcomes are already
// accounted in the MAC stats; the request (a forward from this node's
// pool, or a beacon from the routing pool) is recycled here, after the
// loaned TxResult slices are dead.
func (n *Node) OnSendComplete(res mac.TxResult) { res.Req.Recycle() }

func (n *Node) onData(payload []byte) {
	src, seq, gen, ok := ParsePacket(payload)
	if !ok {
		return
	}
	if !n.seen.Add(uint64(src), seq) {
		n.metrics.Duplicates++
		return
	}
	d := n.eng.Now() - gen
	n.metrics.Receptions++
	n.metrics.DelaySum += d
	n.metrics.DelayCount++
	if d > n.metrics.DelayMax {
		n.metrics.DelayMax = d
	}
	n.forward(payload)
}

// forward relays a packet to this node's current children over Reliable
// Send (§4.1.1: "packets are transmitted from the parent node to the
// child nodes using the reliable multicast services").
func (n *Node) forward(payload []byte) {
	n.childBuf = n.rt.ChildrenInto(n.childBuf[:0])
	children := n.childBuf
	if len(children) == 0 {
		return
	}
	req := n.reqs.Get()
	req.Service = mac.Reliable
	for _, c := range children {
		req.Dests = append(req.Dests, frame.AddrFromID(c))
	}
	// payload may alias a pooled frame's backing (OnDeliver loan): copy
	// into the request's own storage.
	req.Payload = append(req.Payload, payload...)
	n.Forwarded++
	if !n.mac.Send(req) {
		n.SendRejected++
		req.Recycle() // rejected: no OnSendComplete will follow
	}
}

// Source drives packet generation at the root node.
type Source struct {
	node       *Node
	rate       float64 // packets per second
	count      int
	packetSize int
	sent       int
	buf        []byte // reusable payload encoding buffer
}

// NewSource attaches a generator to the root node's application.
func NewSource(node *Node, rate float64, count, packetSize int) *Source {
	if rate <= 0 || count < 0 {
		panic(fmt.Sprintf("app: invalid source rate %v / count %d", rate, count))
	}
	return &Source{node: node, rate: rate, count: count, packetSize: packetSize}
}

// Start begins generation at startAt; packets are spaced 1/rate apart.
func (s *Source) Start(startAt sim.Time) {
	s.node.eng.ScheduleCall(startAt, s, 0)
}

// Call implements sim.Caller: the generation tick, scheduled closure-free.
func (s *Source) Call(int32) { s.generate() }

func (s *Source) generate() {
	if s.sent >= s.count {
		return
	}
	s.sent++
	n := s.node
	seq := uint32(s.sent)
	s.buf = AppendPacket(s.buf[:0], n.id, seq, n.eng.Now(), s.packetSize)
	n.metrics.Generated++
	n.seen.Add(uint64(n.id), seq) // the source never re-forwards its own packet
	n.forward(s.buf)
	interval := sim.Time(float64(sim.Second) / s.rate)
	n.eng.AfterCall(interval, s, 0)
}

// Sent reports how many packets the source has generated so far.
func (s *Source) Sent() int { return s.sent }
