package app

import (
	"runtime"
	"testing"
	"testing/quick"

	"rmac/internal/frame"
	"rmac/internal/mac"
	"rmac/internal/routing"
	"rmac/internal/sim"
)

// captureMAC records sends and lets the test inject deliveries.
type captureMAC struct {
	id    int
	upper mac.UpperLayer
	stats mac.Stats
	sent  []*mac.SendRequest
	full  bool
}

func (f *captureMAC) Addr() frame.Addr          { return frame.AddrFromID(f.id) }
func (f *captureMAC) Stats() *mac.Stats         { return &f.stats }
func (f *captureMAC) SetUpper(u mac.UpperLayer) { f.upper = u }
func (f *captureMAC) Send(req *mac.SendRequest) bool {
	if f.full {
		return false
	}
	f.sent = append(f.sent, req)
	return true
}

// fixedChildrenRouting is a routing.Protocol with neighbours injected so
// Children() returns a fixed set.
func routingWithChildren(eng *sim.Engine, m mac.MAC, id int, children []int) *routing.Protocol {
	cfg := routing.Config{Period: sim.Second, Expiry: 10000 * sim.Second}
	rt := routing.New(eng, m, id, id == 0, cfg)
	for _, c := range children {
		rt.HandleBeacon(routing.Beacon{ID: c, Hops: 99, Parent: id}.Marshal())
	}
	return rt
}

func TestPacketRoundTrip(t *testing.T) {
	p := MarshalPacket(3, 1234, 5*sim.Second, 500)
	if len(p) != 500 {
		t.Fatalf("size = %d", len(p))
	}
	src, seq, gen, ok := ParsePacket(p)
	if !ok || src != 3 || seq != 1234 || gen != 5*sim.Second {
		t.Fatalf("parse = %d %d %v %v", src, seq, gen, ok)
	}
	if _, _, _, ok := ParsePacket([]byte{'B', 0}); ok {
		t.Fatal("beacon parsed as data")
	}
	// Undersized requests are padded to the header.
	if len(MarshalPacket(0, 1, 0, 4)) != HeaderSize {
		t.Fatal("padding")
	}
}

func TestPropertyPacketRoundTrip(t *testing.T) {
	f := func(src uint16, seq uint32, gen int64, size uint16) bool {
		if gen < 0 {
			gen = -gen
		}
		p := MarshalPacket(int(src), seq, sim.Time(gen), int(size))
		s2, q2, g2, ok := ParsePacket(p)
		return ok && s2 == int(src) && q2 == seq && g2 == sim.Time(gen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsArithmetic(t *testing.T) {
	m := &Metrics{Nodes: 75, Generated: 100, Receptions: 3700}
	if got := m.DeliveryRatio(); got != 0.5 {
		t.Fatalf("delivery ratio = %v, want 0.5", got)
	}
	m.DelaySum = 3 * sim.Second
	m.DelayCount = 2
	if got := m.AvgDelay(); got != 1.5 {
		t.Fatalf("avg delay = %v", got)
	}
	empty := &Metrics{Nodes: 75}
	if empty.DeliveryRatio() != 0 || empty.AvgDelay() != 0 {
		t.Fatal("empty metrics must be zero")
	}
}

func TestNodeDedupesAndForwards(t *testing.T) {
	eng := sim.NewEngine(1)
	m := &captureMAC{id: 5}
	rt := routingWithChildren(eng, m, 5, []int{7, 9})
	metrics := &Metrics{Nodes: 10}
	n := NewNode(eng, m, rt, 5, metrics)

	payload := MarshalPacket(0, 1, 0, 500)
	n.OnDeliver(payload, mac.RxInfo{})
	n.OnDeliver(payload, mac.RxInfo{}) // duplicate

	if metrics.Receptions != 1 || metrics.Duplicates != 1 {
		t.Fatalf("metrics = %+v", metrics)
	}
	if len(m.sent) != 1 {
		t.Fatalf("forwards = %d, want 1", len(m.sent))
	}
	req := m.sent[0]
	if req.Service != mac.Reliable || len(req.Dests) != 2 {
		t.Fatalf("forward req = %+v", req)
	}
	if req.Dests[0] != frame.AddrFromID(7) || req.Dests[1] != frame.AddrFromID(9) {
		t.Fatalf("dests = %v", req.Dests)
	}
	if n.Forwarded != 1 {
		t.Fatal("Forwarded count")
	}
}

func TestLeafDoesNotForward(t *testing.T) {
	eng := sim.NewEngine(2)
	m := &captureMAC{id: 3}
	rt := routingWithChildren(eng, m, 3, nil)
	n := NewNode(eng, m, rt, 3, &Metrics{Nodes: 4})
	n.OnDeliver(MarshalPacket(0, 1, 0, 100), mac.RxInfo{})
	if len(m.sent) != 0 {
		t.Fatal("leaf forwarded")
	}
}

func TestBeaconDispatchedToRouting(t *testing.T) {
	eng := sim.NewEngine(3)
	m := &captureMAC{id: 2}
	rt := routing.New(eng, m, 2, false, routing.DefaultConfig())
	n := NewNode(eng, m, rt, 2, &Metrics{Nodes: 3})
	n.OnDeliver(routing.Beacon{ID: 1, Hops: 0, Parent: -1}.Marshal(), mac.RxInfo{})
	if rt.NeighborCount() != 1 {
		t.Fatal("beacon not dispatched to routing")
	}
	// Garbage and empty payloads are ignored without panicking.
	n.OnDeliver(nil, mac.RxInfo{})
	n.OnDeliver([]byte{0xEE}, mac.RxInfo{})
}

func TestDelayAccounting(t *testing.T) {
	eng := sim.NewEngine(4)
	m := &captureMAC{id: 1}
	rt := routingWithChildren(eng, m, 1, nil)
	metrics := &Metrics{Nodes: 2}
	n := NewNode(eng, m, rt, 1, metrics)
	// Packet generated at t=0; delivered at 250 ms and another at 750 ms.
	eng.Schedule(250*sim.Millisecond, func() { n.OnDeliver(MarshalPacket(0, 1, 0, 64), mac.RxInfo{}) })
	eng.Schedule(750*sim.Millisecond, func() { n.OnDeliver(MarshalPacket(0, 2, 0, 64), mac.RxInfo{}) })
	eng.RunAll()
	if metrics.AvgDelay() != 0.5 {
		t.Fatalf("avg delay = %v, want 0.5", metrics.AvgDelay())
	}
	if metrics.DelayMax != 750*sim.Millisecond {
		t.Fatalf("max delay = %v", metrics.DelayMax)
	}
}

func TestSourceGeneratesAtRate(t *testing.T) {
	eng := sim.NewEngine(5)
	m := &captureMAC{id: 0}
	rt := routingWithChildren(eng, m, 0, []int{1})
	metrics := &Metrics{Nodes: 2}
	n := NewNode(eng, m, rt, 0, metrics)
	src := NewSource(n, 10, 25, 500)
	src.Start(sim.Second)
	eng.Run(30 * sim.Second)
	if src.Sent() != 25 || metrics.Generated != 25 {
		t.Fatalf("generated = %d/%d, want 25", src.Sent(), metrics.Generated)
	}
	if len(m.sent) != 25 {
		t.Fatalf("forwards = %d", len(m.sent))
	}
	// First at 1 s, spaced 100 ms: last at 1 s + 2.4 s.
	if got := m.sent[24].EnqueuedAt; got != 0 { // captureMAC does not stamp
		t.Fatalf("unexpected stamp %v", got)
	}
	// The source's own packets are marked seen: delivering one back must
	// not count as a reception or be re-forwarded.
	n.OnDeliver(MarshalPacket(0, 1, sim.Second, 500), mac.RxInfo{})
	if metrics.Receptions != 0 || metrics.Duplicates != 1 {
		t.Fatalf("echo handling: %+v", metrics)
	}
}

// A packet from a high node id is deduplicated like any other, and the
// dedup state it costs does not grow with the id.
func TestDedupSparseSource(t *testing.T) {
	eng := sim.NewEngine(8)
	m := &captureMAC{id: 1}
	metrics := &Metrics{Nodes: 10000}
	n := NewNode(eng, m, routingWithChildren(eng, m, 1, nil), 1, metrics)
	p1, p2 := MarshalPacket(9999, 1, 0, 64), MarshalPacket(9999, 2, 0, 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n.OnDeliver(p1, mac.RxInfo{})
	runtime.ReadMemStats(&after)
	// A table indexed by source id would take ≥ 240 KB (10000 slice
	// headers); the bound leaves room for the race detector's overhead.
	if b := after.TotalAlloc - before.TotalAlloc; b > 32<<10 {
		t.Fatalf("first packet from node 9999 allocated %d B of dedup state", b)
	}
	n.OnDeliver(p1, mac.RxInfo{})
	n.OnDeliver(p2, mac.RxInfo{})
	if metrics.Receptions != 2 || metrics.Duplicates != 1 {
		t.Fatalf("receptions %d duplicates %d, want 2 and 1", metrics.Receptions, metrics.Duplicates)
	}
}

func TestSourceStopsAtCount(t *testing.T) {
	eng := sim.NewEngine(6)
	m := &captureMAC{id: 0}
	rt := routingWithChildren(eng, m, 0, []int{1})
	n := NewNode(eng, m, rt, 0, &Metrics{Nodes: 2})
	src := NewSource(n, 1000, 5, 100)
	src.Start(0)
	eng.Run(10 * sim.Second)
	if src.Sent() != 5 {
		t.Fatalf("sent = %d", src.Sent())
	}
	if eng.Pending() != 0 {
		t.Fatal("generator left events pending")
	}
}

func TestSendRejectionCounted(t *testing.T) {
	eng := sim.NewEngine(7)
	m := &captureMAC{id: 1, full: true}
	rt := routingWithChildren(eng, m, 1, []int{2})
	n := NewNode(eng, m, rt, 1, &Metrics{Nodes: 3})
	n.OnDeliver(MarshalPacket(0, 1, 0, 64), mac.RxInfo{})
	if n.SendRejected != 1 {
		t.Fatal("rejected send not counted")
	}
}

func TestInvalidSourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero rate must panic")
		}
	}()
	NewSource(nil, 0, 10, 500)
}
