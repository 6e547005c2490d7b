package routing

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rmac/internal/frame"
	"rmac/internal/mac"
	"rmac/internal/sim"
)

// fakeWorld is an in-memory MAC fabric: unreliable broadcasts reach the
// adjacency list after a tiny delay; reliable sends are not needed here.
type fakeWorld struct {
	eng  *sim.Engine
	macs []*fakeMAC
	adj  map[int][]int
}

type fakeMAC struct {
	w     *fakeWorld
	id    int
	upper mac.UpperLayer
	stats mac.Stats
	sent  []*mac.SendRequest
}

func (f *fakeMAC) Addr() frame.Addr          { return frame.AddrFromID(f.id) }
func (f *fakeMAC) Stats() *mac.Stats         { return &f.stats }
func (f *fakeMAC) SetUpper(u mac.UpperLayer) { f.upper = u }
func (f *fakeMAC) Send(req *mac.SendRequest) bool {
	f.sent = append(f.sent, req)
	for _, nb := range f.w.adj[f.id] {
		dst := f.w.macs[nb]
		payload := req.Payload
		f.w.eng.After(sim.Millisecond, func() {
			if dst.upper != nil {
				dst.upper.OnDeliver(payload, mac.RxInfo{From: f.Addr()})
			}
		})
	}
	return true
}

// upperAdapter routes deliveries straight into the protocol.
type upperAdapter struct{ p *Protocol }

func (u upperAdapter) OnDeliver(payload []byte, _ mac.RxInfo) { u.p.HandleBeacon(payload) }
func (u upperAdapter) OnSendComplete(mac.TxResult)            {}

func newFabric(seed int64, n int, adj map[int][]int) (*sim.Engine, []*Protocol) {
	eng := sim.NewEngine(seed)
	w := &fakeWorld{eng: eng, adj: adj}
	protos := make([]*Protocol, n)
	for i := 0; i < n; i++ {
		fm := &fakeMAC{w: w, id: i}
		w.macs = append(w.macs, fm)
		protos[i] = New(eng, fm, i, i == 0, DefaultConfig())
		fm.SetUpper(upperAdapter{protos[i]})
		protos[i].Start()
	}
	return eng, protos
}

func line(n int) map[int][]int {
	adj := map[int][]int{}
	for i := 0; i < n-1; i++ {
		adj[i] = append(adj[i], i+1)
		adj[i+1] = append(adj[i+1], i)
	}
	return adj
}

func TestBeaconRoundTrip(t *testing.T) {
	cases := []Beacon{
		{ID: 0, Hops: 0, Parent: -1},
		{ID: 74, Hops: 10, Parent: 3, Children: 9},
		{ID: 5, Hops: -1, Parent: -1},
		{ID: 6, Hops: 2, Parent: 1, Children: 255},
	}
	for _, b := range cases {
		got, ok := ParseBeacon(b.Marshal())
		if !ok || got != b {
			t.Fatalf("roundtrip %+v -> %+v (ok=%v)", b, got, ok)
		}
	}
	if _, ok := ParseBeacon([]byte{'X', 0, 0}); ok {
		t.Fatal("junk accepted")
	}
	if _, ok := ParseBeacon(nil); ok {
		t.Fatal("nil accepted")
	}
}

func TestPropertyBeaconRoundTrip(t *testing.T) {
	f := func(id uint16, hops uint8, parent uint16, kids uint8, detached bool) bool {
		b := Beacon{ID: int(id), Hops: int(hops), Parent: int(parent), Children: int(kids)}
		if detached {
			b.Hops, b.Parent = -1, -1
		}
		got, ok := ParseBeacon(b.Marshal())
		return ok && got == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTreeFormsOnLine(t *testing.T) {
	eng, protos := newFabric(1, 4, line(4))
	eng.Run(10 * sim.Second)
	wantParent := []int{-1, 0, 1, 2}
	wantHops := []int{0, 1, 2, 3}
	for i, p := range protos {
		if p.Parent() != wantParent[i] || p.Hops() != wantHops[i] {
			t.Fatalf("node %d: parent=%d hops=%d, want %d/%d", i, p.Parent(), p.Hops(), wantParent[i], wantHops[i])
		}
	}
	for i := 0; i < 3; i++ {
		ch := protos[i].Children()
		if len(ch) != 1 || ch[0] != i+1 {
			t.Fatalf("node %d children = %v", i, ch)
		}
	}
	if len(protos[3].Children()) != 0 {
		t.Fatal("leaf has children")
	}
}

func TestParentTieBreaksLowestID(t *testing.T) {
	// Node 3 hears both 1 and 2 (both at hop 1); it must pick 1.
	adj := map[int][]int{
		0: {1, 2}, 1: {0, 3}, 2: {0, 3}, 3: {1, 2},
	}
	eng, protos := newFabric(2, 4, adj)
	eng.Run(10 * sim.Second)
	if protos[3].Parent() != 1 {
		t.Fatalf("node 3 parent = %d, want 1 (lowest ID at min hops)", protos[3].Parent())
	}
	if protos[3].Hops() != 2 {
		t.Fatalf("node 3 hops = %d", protos[3].Hops())
	}
}

func TestNeighborExpiry(t *testing.T) {
	eng, protos := newFabric(3, 2, line(2))
	eng.Run(5 * sim.Second)
	if protos[1].Parent() != 0 || protos[1].NeighborCount() != 1 {
		t.Fatal("tree did not form")
	}
	// Partition: stop deliveries by clearing adjacency, run past expiry.
	w := protosWorld(protos)
	w.adj = map[int][]int{}
	eng.Run(eng.Now() + 10*sim.Second)
	if protos[1].Parent() != -1 || protos[1].Hops() != -1 {
		t.Fatalf("stale parent survived: parent=%d hops=%d", protos[1].Parent(), protos[1].Hops())
	}
	if protos[1].NeighborCount() != 0 {
		t.Fatal("stale neighbour survived")
	}
}

// protosWorld digs the shared fakeWorld out of a protocol set.
func protosWorld(protos []*Protocol) *fakeWorld {
	return protos[0].mac.(*fakeMAC).w
}

func TestRootIgnoresBetterOffers(t *testing.T) {
	eng, protos := newFabric(4, 2, line(2))
	eng.Run(5 * sim.Second)
	if protos[0].Parent() != -1 || protos[0].Hops() != 0 {
		t.Fatal("root must stay parentless at hop 0")
	}
}

func TestOwnBeaconIgnored(t *testing.T) {
	eng := sim.NewEngine(5)
	fm := &fakeMAC{w: &fakeWorld{eng: eng, adj: map[int][]int{}}, id: 7}
	fm.w.macs = []*fakeMAC{nil, nil, nil, nil, nil, nil, nil, fm}
	p := New(eng, fm, 7, false, DefaultConfig())
	if !p.HandleBeacon(Beacon{ID: 7, Hops: 3, Parent: 1}.Marshal()) {
		t.Fatal("own beacon not recognised as beacon")
	}
	if p.NeighborCount() != 0 {
		t.Fatal("node learned itself as neighbour")
	}
}

func TestHandleBeaconRejectsData(t *testing.T) {
	eng := sim.NewEngine(6)
	p := New(eng, &fakeMAC{w: &fakeWorld{eng: eng}}, 1, false, DefaultConfig())
	if p.HandleBeacon([]byte{'D', 1, 2, 3}) {
		t.Fatal("data payload consumed as beacon")
	}
}

func TestBeaconRateRoughlyPeriodic(t *testing.T) {
	eng, protos := newFabric(7, 1, map[int][]int{})
	eng.Run(30 * sim.Second)
	sent := protos[0].BeaconsSent
	want := uint64(30 * sim.Second / DefaultConfig().Period)
	if sent < want*8/10 || sent > want*12/10 {
		t.Fatalf("beacons in 30s = %d, want ≈%d", sent, want)
	}
}

// refTable is the id-indexed neighbour table the compact table replaced,
// kept as a test oracle: one entry per id up to the largest id heard, and
// a full parent re-selection on every beacon.
type refTable struct {
	id           int
	root         bool
	expiry       sim.Time
	hops, parent int
	nb           []refNeighbor // indexed by node id
}

type refNeighbor struct {
	hops, parent, children int
	present                bool
	last                   sim.Time
}

func newRefTable(id int, root bool, expiry sim.Time) *refTable {
	r := &refTable{id: id, root: root, expiry: expiry, hops: -1, parent: -1}
	if root {
		r.hops = 0
	}
	return r
}

func (r *refTable) beacon(b Beacon, now sim.Time) {
	if b.ID == r.id {
		return
	}
	for b.ID >= len(r.nb) {
		r.nb = append(r.nb, refNeighbor{})
	}
	r.nb[b.ID] = refNeighbor{hops: b.Hops, parent: b.Parent, children: b.Children, present: true, last: now}
	if !r.root {
		r.recompute(now)
	}
}

func (r *refTable) recompute(now sim.Time) {
	best, bestHops, bestKids := -1, -1, -1
	for id := range r.nb {
		n := &r.nb[id]
		if n.present && now-n.last > r.expiry {
			n.present = false
		}
		if !n.present || n.hops < 0 {
			continue
		}
		kids := n.children
		if id == r.parent {
			kids++
		}
		if best < 0 || n.hops < bestHops ||
			(n.hops == bestHops && (kids > bestKids || (kids == bestKids && id < best))) {
			best, bestHops, bestKids = id, n.hops, kids
		}
	}
	switch {
	case r.root:
		r.hops, r.parent = 0, -1
	case best < 0:
		r.hops, r.parent = -1, -1
	default:
		r.hops, r.parent = bestHops+1, best
	}
}

func (r *refTable) fresh(id int, now sim.Time) bool {
	return r.nb[id].present && now-r.nb[id].last <= r.expiry
}

func (r *refTable) children(now sim.Time) []int {
	var out []int
	for id := range r.nb {
		if r.fresh(id, now) && r.nb[id].parent == r.id {
			out = append(out, id)
		}
	}
	return out
}

func (r *refTable) count(now sim.Time) int {
	c := 0
	for id := range r.nb {
		if r.fresh(id, now) {
			c++
		}
	}
	return c
}

// TestCompactTableMatchesReference drives the protocol and the id-indexed
// reference with the same random streams of beacons (from sparse ids,
// including the node's own), silences long enough to expire neighbours,
// and beacon-tick sweeps, and requires Parent, Hops, ChildrenInto and
// NeighborCount to agree after every step.
func TestCompactTableMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		self := 40 + rng.Intn(1500)
		root := seed%4 == 0
		pool := []int{self}
		for len(pool) < 14 {
			pool = append(pool, rng.Intn(1600))
		}
		eng := sim.NewEngine(seed)
		cfg := DefaultConfig()
		p := New(eng, &fakeMAC{w: &fakeWorld{eng: eng}, id: self}, self, root, cfg)
		ref := newRefTable(self, root, cfg.Expiry)
		var buf []int
		for step := 0; step < 2500; step++ {
			dt := sim.Time(rng.Int63n(int64(400 * sim.Millisecond)))
			if rng.Intn(40) == 0 {
				dt += cfg.Expiry // a silence that expires everyone heard before it
			}
			eng.Run(eng.Now() + dt)
			now := eng.Now()
			if rng.Intn(8) == 0 {
				p.recompute() // a beacon tick's sweep (tick itself would reschedule)
				ref.recompute(now)
			} else {
				b := Beacon{ID: pool[rng.Intn(len(pool))], Hops: rng.Intn(6) - 1,
					Parent: -1, Children: rng.Intn(5)}
				if rng.Intn(3) > 0 {
					b.Parent = pool[rng.Intn(len(pool))]
				}
				if b.Hops < 0 {
					b.Parent = -1
				}
				p.HandleBeacon(b.Marshal())
				ref.beacon(b, now)
			}
			buf = p.ChildrenInto(buf[:0])
			want := ref.children(now)
			if p.Parent() != ref.parent || p.Hops() != ref.hops ||
				!slices.Equal(buf, want) || p.NeighborCount() != ref.count(now) {
				t.Fatalf("seed %d step %d (root=%v): parent %d/%d hops %d/%d children %v/%v neighbours %d/%d (got/want)",
					seed, step, root, p.Parent(), ref.parent, p.Hops(), ref.hops,
					buf, want, p.NeighborCount(), ref.count(now))
			}
			if len(p.neighbors) > len(pool) {
				t.Fatalf("seed %d step %d: %d slots for %d possible neighbours", seed, step, len(p.neighbors), len(pool))
			}
		}
	}
}

// The table holds one slot per live neighbour, whatever its id, and the
// beacon tick's sweep drops expired ones.
func TestNeighborTableIsDegreeSized(t *testing.T) {
	eng := sim.NewEngine(8)
	p := New(eng, &fakeMAC{w: &fakeWorld{eng: eng}, id: 1}, 1, false, DefaultConfig())
	p.HandleBeacon(Beacon{ID: 9999, Hops: 1, Parent: 0}.Marshal())
	p.HandleBeacon(Beacon{ID: 3, Hops: 2, Parent: 1}.Marshal())
	if len(p.neighbors) != 2 || p.neighbors[0].id != 3 || p.neighbors[1].id != 9999 {
		t.Fatalf("table = %+v, want slots for ids 3 and 9999 in order", p.neighbors)
	}
	if p.Parent() != 9999 || !slices.Equal(p.Children(), []int{3}) {
		t.Fatalf("parent %d children %v", p.Parent(), p.Children())
	}
	eng.Run(eng.Now() + DefaultConfig().Expiry + 1)
	p.recompute()
	if len(p.neighbors) != 0 || p.Parent() != -1 {
		t.Fatalf("expired neighbours kept: %+v, parent %d", p.neighbors, p.Parent())
	}
}
