package phy

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"rmac/internal/frame"
	"rmac/internal/geom"
	"rmac/internal/mobility"
	"rmac/internal/sim"
)

// buildBig creates a network larger than gridThreshold so the grid engages.
func buildBig(t *testing.T, n int, seed int64, mobile bool) (*sim.Engine, *Medium, []*recRadio) {
	t.Helper()
	eng := sim.NewEngine(seed)
	cfg := DefaultConfig()
	m := NewMedium(eng, cfg)
	field := geom.Rect{W: 1000, H: 800}
	rng := rand.New(rand.NewSource(seed))
	rads := make([]*recRadio, n)
	for i := 0; i < n; i++ {
		start := field.RandomPoint(rng)
		var mob mobility.Model
		if mobile {
			mob = mobility.NewRandomWaypoint(field, 0, 8, sim.Second, start, rand.New(rand.NewSource(seed*100+int64(i))))
		} else {
			mob = mobility.Stationary{P: start}
		}
		r := m.AddRadio(i, mob)
		rr := &recRadio{Radio: r, rec: &recorder{}, eng: eng}
		r.SetHandler(rr)
		rads[i] = rr
	}
	return eng, m, rads
}

// linearNeighbors is the reference O(N) in-range query.
func linearNeighbors(m *Medium, src *Radio, dist float64) []int {
	pos := m.PositionOf(src)
	d2max := dist * dist
	var out []int
	for _, o := range m.Radios() {
		if o == src {
			continue
		}
		if m.PositionOf(o).Dist2(pos) <= d2max {
			out = append(out, o.ID())
		}
	}
	sort.Ints(out)
	return out
}

func gridNeighbors(m *Medium, src *Radio, dist float64) []int {
	var out []int
	m.forEachInRange(src, m.PositionOf(src), dist, func(o *Radio, _ float64) {
		out = append(out, o.ID())
	})
	sort.Ints(out)
	return out
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGridMatchesLinearScanStatic(t *testing.T) {
	_, m, rads := buildBig(t, 200, 1, false)
	if !m.gridEnabled() {
		t.Fatal("grid should engage at 200 nodes")
	}
	for _, r := range rads[:50] {
		want := linearNeighbors(m, r.Radio, m.Config().interferenceRange())
		got := gridNeighbors(m, r.Radio, m.Config().interferenceRange())
		if !sameInts(got, want) {
			t.Fatalf("node %d: grid %v vs linear %v", r.ID(), got, want)
		}
	}
}

func TestGridTracksMobility(t *testing.T) {
	eng, m, rads := buildBig(t, 150, 2, true)
	// Advance time in chunks beyond the refresh interval and re-verify.
	for step := 0; step < 5; step++ {
		eng.Schedule(eng.Now()+sim.Second, func() {})
		eng.RunAll()
		for _, r := range rads[:20] {
			want := linearNeighbors(m, r.Radio, m.Config().interferenceRange())
			got := gridNeighbors(m, r.Radio, m.Config().interferenceRange())
			if !sameInts(got, want) {
				t.Fatalf("t=%v node %d: grid %v vs linear %v", eng.Now(), r.ID(), got, want)
			}
		}
	}
}

func TestGridInvalidate(t *testing.T) {
	_, m, rads := buildBig(t, 120, 3, false)
	_ = gridNeighbors(m, rads[0].Radio, 75) // force build
	m.InvalidateGrid()
	want := linearNeighbors(m, rads[1].Radio, 75)
	got := gridNeighbors(m, rads[1].Radio, 75)
	if !sameInts(got, want) {
		t.Fatal("grid wrong after invalidate")
	}
}

// hashedGrid is the reference index the sorted-cell grid replaced: a map
// from cell to the radios in it, in registration order, rebuilt from
// current positions when invalid or older than gridRefresh.
type hashedGrid struct {
	cell  float64
	built sim.Time
	valid bool
	cells map[[2]int][]gridEntry
}

type visit struct {
	id int
	d2 float64
}

// inRange is forEachInRange computed the old way: cells visited dx outer,
// dy inner, registration order within a cell, static radios checked at
// their cached position and mobile radios at their current one.
func (h *hashedGrid) inRange(m *Medium, src *Radio, pos geom.Point, dist float64) []visit {
	if !h.valid || m.eng.Now()-h.built > gridRefresh {
		h.cells = map[[2]int][]gridEntry{}
		for _, r := range m.radios {
			p := m.PositionOf(r)
			k := [2]int{int(math.Floor(p.X / h.cell)), int(math.Floor(p.Y / h.cell))}
			h.cells[k] = append(h.cells[k], gridEntry{r: r, pos: p, static: r.static})
		}
		h.built, h.valid = m.eng.Now(), true
	}
	cx, cy := int(math.Floor(pos.X/h.cell)), int(math.Floor(pos.Y/h.cell))
	var out []visit
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for _, e := range h.cells[[2]int{cx + dx, cy + dy}] {
				op := e.pos
				if !e.static {
					op = m.PositionOf(e.r)
				}
				if d2 := op.Dist2(pos); e.r != src && d2 <= dist*dist {
					out = append(out, visit{e.r.ID(), d2})
				}
			}
		}
	}
	return out
}

// TestGridVisitOrderMatchesHashedGrid pins forEachInRange's callback
// sequence — ids, squared distances and their order, which fix the event
// tie-breaks of every fan-out — to the hashed grid's, over queries spread
// across a second of simulated time on a static and on a mobile network.
func TestGridVisitOrderMatchesHashedGrid(t *testing.T) {
	for _, mobile := range []bool{false, true} {
		eng, m, rads := buildBig(t, 300, 7, mobile)
		ref := &hashedGrid{cell: m.cfg.interferenceRange() * gridSlack}
		rng := rand.New(rand.NewSource(8))
		queries := 0
		for k := 0; k < 400; k++ {
			src := rads[rng.Intn(len(rads))].Radio
			dist := m.cfg.interferenceRange()
			if k%3 == 0 {
				dist = m.cfg.CommRange
			}
			eng.Schedule(sim.Time(rng.Intn(1000))*sim.Millisecond, func() {
				pos := m.PositionOf(src)
				var got []visit
				m.forEachInRange(src, pos, dist, func(o *Radio, d2 float64) {
					got = append(got, visit{o.ID(), d2})
				})
				want := ref.inRange(m, src, pos, dist)
				if !slices.Equal(got, want) {
					t.Fatalf("mobile=%v t=%v node %d: visits %v, hashed grid %v", mobile, eng.Now(), src.ID(), got, want)
				}
				queries++
			})
		}
		eng.RunAll()
		if queries != 400 {
			t.Fatalf("mobile=%v: %d of 400 queries ran", mobile, queries)
		}
	}
}

// TestGridRebuildsOnlyWhenMobile: a grid over stationary radios is built
// once; with mobile radios it is rebuilt once it is gridRefresh old.
func TestGridRebuildsOnlyWhenMobile(t *testing.T) {
	for _, mobile := range []bool{false, true} {
		eng, m, rads := buildBig(t, 120, 5, mobile)
		_ = gridNeighbors(m, rads[0].Radio, 75)
		eng.Schedule(2*gridRefresh, func() { _ = gridNeighbors(m, rads[1].Radio, 75) })
		eng.RunAll()
		want := sim.Time(0)
		if mobile {
			want = 2 * gridRefresh
		}
		if m.grid.built != want {
			t.Fatalf("mobile=%v: grid built at %v, want %v", mobile, m.grid.built, want)
		}
	}
}

// TestGridSeesRadioAddedAfterQuery: registering a radio invalidates the
// grid, so the next query finds it.
func TestGridSeesRadioAddedAfterQuery(t *testing.T) {
	_, m, rads := buildBig(t, 120, 3, false)
	src := rads[0].Radio
	_ = gridNeighbors(m, src, 75)
	p := m.PositionOf(src)
	late := m.AddRadio(120, mobility.Stationary{P: geom.Point{X: p.X + 10, Y: p.Y}})
	if got := gridNeighbors(m, src, 75); !slices.Contains(got, late.ID()) {
		t.Fatalf("radio added after the first query is invisible: %v", got)
	}
	if got, want := gridNeighbors(m, src, 75), linearNeighbors(m, src, 75); !sameInts(got, want) {
		t.Fatalf("grid %v vs linear %v", got, want)
	}
}

// TestGridMemoryLinearInRadios: the grid's size follows the radios, not
// the field. A hundred radios scattered over a 10⁷ m × 10⁷ m field —
// ~10¹⁰ cells of bounding box — build a grid of a few kilobytes.
func TestGridMemoryLinearInRadios(t *testing.T) {
	const n = 100
	eng := sim.NewEngine(1)
	m := NewMedium(eng, DefaultConfig())
	rng := rand.New(rand.NewSource(2))
	field := geom.Rect{W: 1e7, H: 1e7}
	for i := 0; i < n; i++ {
		m.AddRadio(i, mobility.Stationary{P: field.RandomPoint(rng)})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.rebuildGrid()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 256*n {
		t.Fatalf("grid over %d radios allocated %d bytes, want ≤ %d", n, got, 256*n)
	}
	if len(m.grid.keys) != n {
		t.Fatalf("%d occupied cells, want %d", len(m.grid.keys), n)
	}
}

// TestGridFarField: fields are outside input (rmacserved takes their
// size), so radios straddling the edge of the packed cell range, ~1.7·10¹¹
// m out, still find exactly the radios in range.
func TestGridFarField(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMedium(eng, DefaultConfig())
	edge := math.MaxInt32 * m.cfg.interferenceRange() * gridSlack
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 150; i++ {
		at := geom.Point{X: edge - 200 + rng.Float64()*400, Y: -edge - 150 + rng.Float64()*300}
		if i%3 == 0 {
			at = geom.Point{X: rng.Float64() * 400, Y: rng.Float64() * 300}
		}
		m.AddRadio(i, mobility.Stationary{P: at})
	}
	for _, r := range m.Radios() {
		if got, want := gridNeighbors(m, r, 75), linearNeighbors(m, r, 75); !sameInts(got, want) {
			t.Fatalf("node %d: grid %v vs linear %v", r.ID(), got, want)
		}
	}
}

func TestSmallNetworkSkipsGrid(t *testing.T) {
	_, m, _ := build(t, DefaultConfig(), []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}})
	if m.gridEnabled() {
		t.Fatal("grid engaged below threshold")
	}
}

// TestGridDeliveryLargeNetwork exercises the full TX path with the grid:
// a broadcast in a dense 150-node cluster reaches exactly the in-range set.
func TestGridDeliveryLargeNetwork(t *testing.T) {
	eng := sim.NewEngine(4)
	cfg := DefaultConfig()
	m := NewMedium(eng, cfg)
	rads := make([]*recRadio, 0, 150)
	rng := rand.New(rand.NewSource(9))
	field := geom.Rect{W: 600, H: 400}
	for i := 0; i < 150; i++ {
		r := m.AddRadio(i, mobility.Stationary{P: field.RandomPoint(rng)})
		rr := &recRadio{Radio: r, rec: &recorder{}, eng: eng}
		r.SetHandler(rr)
		rads = append(rads, rr)
	}
	want := linearNeighbors(m, rads[0].Radio, cfg.CommRange)
	rads[0].StartTx(&frame.UData{Transmitter: frame.AddrFromID(0), Receiver: frame.Broadcast, Payload: make([]byte, 50)})
	eng.RunAll()
	var got []int
	for _, r := range rads[1:] {
		for _, f := range r.rec.frames {
			if f.ok {
				got = append(got, r.ID())
			}
		}
	}
	sort.Ints(got)
	if !sameInts(got, want) {
		t.Fatalf("delivered to %v, want %v", got, want)
	}
}

func BenchmarkLargeNetworkTx(b *testing.B) {
	for _, n := range []int{75, 300, 1000} {
		b.Run(map[int]string{75: "75nodes", 300: "300nodes", 1000: "1000nodes"}[n], func(b *testing.B) {
			eng := sim.NewEngine(5)
			cfg := DefaultConfig()
			m := NewMedium(eng, cfg)
			rng := rand.New(rand.NewSource(6))
			field := geom.Rect{W: 2000, H: 1600}
			for i := 0; i < n; i++ {
				r := m.AddRadio(i, mobility.Stationary{P: field.RandomPoint(rng)})
				r.SetHandler(nil2{})
				_ = r
			}
			rads := m.Radios()
			f := &frame.UData{Transmitter: frame.AddrFromID(0), Receiver: frame.Broadcast, Payload: make([]byte, 100)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := rads[i%n]
				if src.Transmitting() {
					eng.RunAll()
				}
				src.StartTx(f)
				eng.RunAll()
			}
		})
	}
}

type nil2 struct{}

func (nil2) OnFrameReceived(frame.Frame, bool, sim.Time) {}
func (nil2) OnCarrierChange(bool)                        {}
func (nil2) OnToneChange(Tone, bool)                     {}
func (nil2) OnTxDone(frame.Frame)                        {}
