package phy

import (
	"cmp"
	"math"
	"slices"

	"rmac/internal/geom"
	"rmac/internal/sim"
)

// spatialGrid accelerates in-range queries for large networks: radios are
// bucketed into square cells slightly larger than the interference range,
// so a 3×3 cell block around a transmitter covers every possible
// receiver. A grid over stationary radios is built once; with any mobile
// radio it is rebuilt lazily, at most once per gridRefresh of simulated
// time, and the cell slack absorbs node movement between rebuilds for any
// realistic speed (≤ ~35 m/s at the defaults).
//
// Only occupied cells are stored, sorted by (x, y), so the index takes
// O(radios) memory however large the field is: keys[i] is the i-th
// occupied cell and its radios are entries[start[i]:start[i+1]]. The
// cells (x, y-1), (x, y), (x, y+1) of one column are adjacent in keys,
// and so are their entries, so a query is one binary search per column.
//
// Determinism: candidate cells are visited in a fixed order (column
// x-1, x, x+1; rows y-1, y, y+1 within a column) and radios within a
// cell keep registration order, so runs with equal seeds remain
// bit-identical. (The visit order differs from the linear scan's ID
// order, so enabling the grid changes sub-nanosecond event tie-breaks —
// physically equivalent, numerically a different sample path.)
type spatialGrid struct {
	cell    float64
	built   sim.Time
	valid   bool
	keys    []uint64
	start   []int32
	entries []gridEntry
	slots   []gridSlot // rebuild scratch
}

// gridEntry caches the radio's position at rebuild time. For static radios
// the cached position is exact and is used directly in range checks;
// moving radios are re-read from their leg-table slot, so movement
// between rebuilds never changes results. Either way a candidate out of
// range is rejected without touching its Radio.
type gridEntry struct {
	r      *Radio
	pos    geom.Point
	slot   int32
	static bool
}

// gridSlot is one radio's cell key, registration index and position
// during a rebuild.
type gridSlot struct {
	key uint64
	i   int32
	pos geom.Point
}

const (
	// gridRefresh bounds grid staleness when some radio moves.
	gridRefresh = 100 * sim.Millisecond
	// gridSlack scales cells beyond the interference range to absorb
	// movement between rebuilds.
	gridSlack = 1.05
	// gridThreshold is the network size above which the grid pays for
	// itself; smaller networks use the plain scan.
	gridThreshold = 96
)

func (m *Medium) gridEnabled() bool { return len(m.radios) >= gridThreshold }

// cellKey packs cell (x, y) into a key whose unsigned order is (x, y)
// order, for any coordinates inside the int32 range.
func cellKey(x, y int) uint64 {
	return uint64(uint32(x)^1<<31)<<32 | uint64(uint32(y)^1<<31)
}

// cellOf returns the cell holding p. Coordinates are clamped one short of
// the int32 range, so a cell's neighbours still pack into cellKey; radios
// beyond ~10¹¹ m share the border cells, which costs range checks there,
// never a missed receiver.
func (g *spatialGrid) cellOf(p geom.Point) (x, y int) {
	return clampCell(p.X / g.cell), clampCell(p.Y / g.cell)
}

func clampCell(v float64) int {
	return int(max(math.MinInt32+1, min(math.Floor(v), math.MaxInt32-1)))
}

// rebuildGrid re-buckets every radio at its current position. Its
// buffers are reused, so the periodic rebuild of a mobile network does
// not allocate in steady state.
func (m *Medium) rebuildGrid() {
	if m.grid == nil {
		m.grid = &spatialGrid{cell: m.cfg.interferenceRange() * gridSlack}
	}
	g := m.grid
	n := len(m.radios)
	g.slots = slices.Grow(g.slots[:0], n)
	for i, r := range m.radios {
		p := m.PositionOf(r)
		g.slots = append(g.slots, gridSlot{cellKey(g.cellOf(p)), int32(i), p})
	}
	slices.SortFunc(g.slots, func(a, b gridSlot) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	g.entries = slices.Grow(g.entries[:0], n)
	g.keys, g.start = g.keys[:0], g.start[:0]
	for k, s := range g.slots {
		if k == 0 || s.key != g.slots[k-1].key {
			g.keys = append(g.keys, s.key)
			g.start = append(g.start, int32(k))
		}
		r := m.radios[s.i]
		g.entries = append(g.entries, gridEntry{r: r, pos: s.pos, slot: r.slot, static: r.static})
	}
	g.start = append(g.start, int32(n))
	g.built = m.eng.Now()
	g.valid = true
}

// forEachInRange invokes fn for every radio other than src whose current
// position lies within dist of pos, passing the squared distance. The
// visit order is deterministic.
func (m *Medium) forEachInRange(src *Radio, pos geom.Point, dist float64, fn func(o *Radio, d2 float64)) {
	d2max := dist * dist
	if !m.gridEnabled() {
		for _, o := range m.radios {
			if o == src {
				continue
			}
			if d2 := m.PositionOf(o).Dist2(pos); d2 <= d2max {
				fn(o, d2)
			}
		}
		return
	}
	now := m.eng.Now()
	if g := m.grid; g == nil || !g.valid || len(m.legs) > 0 && now-g.built > gridRefresh {
		m.rebuildGrid()
	}
	g := m.grid
	cx, cy := g.cellOf(pos)
	for x := cx - 1; x <= cx+1; x++ {
		lo, hi := cellKey(x, cy-1), cellKey(x, cy+1)
		i, _ := slices.BinarySearch(g.keys, lo)
		j := i
		for j < len(g.keys) && g.keys[j] <= hi {
			j++
		}
		for _, e := range g.entries[g.start[i]:g.start[j]] {
			if e.r == src {
				continue
			}
			op := e.pos
			if !e.static {
				op = m.legPos(e.slot, now)
			}
			if d2 := op.Dist2(pos); d2 <= d2max {
				fn(e.r, d2)
			}
		}
	}
}

// InvalidateGrid forces a rebuild on the next query (new radios, tests
// and teleports).
func (m *Medium) InvalidateGrid() {
	if m.grid != nil {
		m.grid.valid = false
	}
}
