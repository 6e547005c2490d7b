package mac

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"rmac/internal/phy"
	"rmac/internal/sim"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue(3)
	a, b, c, d := &SendRequest{}, &SendRequest{}, &SendRequest{}, &SendRequest{}
	if !q.Push(a) || !q.Push(b) || !q.Push(c) {
		t.Fatal("pushes failed below capacity")
	}
	if q.Push(d) {
		t.Fatal("push succeeded on full queue")
	}
	if q.Peek() != a {
		t.Fatal("peek != first")
	}
	if q.Pop() != a || q.Pop() != b {
		t.Fatal("pop order wrong")
	}
	if !q.Push(d) {
		t.Fatal("push after pop failed")
	}
	if q.Pop() != c || q.Pop() != d {
		t.Fatal("pop order wrong after wrap")
	}
	if q.Pop() != nil || q.Peek() != nil {
		t.Fatal("empty queue must return nil")
	}
}

func TestQueueCompaction(t *testing.T) {
	q := NewQueue(1000)
	reqs := make([]*SendRequest, 500)
	for i := range reqs {
		reqs[i] = &SendRequest{}
		q.Push(reqs[i])
	}
	for i := 0; i < 400; i++ {
		if q.Pop() != reqs[i] {
			t.Fatalf("pop %d wrong", i)
		}
	}
	if q.Len() != 100 {
		t.Fatalf("len = %d, want 100", q.Len())
	}
	// Internal storage must have been compacted at some point.
	if len(q.items) > 200 {
		t.Fatalf("storage not compacted: %d", len(q.items))
	}
}

func TestQueueZeroCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity must panic")
		}
	}()
	NewQueue(0)
}

// Property: any interleaving of pushes and pops preserves FIFO order and
// never exceeds capacity.
func TestPropertyQueueFIFO(t *testing.T) {
	f := func(ops []bool, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		q := NewQueue(capacity)
		next := 0
		var expect []int
		for _, push := range ops {
			if push {
				r := &SendRequest{Meta: next}
				if q.Push(r) {
					expect = append(expect, next)
				} else if q.Len() != capacity {
					return false // rejected while not full
				}
				next++
			} else {
				r := q.Pop()
				if len(expect) == 0 {
					if r != nil {
						return false
					}
				} else {
					if r == nil || r.Meta.(int) != expect[0] {
						return false
					}
					expect = expect[1:]
				}
			}
			if q.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

type backoffHarness struct {
	eng   *sim.Engine
	b     *Backoff
	idle  bool
	fired int
}

func newBackoffHarness(seed int64) *backoffHarness {
	h := &backoffHarness{eng: sim.NewEngine(seed), idle: true}
	h.b = NewBackoff(h.eng, h.eng.Rand(), phy.SlotTime, func() bool { return h.idle }, func() { h.fired++ })
	return h
}

func TestBackoffCountsDown(t *testing.T) {
	h := newBackoffHarness(1)
	h.b.Draw()
	bi := h.b.BI()
	if bi < 0 || bi > phy.CWMin {
		t.Fatalf("BI = %d outside [0, %d]", bi, phy.CWMin)
	}
	h.b.Resume()
	h.eng.RunAll()
	if h.fired != 1 {
		t.Fatalf("fired = %d, want 1", h.fired)
	}
	want := sim.Time(bi) * phy.SlotTime
	if h.eng.Now() != want {
		t.Fatalf("fire time = %v, want %v", h.eng.Now(), want)
	}
	if h.b.Active() {
		t.Fatal("still active after fire")
	}
}

func TestBackoffZeroBIFiresImmediately(t *testing.T) {
	h := newBackoffHarness(1)
	h.b.Draw()
	h.b.bi = 0
	h.b.Resume()
	if h.fired != 1 {
		t.Fatal("BI=0 did not fire on Resume")
	}
	if h.eng.Now() != 0 {
		t.Fatal("BI=0 fire should be immediate")
	}
}

func TestBackoffSuspendHoldsBI(t *testing.T) {
	h := newBackoffHarness(2)
	h.b.Draw()
	h.b.bi = 10
	h.b.Resume()
	// After 3 full slots, suspend mid-slot; BI must be 7.
	h.eng.Schedule(3*phy.SlotTime+phy.SlotTime/2, func() {
		h.idle = false
		h.b.Suspend()
	})
	h.eng.RunAll()
	if h.fired != 0 {
		t.Fatal("fired while suspended")
	}
	if h.b.BI() != 7 {
		t.Fatalf("BI after suspend = %d, want 7", h.b.BI())
	}
	// Resume; remaining 7 slots must elapse.
	resumeAt := h.eng.Now() + 100*sim.Microsecond
	h.eng.Schedule(resumeAt, func() {
		h.idle = true
		h.b.Resume()
	})
	h.eng.RunAll()
	if h.fired != 1 {
		t.Fatal("did not fire after resume")
	}
	if got, want := h.eng.Now(), resumeAt+7*phy.SlotTime; got != want {
		t.Fatalf("fire at %v, want %v", got, want)
	}
}

// TestBackoffSuspendOnSlotBoundary: a Suspend exactly at the end of a
// slot counts that slot (whole slots elapsed, floor).
func TestBackoffSuspendOnSlotBoundary(t *testing.T) {
	h := newBackoffHarness(2)
	h.b.Draw()
	h.b.bi = 10
	h.b.Resume()
	h.eng.Schedule(3*phy.SlotTime, func() {
		h.idle = false
		h.b.Suspend()
	})
	h.eng.RunAll()
	if h.b.BI() != 7 {
		t.Fatalf("BI after a suspend on the third slot boundary = %d, want 7", h.b.BI())
	}
}

// TestBackoffSuspendInLastSlot: a Suspend inside the last slot leaves one
// slot, which a later Resume counts down in full.
func TestBackoffSuspendInLastSlot(t *testing.T) {
	h := newBackoffHarness(2)
	h.b.Draw()
	h.b.bi = 4
	h.b.Resume()
	h.eng.Schedule(3*phy.SlotTime+phy.SlotTime/2, func() {
		h.idle = false
		h.b.Suspend()
	})
	h.eng.RunAll()
	if h.fired != 0 || h.b.BI() != 1 {
		t.Fatalf("fired = %d, BI = %d after a suspend in the last slot, want 0 and 1", h.fired, h.b.BI())
	}
	resumeAt := h.eng.Now() + 100*sim.Microsecond
	h.eng.Schedule(resumeAt, func() {
		h.idle = true
		h.b.Resume()
	})
	h.eng.RunAll()
	if got, want := h.eng.Now(), resumeAt+phy.SlotTime; h.fired != 1 || got != want {
		t.Fatalf("fired = %d at %v, want 1 at %v", h.fired, got, want)
	}
}

// TestBackoffBusyTickDoesNotDecrement: the channel is busy when the
// countdown expires, and the owner never called Suspend. The busy slot
// must not complete the countdown: one slot stays, the expiry is counted,
// and the countdown keeps polling (see TestBackoffBusySlotSelfHeals).
func TestBackoffBusyTickDoesNotDecrement(t *testing.T) {
	h := newBackoffHarness(3)
	h.b.Draw()
	h.b.bi = 2
	h.b.Resume()
	h.eng.Schedule(2*phy.SlotTime-1, func() { h.idle = false })
	h.eng.Run(2 * phy.SlotTime)
	if h.fired != 0 {
		t.Fatal("fired on a busy channel")
	}
	if h.b.BI() != 1 {
		t.Fatalf("BI = %d, want 1 (busy slot must not count)", h.b.BI())
	}
	if !h.b.Counting() {
		t.Fatal("busy expiry dropped the timer instead of re-polling")
	}
	if h.b.BusyTicks != 1 {
		t.Fatalf("BusyTicks = %d, want 1", h.b.BusyTicks)
	}
}

// TestBackoffBusySlotSelfHeals: the owner drives Resume only from the
// channel-state edges it observes, so after an expiry that found the
// channel busy without a Suspend, no Resume may ever come. The countdown
// must poll every slot instead of stalling Active() && !Counting(), and
// complete at the first poll that finds the channel idle again.
func TestBackoffBusySlotSelfHeals(t *testing.T) {
	h := newBackoffHarness(7)
	h.b.Draw()
	h.b.bi = 3
	h.b.Resume()
	// Busy across the expiry at slot 3, with no Suspend and no Resume.
	h.eng.Schedule(2*phy.SlotTime+phy.SlotTime/2, func() { h.idle = false })
	h.eng.Schedule(3*phy.SlotTime+phy.SlotTime/2, func() { h.idle = true })
	h.eng.RunAll()
	if h.fired != 1 {
		t.Fatalf("fired = %d, want 1: the draw stalled without a Resume edge", h.fired)
	}
	if h.b.Active() || h.b.Counting() {
		t.Fatal("backoff still active after completing")
	}
	if h.b.BusyTicks != 1 {
		t.Fatalf("BusyTicks = %d, want 1", h.b.BusyTicks)
	}
	// Three slots to the busy expiry, then one poll slot.
	if want := 4 * phy.SlotTime; h.eng.Now() != want {
		t.Fatalf("completed at %v, want %v", h.eng.Now(), want)
	}
}

// TestBackoffUnreportedBusyDoesNotDelay: the countdown sees the channel
// only at Resume and at its expiry, so a busy episode that the owner never
// reports, and that ends before the expiry, does not delay it. Owners
// report every busy edge with Suspend.
func TestBackoffUnreportedBusyDoesNotDelay(t *testing.T) {
	h := newBackoffHarness(7)
	h.b.Draw()
	h.b.bi = 3
	h.b.Resume()
	h.eng.Schedule(phy.SlotTime/2, func() { h.idle = false })
	h.eng.Schedule(phy.SlotTime+phy.SlotTime/2, func() { h.idle = true })
	h.eng.RunAll()
	if h.fired != 1 || h.b.BusyTicks != 0 {
		t.Fatalf("fired = %d, BusyTicks = %d, want 1 and 0", h.fired, h.b.BusyTicks)
	}
	if want := 3 * phy.SlotTime; h.eng.Now() != want {
		t.Fatalf("completed at %v, want %v", h.eng.Now(), want)
	}
}

func TestBackoffCWGrowthAndReset(t *testing.T) {
	h := newBackoffHarness(4)
	if h.b.CW() != phy.CWMin {
		t.Fatalf("initial CW = %d", h.b.CW())
	}
	want := []int{63, 127, 255, 511, 1023, 1023}
	for i, w := range want {
		h.b.Fail()
		if h.b.CW() != w {
			t.Fatalf("CW after %d fails = %d, want %d", i+1, h.b.CW(), w)
		}
	}
	h.b.Reset()
	if h.b.CW() != phy.CWMin {
		t.Fatal("CW not reset")
	}
}

func TestBackoffResumeIdempotent(t *testing.T) {
	h := newBackoffHarness(6)
	h.b.Draw()
	h.b.bi = 3
	h.b.Resume()
	h.b.Resume() // must not double-schedule
	h.eng.RunAll()
	if h.fired != 1 {
		t.Fatalf("fired = %d, want 1", h.fired)
	}
	if got, want := h.eng.Now(), 3*phy.SlotTime; got != want {
		t.Fatalf("fire at %v, want %v (double Resume shortened countdown?)", got, want)
	}
}

// Property: BI draws always fall in [0, CW] and firing consumes exactly BI
// idle slots.
func TestPropertyBackoffDrawAndFire(t *testing.T) {
	f := func(seed int64, fails uint8) bool {
		h := newBackoffHarness(seed)
		for i := 0; i < int(fails%6); i++ {
			h.b.Fail()
		}
		h.b.Draw()
		if h.b.BI() < 0 || h.b.BI() > h.b.CW() {
			return false
		}
		bi := h.b.BI()
		h.b.Resume()
		h.eng.RunAll()
		return h.fired == 1 && h.eng.Now() == sim.Time(bi)*phy.SlotTime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// slotBackoff is the literal per-slot reading of §3.3.1, kept as Backoff's
// reference model: one timer event per idle slot, BI dropping by one at
// each, a slot cut short by Suspend not counting.
type slotBackoff struct {
	rng    *rand.Rand
	idle   func() bool
	fire   func()
	bi, cw int
	active bool
	timer  *sim.Timer
}

func newSlotBackoff(eng *sim.Engine, rng *rand.Rand, idle func() bool, fire func()) *slotBackoff {
	b := &slotBackoff{rng: rng, idle: idle, fire: fire, cw: phy.CWMin}
	b.timer = sim.NewTimer(eng, b.tick)
	return b
}

func (b *slotBackoff) Draw() {
	b.bi = b.rng.Intn(b.cw + 1)
	b.active = true
}

func (b *slotBackoff) Fail() { b.cw = min(b.cw*2+1, phy.CWMax) }

func (b *slotBackoff) BI() int { return b.bi }

func (b *slotBackoff) Resume() {
	if !b.active || b.timer.Pending() || !b.idle() {
		return
	}
	if b.bi == 0 {
		b.finish()
		return
	}
	b.timer.Start(phy.SlotTime)
}

func (b *slotBackoff) Suspend() { b.timer.Stop() }

func (b *slotBackoff) tick() {
	if !b.idle() {
		b.timer.Start(phy.SlotTime)
		return
	}
	b.bi--
	if b.bi <= 0 {
		b.finish()
		return
	}
	b.timer.Start(phy.SlotTime)
}

func (b *slotBackoff) finish() {
	b.active = false
	b.fire()
}

// backoffModel is the owner's view of Backoff and of its reference model.
type backoffModel interface {
	Draw()
	Fail()
	Resume()
	Suspend()
	BI() int
}

// backoffStep is one entry of a backoff model's log: a fire, or BI right
// after a Suspend.
type backoffStep struct {
	at    sim.Time
	fired bool
	bi    int
}

// runBackoffSchedule drives one backoff model through a channel schedule
// the way a MAC does: every busy edge calls Suspend, every idle edge
// Resume, and every fire draws again and resumes. It returns the log of
// fires and of BI after each Suspend.
func runBackoffSchedule(seed int64, fails int, edges []sim.Time, build func(*sim.Engine, *rand.Rand, func() bool, func()) backoffModel) []backoffStep {
	eng := sim.NewEngine(1)
	idle := true
	var log []backoffStep
	var b backoffModel
	b = build(eng, rand.New(rand.NewSource(seed)), func() bool { return idle }, func() {
		log = append(log, backoffStep{at: eng.Now(), fired: true})
		b.Draw()
		b.Resume()
	})
	for i := 0; i < fails; i++ {
		b.Fail()
	}
	b.Draw()
	b.Resume()
	for i, at := range edges {
		busy := i%2 == 0
		eng.Schedule(at, func() {
			idle = !busy
			if busy {
				b.Suspend()
				log = append(log, backoffStep{at: at, bi: b.BI()})
			} else {
				b.Resume()
			}
		})
	}
	eng.Run(edges[len(edges)-1] + 2*sim.Time(phy.CWMax)*phy.SlotTime)
	return log
}

// Property: with every busy edge reported and none on a slot boundary,
// the one-timer countdown fires at the same instants as the per-slot
// reference model, and BI after every Suspend is the same.
func TestPropertyBackoffMatchesSlotModel(t *testing.T) {
	f := func(seed int64, fails uint8, gaps []uint16) bool {
		if len(gaps) == 0 {
			return true
		}
		// Alternate busy and idle periods of up to ~40 slots. A countdown
		// restarts at the last idle edge, and fires on its slot grid, so a
		// busy edge is moved off the grid of the idle edge before it.
		edges := make([]sim.Time, len(gaps))
		var at, lastIdle sim.Time
		for i, g := range gaps {
			at += sim.Time(g)*13 + 1
			if i%2 == 0 && (at-lastIdle)%phy.SlotTime == 0 {
				at++
			}
			if i%2 == 1 {
				lastIdle = at
			}
			edges[i] = at
		}
		ref := runBackoffSchedule(seed, int(fails%4), edges, func(eng *sim.Engine, rng *rand.Rand, idle func() bool, fire func()) backoffModel {
			return newSlotBackoff(eng, rng, idle, fire)
		})
		got := runBackoffSchedule(seed, int(fails%4), edges, func(eng *sim.Engine, rng *rand.Rand, idle func() bool, fire func()) backoffModel {
			return NewBackoff(eng, rng, phy.SlotTime, idle, fire)
		})
		return slices.Equal(ref, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBackoffSizeClass pins Backoff, one per node, in Go's 96-byte size
// class.
func TestBackoffSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Backoff{}); n > 96 {
		t.Errorf("unsafe.Sizeof(Backoff{}) = %d, want at most 96", n)
	}
}

func TestStatsRatios(t *testing.T) {
	s := &Stats{}
	if s.DropRatio() != 0 || s.RetxRatio() != 0 || s.OverheadRatio() != 0 || s.AbortRatio() != 0 {
		t.Fatal("zero stats must give zero ratios")
	}
	if s.NonLeaf() {
		t.Fatal("zero stats is a leaf")
	}
	s.ReliableToTransmit = 100
	s.Drops = 2
	s.Retransmissions = 30
	s.CtrlTxTime = 10 * sim.Millisecond
	s.CtrlRxTime = 5 * sim.Millisecond
	s.ABTCheckTime = 5 * sim.Millisecond
	s.DataTxTime = 100 * sim.Millisecond
	s.MRTSSent = 50
	s.MRTSAborted = 1
	if s.DropRatio() != 0.02 {
		t.Fatalf("DropRatio = %v", s.DropRatio())
	}
	if s.RetxRatio() != 0.3 {
		t.Fatalf("RetxRatio = %v", s.RetxRatio())
	}
	if s.OverheadRatio() != 0.2 {
		t.Fatalf("OverheadRatio = %v", s.OverheadRatio())
	}
	if s.AbortRatio() != 0.02 {
		t.Fatalf("AbortRatio = %v", s.AbortRatio())
	}
	if !s.NonLeaf() {
		t.Fatal("forwarder not detected as non-leaf")
	}
}

func TestServiceString(t *testing.T) {
	if Reliable.String() != "reliable" || Unreliable.String() != "unreliable" {
		t.Fatal("Service strings")
	}
}

func TestDefaultLimits(t *testing.T) {
	l := DefaultLimits()
	if l.RetryLimit != 7 || l.MaxReceivers != 20 || l.QueueCap <= 0 {
		t.Fatalf("DefaultLimits = %+v", l)
	}
}
