package mac

import (
	"math/rand"

	"rmac/internal/phy"
	"rmac/internal/sim"
)

// Backoff implements the §3.3.1 backoff procedure shared by the Reliable
// and Unreliable Send services, and reused (with a different idle
// predicate) by the 802.11-based baselines.
//
// The owner drives it with channel-state transitions: call Resume whenever
// the relevant channels may have become idle, Suspend when they become
// busy. While counting, BI decreases by one per idle slot; when BI reaches
// zero the fire callback runs. Per the paper, a suspended slot does not
// decrement BI.
//
// A countdown costs one engine event, not one per slot (the NS-2 802.11
// design): Resume arms a single timer BI slots ahead, and Suspend takes
// the whole slots elapsed since that Resume off BI, dropping the partial
// one. The backoff therefore sees the channel only at Resume and at the
// fire, and the owner must call Suspend on every busy edge: a busy episode
// that is never reported, and that ends before the fire, does not delay
// the countdown. All six MACs report every edge. If the fire finds the
// channel busy anyway, an edge was missed: the countdown increments
// BusyTicks, keeps one slot left, and polls the channel every slot until
// it is idle, so a draw can never stall Active() && !Counting() waiting
// for a Resume that will not come.
type Backoff struct {
	eng   *sim.Engine
	rng   *rand.Rand
	slot  sim.Time
	idle  func() bool // all relevant channels idle right now
	fire  func()      // BI hit zero
	timer *sim.Timer
	// start is when the running countdown was armed; BI counts down from
	// it while Counting.
	start sim.Time

	bi, cw int

	// BusyTicks counts countdown expiries that found the channel busy
	// without the owner having called Suspend (the self-healing re-poll
	// path).
	BusyTicks uint64

	active bool // a draw is pending (BI meaningful)
}

// NewBackoff creates a backoff entity. idle must report whether the
// protocol's countdown condition holds (for RMAC: data channel AND RBT
// channel idle); fire runs when the countdown completes.
func NewBackoff(eng *sim.Engine, rng *rand.Rand, slot sim.Time, idle func() bool, fire func()) *Backoff {
	b := &Backoff{eng: eng, rng: rng, slot: slot, idle: idle, fire: fire, cw: phy.CWMin}
	b.timer = sim.NewTimer(eng, b.expire)
	return b
}

// BI returns the remaining backoff interval in slots; while counting, the
// slots not yet wholly elapsed.
func (b *Backoff) BI() int {
	if b.timer.Pending() {
		return b.bi - b.elapsed()
	}
	return b.bi
}

// CW returns the current contention window.
func (b *Backoff) CW() int { return b.cw }

// Active reports whether a countdown is pending or in progress.
func (b *Backoff) Active() bool { return b.active }

// Counting reports whether the countdown timer is currently running.
func (b *Backoff) Counting() bool { return b.timer.Pending() }

// Draw initialises BI to a uniform value in [0, CW] and marks the backoff
// active. It does not start counting; call Resume.
func (b *Backoff) Draw() {
	b.bi = b.rng.Intn(b.cw + 1)
	b.active = true
}

// Fail doubles the contention window (exponential backoff on failed
// transmissions), saturating at CWMax.
func (b *Backoff) Fail() {
	b.cw = min(b.cw*2+1, phy.CWMax)
}

// Reset restores the contention window to CWMin after a successful
// transmission or a drop.
func (b *Backoff) Reset() { b.cw = phy.CWMin }

// Resume starts (or restarts) the countdown if a draw is active and the
// channels are idle. If BI is already zero it fires immediately.
func (b *Backoff) Resume() {
	if !b.active || b.timer.Pending() {
		return
	}
	if !b.idle() {
		return
	}
	if b.bi == 0 {
		b.finish()
		return
	}
	b.start = b.eng.Now()
	b.timer.Start(sim.Time(b.bi) * b.slot)
}

// Suspend pauses the countdown: BI loses the slots wholly elapsed since
// Resume, and the slot in progress does not count.
func (b *Backoff) Suspend() {
	if !b.timer.Pending() {
		return
	}
	b.bi -= b.elapsed()
	b.timer.Stop()
}

// elapsed is the number of whole slots since the countdown was armed.
func (b *Backoff) elapsed() int { return int((b.eng.Now() - b.start) / b.slot) }

func (b *Backoff) expire() {
	if !b.idle() {
		// The channel is busy at the fire without the owner having
		// called Suspend, so no Resume may ever follow: the busy edge
		// was missed, or the owner's edge callback raced this fire. Per
		// the paper the slot does not count. Poll every slot from here
		// until the channel is idle; Suspend still stops the poll, and a
		// Resume while it is pending is the usual no-op.
		b.BusyTicks++
		b.bi = 1
		b.start = b.eng.Now()
		b.timer.Start(b.slot)
		return
	}
	b.bi = 0
	b.finish()
}

func (b *Backoff) finish() {
	b.active = false
	b.fire()
}
