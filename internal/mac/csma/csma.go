// Package csma is the IEEE 802.11 DCF the baselines are built on: NAV
// virtual carrier sense, a DIFS-gated contention process wrapping the
// common backoff entity, and Station, the DCF half of a node that BMMM,
// BMW, LBP, 802.11MX and plain 802.11 embed on top of mac.Node. The
// station also runs the SIFS timing they share: the one-slot response
// (Respond), the gap before a protocol's own next frame (AfterSIFS and
// StepDue) and the end of a response (TxDone). Each protocol keeps only
// its own exchange. RMAC embeds
// mac.Node too but does not use the DCF half — it discards virtual
// carrier sense in favour of busy tones (§2).
package csma

import (
	"math/rand"

	"rmac/internal/mac"
	"rmac/internal/phy"
	"rmac/internal/sim"
)

// NAV is the Network Allocation Vector: the virtual carrier-sense
// reservation learned from overheard Duration fields.
type NAV struct {
	eng   *sim.Engine
	until sim.Time
	timer *sim.Timer
}

// NewNAV creates a NAV whose expiry invokes onExpire (typically the DCF's
// ChannelMaybeIdle).
func NewNAV(eng *sim.Engine, onExpire func()) *NAV {
	n := &NAV{eng: eng}
	n.timer = sim.NewTimer(eng, onExpire)
	return n
}

// Set extends the reservation to cover d from now (shorter reservations
// never shrink the NAV).
func (n *NAV) Set(d sim.Time) {
	end := n.eng.Now() + d
	if end <= n.until {
		return
	}
	n.until = end
	n.timer.StartAt(end)
}

// Busy reports whether the virtual carrier is currently reserved.
func (n *NAV) Busy() bool { return n.eng.Now() < n.until }

// Until returns the reservation end.
func (n *NAV) Until() sim.Time { return n.until }

// DCF is the distributed coordination function contention process: wait
// for the medium (physical + virtual) to stay idle for DIFS, then count
// down the backoff, then fire. Owners feed it channel transitions.
type DCF struct {
	eng     *sim.Engine
	idle    func() bool // physical && virtual carrier idle
	fire    func()
	backoff *mac.Backoff
	difs    *sim.Timer
	armed   bool
}

// NewDCF creates a contention process. idle must report the combined
// physical+virtual carrier state; fire runs when a transmission
// opportunity is won.
func NewDCF(eng *sim.Engine, rng *rand.Rand, idle func() bool, fire func()) *DCF {
	d := &DCF{eng: eng, idle: idle, fire: fire}
	d.backoff = mac.NewBackoff(eng, rng, phy.SlotTime, idle, d.onBackoffFire)
	d.difs = sim.NewTimer(eng, d.onDIFS)
	return d
}

// Backoff exposes the contention window controls (Draw/Fail/Reset).
func (d *DCF) Backoff() *mac.Backoff { return d.backoff }

// AuditState exposes the contention internals for the protocol-invariant
// auditor (internal/audit.ContentionReporter): whether an opportunity is
// being sought, whether the slot countdown is running, and whether the
// DIFS gate is armed to restart it.
func (d *DCF) AuditState() (armed, counting, difsPending bool) {
	return d.armed, d.backoff.Counting(), d.difs.Pending()
}

// Armed reports whether a transmission opportunity is being sought.
func (d *DCF) Armed() bool { return d.armed }

// Arm requests a transmission opportunity. Fire happens after the medium
// has been idle for DIFS plus any active backoff countdown.
func (d *DCF) Arm() {
	if d.armed {
		return
	}
	d.armed = true
	d.ChannelMaybeIdle()
}

// Disarm abandons the pending opportunity.
func (d *DCF) Disarm() {
	d.armed = false
	d.difs.Stop()
	d.backoff.Suspend()
}

// ChannelBusy must be called on any physical or virtual carrier
// transition to busy.
func (d *DCF) ChannelBusy() {
	d.difs.Stop()
	d.backoff.Suspend()
}

// ChannelMaybeIdle must be called whenever the medium may have become
// idle (carrier drop, NAV expiry). It restarts the DIFS gate.
func (d *DCF) ChannelMaybeIdle() {
	if !d.armed || !d.idle() {
		return
	}
	if d.difs.Pending() || d.backoff.Counting() {
		return
	}
	d.difs.Start(phy.DIFS)
}

func (d *DCF) onDIFS() {
	if !d.armed || !d.idle() {
		return
	}
	if d.backoff.Active() {
		d.backoff.Resume()
		return
	}
	d.won()
}

func (d *DCF) onBackoffFire() {
	if !d.armed {
		return
	}
	d.won()
}

func (d *DCF) won() {
	d.armed = false
	d.fire()
}
