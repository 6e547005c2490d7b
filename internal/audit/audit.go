// Package audit is the online protocol-invariant auditor: a race-detector
// for the protocol layer. Attached to a phy.Medium as its Observer (and to
// each MAC through small declaration hooks), it checks every observable
// transition against the contracts the paper specifies — half-duplex
// discipline, busy-tone lifecycle (§3.2, C4/C9/C13), NAV and inter-frame
// spacing for the 802.11-family baselines (§2), deliver-at-most-once and
// ACK-complete reliable-send semantics (§3.3, C16–C19), backoff legality
// (§3.3.1) and end-of-run packet conservation — and records a Violation,
// with the last few medium events as context, whenever one is broken.
//
// The auditor is passive: it never schedules events, transmits, or draws
// from the engine's RNG, so attaching it cannot perturb a run — a run with
// the auditor enabled is bit-identical to the same seed without it. Its
// per-event work is bounded (ring writes and integer compares; violations
// format strings only on the cold path), keeping the steady-state
// allocation gate intact with the auditor attached. All MAC-facing hook
// methods are nil-receiver safe, mirroring trace.Trace, so protocol code
// calls them unconditionally.
//
// DESIGN.md §10 catalogues every invariant with its paper citation and
// the soundness argument for why zero violations is achievable (and
// required) across the full six-protocol fault-injected sweep.
package audit

import (
	"fmt"
	"slices"

	"rmac/internal/frame"
	"rmac/internal/mac"
	"rmac/internal/phy"
	"rmac/internal/seqset"
	"rmac/internal/sim"
	"rmac/internal/trace"
)

// Class partitions violations by invariant family.
type Class uint8

const (
	// HalfDuplex: a second concurrent transmission, or a frame decoded
	// while its receiver was transmitting or crashed.
	HalfDuplex Class = iota
	// ToneLifecycle: double tone transitions, assertions outside a
	// declared protocol window, wrong pulse length, or a tone left
	// asserted at quiesce (including across node crashes).
	ToneLifecycle
	// NAV: a DCF-won transmission started under the node's own active NAV.
	NAV
	// Spacing: a SIFS/DIFS inter-frame gap shorter than the standard
	// requires.
	Spacing
	// ReliableSemantics: a duplicate reliable delivery for one (src, seq),
	// or ReliableDelivered incremented before the full ACK set was in.
	ReliableSemantics
	// BackoffLegality: a drawn backoff stuck Active() && !Counting() with
	// the channel idle and nothing armed to restart it.
	BackoffLegality
	// Conservation: Enqueued ≠ delivered + dropped + still queued at
	// quiesce.
	Conservation
	// NumClasses is the number of violation classes.
	NumClasses
)

func (c Class) String() string {
	switch c {
	case HalfDuplex:
		return "half-duplex"
	case ToneLifecycle:
		return "tone-lifecycle"
	case NAV:
		return "nav"
	case Spacing:
		return "spacing"
	case ReliableSemantics:
		return "reliable-semantics"
	case BackoffLegality:
		return "backoff-legality"
	case Conservation:
		return "conservation"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Violation is one detected invariant breach.
type Violation struct {
	At     sim.Time
	Node   int
	Class  Class
	Detail string
	// Context holds the auditor's event ring (oldest first) as of the
	// violation: the last few medium transitions leading up to it.
	Context []trace.Event
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%v node=%d [%s] %s", v.At, v.Node, v.Class, v.Detail)
}

// ContentionReporter is implemented by MACs whose backoff legality the
// auditor checks at quiesce. wants reports a drawn, unfinished backoff;
// counting that its slot timer is armed; gated that some other event
// (a DIFS expiry, for the DCF protocols) is armed to restart it; idle the
// protocol's own countdown condition right now.
type ContentionReporter interface {
	AuditContention() (wants, counting, gated, idle bool)
}

// NAVReporter is implemented by the 802.11-family MACs; AuditNAVBusy
// reports whether the node's network allocation vector is currently set.
type NAVReporter interface {
	AuditNAVBusy() bool
}

// PendingReporter exposes the unfinished-work counters behind the
// end-of-run conservation identity.
type PendingReporter interface {
	AuditPending() (queued int, inFlight bool)
}

// Config parameterises an Auditor.
type Config struct {
	// ContextEvents is the event-ring capacity attached to each
	// violation. 0 means 64.
	ContextEvents int
	// MaxFrameAirtime bounds the airtime of any data frame in the run; it
	// sizes the legal RBT hold window (tone raised at MRTS reception,
	// held across the WfRData window and one data reception). 0 means
	// 3 ms, ample for 500-byte payloads at 2 Mb/s.
	MaxFrameAirtime sim.Time
	// MaxViolations caps how many violations keep their full context
	// (Count keeps counting past it). 0 means 128.
	MaxViolations int
}

// veryPast initialises last-event clocks so start-of-run gaps never
// trigger spacing checks.
const veryPast = sim.Time(-1 << 60)

// toneExpect is one declared legal tone-assertion window.
type toneExpect struct {
	at    sim.Time
	pulse sim.Time
	used  bool
}

// nodeState is the auditor's per-node view.
type nodeState struct {
	lastSensedEnd sim.Time // end of the last arrival whose energy the node registered
	lastOkRxEnd   sim.Time // end of the last correctly decoded arrival
	lastTxEnd     sim.Time // end (or abort) of the node's own last transmission

	dcfWin bool // next TxStart was declared as a DCF/backoff win

	toneOnAt  [phy.NumTones]sim.Time
	tonePulse [phy.NumTones]sim.Time
	expects   [phy.NumTones][4]toneExpect

	// seen tracks reliable deliveries for the duplicate-delivery invariant,
	// keyed by the transmitter's full address (see addrKey).
	seen seqset.Set
}

// addrKey packs a 6-byte MAC address into a set key, so node and foreign
// addresses share one dedup path.
func addrKey(a frame.Addr) uint64 {
	return uint64(a[0])<<40 | uint64(a[1])<<32 | uint64(a[2])<<24 |
		uint64(a[3])<<16 | uint64(a[4])<<8 | uint64(a[5])
}

// Auditor holds the run-wide audit state. The zero value is not usable;
// use New. A nil *Auditor is a valid no-op for every MAC-facing hook.
type Auditor struct {
	eng    *sim.Engine
	medium *phy.Medium
	cfg    Config

	nodes []nodeState

	macs       []mac.MAC
	contention []ContentionReporter
	navs       []NAVReporter
	pendings   []PendingReporter

	// Context ring of compact, pointer-free records: the per-event hot
	// path is a small copy with no write barrier and no string lookups;
	// the trace.Event form (with its What string) is materialised only
	// when a violation snapshots the ring.
	ring     []ringEvt
	ringNext int
	ringFull bool

	violations []Violation
	// Count is the total number of violations detected, including any
	// past the context cap.
	Count uint64
	// ByClass partitions Count by invariant class; the telemetry layer
	// exports it as the per-class violation counter family.
	ByClass [NumClasses]uint64
}

// New creates an auditor for the medium's radios and installs it as the
// medium's Observer. Nodes must be registered (RegisterMAC / WrapUpper)
// after their radios exist; radio IDs must be dense in [0, n).
func New(eng *sim.Engine, medium *phy.Medium, cfg Config) *Auditor {
	if cfg.ContextEvents <= 0 {
		cfg.ContextEvents = 64
	}
	if cfg.MaxFrameAirtime <= 0 {
		cfg.MaxFrameAirtime = 3 * sim.Millisecond
	}
	if cfg.MaxViolations <= 0 {
		cfg.MaxViolations = 128
	}
	a := &Auditor{
		eng:    eng,
		medium: medium,
		cfg:    cfg,
		ring:   make([]ringEvt, cfg.ContextEvents),
	}
	medium.Obs = a
	return a
}

// Reserve sizes the per-node tables for node ids in [0, n) at once. A
// stack that knows its highest id calls it before registering its nodes,
// which spares the tables their one-node-at-a-time growth; a larger id
// still grows them.
func (a *Auditor) Reserve(n int) {
	if a == nil || n <= len(a.nodes) {
		return
	}
	k := n - len(a.nodes)
	a.nodes = slices.Grow(a.nodes, k)
	a.macs = slices.Grow(a.macs, k)
	a.contention = slices.Grow(a.contention, k)
	a.navs = slices.Grow(a.navs, k)
	a.pendings = slices.Grow(a.pendings, k)
	a.grow(n)
}

// grow ensures per-node state exists for node ids in [0, n).
func (a *Auditor) grow(n int) {
	for len(a.nodes) < n {
		ns := nodeState{lastSensedEnd: veryPast, lastOkRxEnd: veryPast, lastTxEnd: veryPast}
		// Unused expectation slots must not alias a legal t=0 assertion.
		for t := range ns.expects {
			for i := range ns.expects[t] {
				ns.expects[t][i].at = veryPast
			}
		}
		a.nodes = append(a.nodes, ns)
		a.macs = append(a.macs, nil)
		a.contention = append(a.contention, nil)
		a.navs = append(a.navs, nil)
		a.pendings = append(a.pendings, nil)
	}
}

func (a *Auditor) node(id int) *nodeState {
	a.grow(id + 1)
	return &a.nodes[id]
}

// RegisterMAC attaches a node's MAC so the quiesce checks can read its
// stats and, through the optional reporter interfaces it implements, its
// contention, NAV and queue state.
func (a *Auditor) RegisterMAC(id int, m mac.MAC) {
	if a == nil {
		return
	}
	a.grow(id + 1)
	a.macs[id] = m
	if cr, ok := m.(ContentionReporter); ok {
		a.contention[id] = cr
	}
	if nr, ok := m.(NAVReporter); ok {
		a.navs[id] = nr
	}
	if pr, ok := m.(PendingReporter); ok {
		a.pendings[id] = pr
	}
}

// ringEvt is one compact context-ring record. The subject octet holds a
// frame.Kind or a phy.Tone (disambiguated by isTone); subjNone means the
// event has no subject (node up/down).
type ringEvt struct {
	at     sim.Time
	node   int32
	kind   trace.Kind
	isTone bool
	subj   uint8
}

const subjNone = 0xFF

// record appends one compact event to the context ring.
func (a *Auditor) record(ev ringEvt) {
	a.ring[a.ringNext] = ev
	a.ringNext++
	if a.ringNext == len(a.ring) {
		a.ringNext = 0
		a.ringFull = true
	}
}

// ringEvents materialises the ring as chronological trace.Events,
// reconstructing each What string from the subject octet.
func (a *Auditor) ringEvents() []trace.Event {
	var out []trace.Event
	expand := func(evs []ringEvt) {
		for _, e := range evs {
			what := ""
			switch {
			case e.isTone:
				what = phy.Tone(e.subj).String()
			case e.subj != subjNone:
				what = frame.Kind(e.subj).String()
			}
			out = append(out, trace.Event{At: e.at, Node: int(e.node), Kind: e.kind, What: what})
		}
	}
	if a.ringFull {
		out = make([]trace.Event, 0, len(a.ring))
		expand(a.ring[a.ringNext:])
	}
	expand(a.ring[:a.ringNext])
	return out
}

// violate records one violation with the current event ring as context.
func (a *Auditor) violate(node int, class Class, format string, args ...any) {
	a.Count++
	a.ByClass[class]++
	if len(a.violations) >= a.cfg.MaxViolations {
		return
	}
	a.violations = append(a.violations, Violation{
		At:      a.eng.Now(),
		Node:    node,
		Class:   class,
		Detail:  fmt.Sprintf(format, args...),
		Context: a.ringEvents(),
	})
}

// Violations returns the recorded violations in detection order.
func (a *Auditor) Violations() []Violation {
	if a == nil {
		return nil
	}
	return a.violations
}

// ---- MAC-facing declaration hooks (all nil-receiver safe) ----

// Initiation declares that the node's imminent next transmission is a
// DCF/backoff win: the auditor checks the DIFS gap and NAV idleness on
// that TxStart. The 802.11-family MACs call it immediately before every
// contention-won transmission; chained exchange steps (a BMMM follow-up
// RTS, SIFS-spaced data) are deliberately not declared.
func (a *Auditor) Initiation(node int) {
	if a == nil {
		return
	}
	a.node(node).dcfWin = true
}

// ExpectTone declares a legal tone assertion: tone t may be raised by
// node at exactly time at, for exactly pulse (0 = unbounded, limited by
// the run-wide RBT hold bound). RMAC declares RBT at MRTS acceptance and
// each scheduled ABT slot; MX declares its NAK windows. An undeclared
// assertion is a ToneLifecycle violation.
func (a *Auditor) ExpectTone(node int, t phy.Tone, at, pulse sim.Time) {
	if a == nil {
		return
	}
	ns := a.node(node)
	exps := &ns.expects[t]
	// Reuse the oldest slot; four outstanding declarations cover RMAC's
	// back-to-back receiver roles with room to spare.
	oldest := 0
	for i := range exps {
		if exps[i].used || exps[i].at == veryPast {
			oldest = i
			break
		}
		if exps[i].at < exps[oldest].at {
			oldest = i
		}
	}
	exps[oldest] = toneExpect{at: at, pulse: pulse}
}

// ReliableOutcome reports a completed reliable send: delivered receivers
// out of total, and whether the packet was dropped at the retry limit. A
// success with an incomplete ACK set is a ReliableSemantics violation.
func (a *Auditor) ReliableOutcome(node int, delivered, total int, dropped bool) {
	if a == nil {
		return
	}
	if !dropped && delivered != total {
		a.violate(node, ReliableSemantics,
			"reliable send completed successfully with %d/%d receivers acknowledged", delivered, total)
	}
}

// WrapUpper interposes the at-most-once delivery check between a MAC and
// its upper layer: every reliable OnDeliver is keyed by (src, seq) and a
// repeat is a ReliableSemantics violation. Unreliable deliveries
// (broadcast beacons, 802.11 one-shot multicast) pass through unchecked.
func (a *Auditor) WrapUpper(node int, u mac.UpperLayer) mac.UpperLayer {
	if a == nil {
		return u
	}
	a.grow(node + 1)
	return &upperShim{a: a, node: node, inner: u}
}

type upperShim struct {
	a     *Auditor
	node  int
	inner mac.UpperLayer
}

func (s *upperShim) OnDeliver(payload []byte, info mac.RxInfo) {
	if info.Reliable {
		ns := s.a.node(s.node)
		if !ns.seen.Add(addrKey(info.From), info.Seq) {
			s.a.violate(s.node, ReliableSemantics,
				"duplicate reliable delivery of seq %d from %v", info.Seq, info.From)
		}
	}
	s.inner.OnDeliver(payload, info)
}

func (s *upperShim) OnSendComplete(res mac.TxResult) { s.inner.OnSendComplete(res) }

// ---- phy.Observer implementation ----

// frameDuration extracts the NAV Duration field (µs) of 802.11-family
// frames; RMAC kinds return -1 (no NAV).
func frameDuration(f frame.Frame) int {
	switch t := f.(type) {
	case *frame.RTS:
		return int(t.Duration)
	case *frame.CTS:
		return int(t.Duration)
	case *frame.ACK:
		return int(t.Duration)
	case *frame.RAK:
		return int(t.Duration)
	case *frame.Data:
		return int(t.Duration)
	}
	return -1
}

// ObsTxStart implements phy.Observer.
func (a *Auditor) ObsTxStart(r *phy.Radio, f frame.Frame) {
	now := a.eng.Now()
	id := r.ID()
	a.record(ringEvt{at: now, node: int32(id), kind: trace.TxStart, subj: uint8(f.Kind())})
	ns := a.node(id)
	win := ns.dcfWin
	ns.dcfWin = false // any transmission consumes the declaration

	if r.Transmitting() {
		a.violate(id, HalfDuplex, "StartTx(%v) while already transmitting", f.Kind())
	}

	kind := f.Kind()
	switch kind {
	case frame.KindMRTS, frame.KindRData, frame.KindUData:
		// RMAC frames: spacing is governed by §3.3 tone windows and the
		// §3.3.1 backoff, not SIFS/DIFS; nothing more to check here.
		return
	}

	busyEnd := ns.lastSensedEnd
	if ns.lastTxEnd > busyEnd {
		busyEnd = ns.lastTxEnd
	}
	if win {
		// DCF-won initiation: the medium must have been idle for a full
		// DIFS (§2; NS-2 802.11 timing contract) and the node's own NAV
		// must not be set.
		if nav := a.navOf(id); nav != nil && nav.AuditNAVBusy() {
			a.violate(id, NAV, "DCF win transmits %v under an active NAV", kind)
		}
		if gap := now - busyEnd; gap < phy.DIFS {
			a.violate(id, Spacing, "DCF win transmits %v only %v after channel activity (want ≥ DIFS=%v)",
				kind, gap, phy.DIFS)
		}
		return
	}

	switch kind {
	case frame.KindCTS, frame.KindACK:
		// Always rx-elicited at +SIFS: no correct decode can land inside
		// the eliciting signal's SIFS shadow (it would have overlapped),
		// so both gaps are sound to enforce.
		if gap := now - ns.lastOkRxEnd; gap < phy.SIFS {
			a.violate(id, Spacing, "%v response only %v after a decoded frame (want ≥ SIFS=%v)",
				kind, gap, phy.SIFS)
		}
		fallthrough
	case frame.KindRAK, frame.KindData, frame.KindRTS:
		// Timer-scheduled steps (a BMMM RAK after an ACK timeout, a
		// follow-up RTS, SIFS-chained data) may legally follow an
		// unrelated reception closely, but never the node's own previous
		// transmission.
		if gap := now - ns.lastTxEnd; gap < phy.SIFS {
			a.violate(id, Spacing, "%v starts only %v after own transmission (want ≥ SIFS=%v)",
				kind, gap, phy.SIFS)
		}
		if kind == frame.KindData && frameDuration(f) == 0 && a.navOf(id) != nil {
			// Zero-Duration data is a one-shot broadcast; every such
			// transmission in the 802.11-family MACs is DCF-won and must
			// have been declared via Initiation.
			a.violate(id, Spacing, "broadcast data transmitted outside a declared DCF win")
		}
	}
}

func (a *Auditor) navOf(id int) NAVReporter {
	if id < len(a.navs) {
		return a.navs[id]
	}
	return nil
}

// ObsTxEnd implements phy.Observer.
func (a *Auditor) ObsTxEnd(r *phy.Radio, f frame.Frame) {
	now := a.eng.Now()
	id := r.ID()
	a.record(ringEvt{at: now, node: int32(id), kind: trace.TxEnd, subj: uint8(f.Kind())})
	a.node(id).lastTxEnd = now
}

// ObsTxAbort implements phy.Observer.
func (a *Auditor) ObsTxAbort(r *phy.Radio, f frame.Frame) {
	now := a.eng.Now()
	id := r.ID()
	a.record(ringEvt{at: now, node: int32(id), kind: trace.TxAbort, subj: uint8(f.Kind())})
	a.node(id).lastTxEnd = now
}

// ObsRxEnd implements phy.Observer.
func (a *Auditor) ObsRxEnd(r, src *phy.Radio, f frame.Frame, ok, sensed bool) {
	now := a.eng.Now()
	id := r.ID()
	k := trace.RxCorrupt
	if ok {
		k = trace.RxOK
	}
	a.record(ringEvt{at: now, node: int32(id), kind: k, subj: uint8(f.Kind())})
	ns := a.node(id)
	if sensed {
		ns.lastSensedEnd = now
	}
	if ok {
		ns.lastOkRxEnd = now
		if r.Transmitting() {
			a.violate(id, HalfDuplex, "decoded %v from node %d while transmitting", f.Kind(), src.ID())
		}
		if r.Down() {
			a.violate(id, HalfDuplex, "decoded %v from node %d while crashed", f.Kind(), src.ID())
		}
	}
}

// ObsToneSet implements phy.Observer.
func (a *Auditor) ObsToneSet(r *phy.Radio, t phy.Tone, on bool) {
	now := a.eng.Now()
	id := r.ID()
	k := trace.ToneOff
	if on {
		k = trace.ToneOn
	}
	a.record(ringEvt{at: now, node: int32(id), kind: k, isTone: true, subj: uint8(t)})
	ns := a.node(id)
	if r.OwnTone(t) == on {
		a.violate(id, ToneLifecycle, "tone %v set %v twice", t, on)
		return
	}
	if on {
		exps := &ns.expects[t]
		matched := false
		for i := range exps {
			if !exps[i].used && exps[i].at == now {
				exps[i].used = true
				ns.tonePulse[t] = exps[i].pulse
				matched = true
				break
			}
		}
		if !matched {
			a.violate(id, ToneLifecycle, "tone %v asserted outside any declared window", t)
			ns.tonePulse[t] = 0
		}
		ns.toneOnAt[t] = now
		return
	}
	held := now - ns.toneOnAt[t]
	if pulse := ns.tonePulse[t]; pulse > 0 {
		if held != pulse {
			a.violate(id, ToneLifecycle, "tone %v pulse lasted %v, declared %v", t, held, pulse)
		}
	} else if held > a.maxHold() {
		a.violate(id, ToneLifecycle, "tone %v held for %v (bound %v)", t, held, a.maxHold())
	}
}

// maxHold bounds an undeclared-pulse (RBT) assertion: the WfRData window
// plus one maximal data reception, with guard slack.
func (a *Auditor) maxHold() sim.Time {
	return phy.ToneWaitTimeout + a.cfg.MaxFrameAirtime + 100*sim.Microsecond
}

// ObsDown implements phy.Observer.
func (a *Auditor) ObsDown(r *phy.Radio, down bool) {
	now := a.eng.Now()
	id := r.ID()
	k := trace.NodeUp
	if down {
		k = trace.NodeDown
	}
	a.record(ringEvt{at: now, node: int32(id), kind: k, subj: subjNone})
}

// ---- quiesce checks ----

// Quiesce runs the end-of-run invariants. The experiment harness calls it
// once, after the run, including runs a watchdog aborted mid-horizon. It
// is sound at any event boundary: the conservation identity holds between
// events, and both the stuck-backoff and leaked-tone predicates only fire
// on states no pending event can advance.
func (a *Auditor) Quiesce() {
	if a == nil {
		return
	}
	now := a.eng.Now()
	for _, r := range a.medium.Radios() {
		id := r.ID()
		ns := a.node(id)
		for t := phy.Tone(0); t < phy.NumTones; t++ {
			if !r.OwnTone(t) {
				continue
			}
			bound := ns.tonePulse[t]
			if bound == 0 {
				bound = a.maxHold()
			}
			if held := now - ns.toneOnAt[t]; held > bound {
				a.violate(id, ToneLifecycle, "tone %v still asserted at quiesce, held %v (bound %v)",
					t, held, bound)
			}
		}
		if cr := a.contention[id]; cr != nil {
			if wants, counting, gated, idle := cr.AuditContention(); wants && idle && !counting && !gated {
				a.violate(id, BackoffLegality,
					"backoff drawn and channel idle but no slot timer or gate armed: the draw is stuck")
			}
		}
		if pr := a.pendings[id]; pr != nil && a.macs[id] != nil {
			s := a.macs[id].Stats()
			queued, inFlight := pr.AuditPending()
			fl := uint64(0)
			if inFlight {
				fl = 1
			}
			done := s.ReliableDelivered + s.UnreliableSent + s.Drops
			if s.Enqueued != done+uint64(queued)+fl {
				a.violate(id, Conservation,
					"enqueued %d ≠ delivered %d + unreliable %d + dropped %d + queued %d + in-flight %d",
					s.Enqueued, s.ReliableDelivered, s.UnreliableSent, s.Drops, queued, fl)
			}
		}
	}
}
