package phy

import (
	"fmt"
	"math"

	"rmac/internal/frame"
	"rmac/internal/geom"
	"rmac/internal/mobility"
	"rmac/internal/sim"
	"rmac/internal/trace"
)

// Medium is the shared wireless channel: it owns every Radio in a
// simulation, computes propagation delays from node positions, fans
// transmissions and tone transitions out to in-range radios, and tracks
// overlap so each receiver knows whether a frame arrived collision-free.
//
// The fan-out path is allocation-free in steady state: transmissions,
// per-receiver rx paths and tone sessions are recycled through per-medium
// free lists, and every callback is scheduled as a tagged event on the
// pooled object itself (see sim.Caller) rather than as a heap closure.
type Medium struct {
	eng    *sim.Engine
	cfg    Config
	radios []*Radio
	imp    Impairment

	// Stats counts channel-level totals across the run.
	Stats MediumStats

	// Tracer, when non-nil, records frame and tone events (see package
	// trace). Nil costs nothing: every call site guards both the Add call
	// and its Detail formatting behind a nil check.
	Tracer *trace.Trace

	// Obs, when non-nil, receives pre-transition callbacks for every
	// observable medium event (see Observer). Nil costs one branch per
	// hook site.
	Obs Observer

	grid *spatialGrid

	// legs holds every moving radio's current trajectory leg, dense by
	// registration (Radio.slot), and legMob the model each leg comes
	// from. A leg answers positions until it ends; only then is its model
	// asked again (see PositionOf). Static radios have no slot. With any
	// slot the grid goes stale over time.
	legs   []mobility.Leg
	legMob []mobility.Model

	// Object pools. A released object keeps its slice capacity, so a
	// steady-state broadcast reuses the same backing arrays every frame.
	txFree   []*transmission
	rxFree   []*rxPath
	sessFree []*toneSession

	// frames is the arena every layer above draws its frames from. StartTx
	// transfers frame ownership to the medium, which releases the frame
	// once the sender's OnTxDone and all receptions have completed (see
	// frame.Release and DESIGN.md §9).
	frames *frame.Pool

	// cross, when non-nil, is this medium's half of a sharded run's
	// cross-shard fabric (see cross.go): border-radio transmissions,
	// aborts, and tone transitions are mirrored into foreign shards
	// through it. Nil — the unsharded case — costs one branch per hook.
	cross *shardConduit
}

// MediumStats aggregates channel-level counters.
type MediumStats struct {
	Transmissions  uint64 // StartTx calls
	Aborts         uint64 // AbortTx calls
	FramesDecoded  uint64 // deliveries with ok=true
	FramesCorrupt  uint64 // deliveries with ok=false (collision/abort/BER)
	ToneActivation uint64 // SetTone(on) calls
	Crashes        uint64 // SetDown(true) transitions (fault injection)
}

// NewMedium creates an empty medium on the given engine.
func NewMedium(eng *sim.Engine, cfg Config) *Medium {
	if cfg.CommRange <= 0 || cfg.BitRate <= 0 || cfg.PropSpeed <= 0 {
		panic("phy: invalid Config")
	}
	return &Medium{eng: eng, cfg: cfg, frames: frame.NewPool()}
}

// Frames returns the medium's frame pool. All MAC and application layers
// of one simulation share it; like the medium itself it is confined to the
// engine's goroutine.
func (m *Medium) Frames() *frame.Pool { return m.frames }

// Impairment is an extra channel-error model consulted for every frame
// that is otherwise decodable (collision-free, in range, not aborted, not
// at a crashed radio, and past the independent-BER roll). Implemented by
// internal/fault's Gilbert–Elliott bursty channel; nil disables it at
// zero cost.
//
// FrameError must draw all of its randomness from the owning engine's
// Rand() so that the determinism contract of the delivery path holds (see
// the package comment), and must not allocate: it runs on the per-frame
// hot path.
type Impairment interface {
	// FrameError reports whether the frame of the given wire size from tx
	// is corrupted on its path to rx. Called at reception end.
	FrameError(rx, tx *Radio, wireBytes int) bool
}

// SetImpairment installs (or, with nil, removes) the medium's extra
// channel-error model. Install it before traffic starts: swapping models
// mid-run changes the RNG consumption sequence from that point on.
func (m *Medium) SetImpairment(imp Impairment) { m.imp = imp }

// Config returns the medium's radio configuration.
func (m *Medium) Config() Config { return m.cfg }

// Engine returns the simulation engine the medium is bound to.
func (m *Medium) Engine() *sim.Engine { return m.eng }

// AddRadio creates and registers the radio for node id, moving according to
// mob. The returned radio must be given a Handler before traffic starts.
// A stationary radio caches its position; any other gets a slot in the
// leg table (see PositionOf). The next in-range query sees the new radio.
func (m *Medium) AddRadio(id int, mob mobility.Model) *Radio {
	r := &Radio{m: m, eng: m.eng, id: id}
	if s, ok := mob.(mobility.Stationary); ok {
		r.static, r.pos = true, s.P
	} else {
		// The zero leg covers no instant: the first query fetches one.
		r.slot = int32(len(m.legs))
		m.legs = append(m.legs, mobility.Leg{})
		m.legMob = append(m.legMob, mob)
	}
	m.radios = append(m.radios, r)
	m.InvalidateGrid()
	return r
}

// Radios returns all registered radios.
func (m *Medium) Radios() []*Radio { return m.radios }

// PositionOf returns node r's current position. A moving radio's comes
// from its current leg in the leg table: one fan-out asks for every
// candidate's position at the same instant, and a leg lasts seconds, so
// the model is asked only when the leg has ended (mobility.LegOf).
func (m *Medium) PositionOf(r *Radio) geom.Point {
	if r.static {
		return r.pos
	}
	return m.legPos(r.slot, m.eng.Now())
}

// legPos returns the position at now, which is the engine clock, of the
// moving radio in leg-table slot i, fetching the slot's next leg when now
// has left the current one.
func (m *Medium) legPos(i int32, now sim.Time) geom.Point {
	l := &m.legs[i]
	if !l.Covers(now) {
		*l = mobility.LegOf(m.legMob[i], now)
	}
	return l.At(now)
}

// positionAt returns node r's position at time t, which may trail the
// engine clock by up to the mobility retention horizon. The cross-shard
// conduit uses it to replay a foreign transmission's start-time geometry
// at holder-fire time (the fire runs minProp after the start). It answers
// from the radio's current leg when that covers t, and otherwise asks the
// model without refilling the slot: a backward query must not replace
// the leg the current instant needs.
func (m *Medium) positionAt(r *Radio, t sim.Time) geom.Point {
	if r.static {
		return r.pos
	}
	if l := &m.legs[r.slot]; l.Covers(t) {
		return l.At(t)
	}
	return m.legMob[r.slot].PositionAt(t)
}

// propDelay converts a distance to a propagation delay; a floor of 1 ns
// keeps event ordering strict for co-located nodes.
func (m *Medium) propDelay(dist float64) sim.Time {
	d := sim.Time(dist / m.cfg.PropSpeed * float64(sim.Second))
	if d < 1 {
		d = 1
	}
	return d
}

// Tags for the pooled objects' sim.Caller dispatch.
const (
	tagRxStart int32 = iota
	tagRxEnd
)

// transmission is one frame in flight on the data channel.
type transmission struct {
	src      *Radio
	f        frame.Frame
	start    sim.Time
	end      sim.Time // updated when cut (see Medium.cut)
	aborted  bool
	finished bool // txDone ran or AbortTx was called
	crossed  bool // mirrored into at least one foreign shard (sharded runs)
	pending  int  // rx paths whose rxEnd has not run yet
	doneEv   sim.Event
	dests    []*rxPath
}

// Call implements sim.Caller: natural completion of the transmission.
func (tx *transmission) Call(int32) { tx.src.m.txDone(tx) }

// rxPath tracks the signal from one transmission at one receiver.
type rxPath struct {
	tx        *transmission
	r         *Radio
	prop      sim.Time
	inComm    bool // within decode range at TX start
	corrupted bool // overlap, receiver-transmitting, or abort
	started   bool // rxStart already processed
	endEv     sim.Event
}

// Call implements sim.Caller: arrival of the signal's first or last bit.
//
// Last-bit arrivals batch: propagation delays are quantized to whole
// nanoseconds, so in a dense neighborhood several receivers' rxEnd events
// share one tick. After running one, the drain loop consumes every
// immediately-following rxEnd at the same instant straight off the
// engine's due list (PeekCall/TakeNext) without re-entering the dispatch
// loop. PeekCall only ever yields the provably-next event, so dispatch
// order — and with it every RNG draw in channelError — is bit-identical
// to the unbatched path.
func (p *rxPath) Call(tag int32) {
	m := p.r.m // rxEnd recycles p; grab the medium first
	if tag == tagRxStart {
		m.rxStart(p)
	} else {
		m.rxEnd(p)
	}
	now := m.eng.Now()
	for {
		c, t, ok := m.eng.PeekCall(now)
		if !ok || t != tag {
			return
		}
		q, isRx := c.(*rxPath)
		if !isRx {
			return // a tone or tx-done tag can collide numerically
		}
		m.eng.TakeNext()
		if t == tagRxStart {
			m.rxStart(q)
		} else {
			m.rxEnd(q)
		}
	}
}

// newTx takes a transmission from the pool (or allocates the pool's first).
func (m *Medium) newTx() *transmission {
	if n := len(m.txFree); n > 0 {
		tx := m.txFree[n-1]
		m.txFree = m.txFree[:n-1]
		return tx
	}
	return &transmission{}
}

// freeTx recycles a spent transmission and releases the frame it carried:
// at this point the sender's OnTxDone and every receiver's OnFrameReceived
// have returned, so no live reference remains (pool-less frames, e.g.
// hand-built ones in tests, are untouched by Release).
func (m *Medium) freeTx(tx *transmission) {
	frame.Release(tx.f)
	*tx = transmission{dests: tx.dests[:0]}
	m.txFree = append(m.txFree, tx)
}

func (m *Medium) newRxPath() *rxPath {
	if n := len(m.rxFree); n > 0 {
		p := m.rxFree[n-1]
		m.rxFree = m.rxFree[:n-1]
		return p
	}
	return &rxPath{}
}

func (m *Medium) freeRx(p *rxPath) {
	*p = rxPath{}
	m.rxFree = append(m.rxFree, p)
}

func (m *Medium) newSess() *toneSession {
	if n := len(m.sessFree); n > 0 {
		s := m.sessFree[n-1]
		m.sessFree = m.sessFree[:n-1]
		return s
	}
	return &toneSession{}
}

func (m *Medium) freeSess(s *toneSession) {
	s.dests = s.dests[:0]
	s.props = s.props[:0]
	m.sessFree = append(m.sessFree, s)
}

// StartTx begins transmitting f from r. It returns the scheduled airtime.
// The radio's handler receives OnTxDone when the transmission completes
// naturally; an aborted transmission (AbortTx) does not call OnTxDone.
func (m *Medium) StartTx(r *Radio, f frame.Frame) sim.Time {
	if m.Obs != nil {
		// Before the double-TX panic below, so the auditor records the
		// violation even when the medium refuses the transmission.
		m.Obs.ObsTxStart(r, f)
	}
	if r.curTx != nil {
		panic(fmt.Sprintf("phy: node %d StartTx while already transmitting", r.id))
	}
	now := m.eng.Now()
	dur := m.cfg.TxDuration(f.WireSize())
	tx := m.newTx()
	tx.src, tx.f, tx.start, tx.end = r, f, now, now+dur
	r.curTx = tx
	m.Stats.Transmissions++

	// A node cannot decode while transmitting: poison any in-progress
	// receptions at the transmitter.
	for _, p := range r.active {
		p.corrupted = true
	}

	// A crashed radio transmits into its dead front-end: the MAC sees the
	// usual airtime and OnTxDone (so its state machine keeps advancing into
	// its timeout/retry paths), but no energy reaches any receiver.
	if !r.down {
		srcPos := m.PositionOf(r)
		m.forEachInRange(r, srcPos, m.cfg.interferenceRange(), func(o *Radio, d2 float64) {
			m.addRx(tx, o, d2, 0)
		})
		if len(r.cats) > 0 {
			tx.crossed = true
			m.cross.mirror(r, crossHdr{kind: crossTx, t0: now, t1: tx.end, srcPos: srcPos}, f)
		}
	}
	tx.pending = len(tx.dests)
	tx.doneEv = m.eng.ScheduleCall(tx.end, tx, 0)
	if m.Tracer != nil {
		m.Tracer.Add(trace.Event{At: now, Node: r.id, Kind: trace.TxStart, What: f.Kind().String(),
			Detail: fmt.Sprintf("%dB %v", f.WireSize(), dur)})
	}
	return dur
}

// AbortTx aborts r's in-flight transmission immediately (RMAC step 3 /
// Unreliable Send step 2: stop when an RBT is detected). The truncated
// signal still occupies the channel until now+prop at each receiver and is
// never decodable there. No OnTxDone callback is made; the caller knows it
// aborted.
//
// Aborting a transmission that a crash (SetDown) already truncated is
// legal — a crashed radio's baseband still senses tones, so its MAC can
// reach an abort transition during the dead transmission's airtime. In
// that case only the sender-side bookkeeping runs: the signal was already
// cut at every receiver at crash time, and tx.dests may by now reference
// rx paths that completed and returned to the pool (possibly reused by a
// later transmission), so they must not be touched again.
func (m *Medium) AbortTx(r *Radio) {
	tx := r.curTx
	if tx == nil {
		panic(fmt.Sprintf("phy: node %d AbortTx with no transmission", r.id))
	}
	if m.Obs != nil {
		m.Obs.ObsTxAbort(r, tx.f)
	}
	tx.finished = true
	tx.doneEv.Cancel()
	m.Stats.Aborts++
	m.cutTx(r, tx)
	r.curTx = nil
	if m.Tracer != nil {
		m.Tracer.Add(trace.Event{At: m.eng.Now(), Node: r.id, Kind: trace.TxAbort, What: tx.f.Kind().String()})
	}
	if tx.pending == 0 {
		m.freeTx(tx)
	}
}

func (m *Medium) txDone(tx *transmission) {
	if m.Obs != nil {
		m.Obs.ObsTxEnd(tx.src, tx.f)
	}
	tx.src.curTx = nil
	tx.finished = true
	h := tx.src.handler
	f := tx.f
	// The handler runs before the transmission (and its frame) is
	// recycled: OnTxDone may read the frame, but must not keep it.
	last := tx.pending == 0
	if h != nil {
		frame.AssertLive(f)
		h.OnTxDone(f)
	}
	if last {
		m.freeTx(tx)
	}
}

func (m *Medium) rxStart(p *rxPath) {
	r := p.r
	p.started = true
	// Overlap: if any other signal is active at this receiver, every
	// involved signal is corrupted.
	if len(r.active) > 0 {
		p.corrupted = true
		for _, q := range r.active {
			q.corrupted = true
		}
	}
	// A transmitting node cannot decode; neither can a crashed one.
	if r.curTx != nil || r.down {
		p.corrupted = true
	}
	r.active = append(r.active, p)
	if len(r.active) == 1 && r.handler != nil {
		r.handler.OnCarrierChange(true)
	}
}

// channelError rolls channel noise for an otherwise-decodable frame
// (control and data frames alike): first the independent per-bit BER,
// then the pluggable Impairment model. Both draw from the engine's
// deterministic RNG, and draws happen only here — in rxEnd event order —
// which is what keeps same-seed runs bit-identical; see the package
// comment for the full determinism contract.
func (m *Medium) channelError(r *Radio, tx *transmission) bool {
	if m.cfg.BER > 0 &&
		m.eng.Rand().Float64() < m.cfg.FrameErrorProb(tx.f.WireSize()) {
		return true
	}
	if m.imp != nil && m.imp.FrameError(r, tx.src, tx.f.WireSize()) {
		return true
	}
	return false
}

func (m *Medium) rxEnd(p *rxPath) {
	r := p.r
	if p.started {
		for i, q := range r.active {
			if q == p {
				r.active = append(r.active[:i], r.active[i+1:]...)
				break
			}
		}
	}
	tx := p.tx
	ok := p.started && p.inComm && !p.corrupted && !tx.aborted
	if ok {
		ok = !m.channelError(r, tx)
	}
	if ok {
		m.Stats.FramesDecoded++
	} else {
		m.Stats.FramesCorrupt++
	}
	if m.Tracer != nil {
		k := trace.RxOK
		if !ok {
			k = trace.RxCorrupt
		}
		m.Tracer.Add(trace.Event{At: m.eng.Now(), Node: r.id, Kind: k, What: tx.f.Kind().String(),
			Detail: "from node " + fmt.Sprint(tx.src.id)})
	}
	if m.Obs != nil {
		m.Obs.ObsRxEnd(r, tx.src, tx.f, ok, p.started)
	}
	started := p.started
	rxStart := tx.start + p.prop
	f := tx.f
	// The path is recycled before the handler runs (so a handler that
	// transmits immediately reuses the warm object), but the transmission
	// — which owns the frame — is recycled only after the handler returns:
	// the receiver may read the frame during OnFrameReceived and must
	// copy out anything it wants to keep.
	m.freeRx(p)
	tx.pending--
	last := tx.finished && tx.pending == 0
	if r.handler != nil {
		frame.AssertLive(f)
		r.handler.OnFrameReceived(f, ok, rxStart)
	}
	if last {
		m.freeTx(tx)
	}
	if len(r.active) == 0 && started && r.handler != nil {
		r.handler.OnCarrierChange(false)
	}
}

// SetTone turns node r's tone t on or off. Tone transitions propagate with
// the same per-neighbor delay as data; the emitting node does not sense its
// own tone. Turning a tone on twice (or off while off) panics — protocol
// state machines must track their own tone state.
func (m *Medium) SetTone(r *Radio, t Tone, on bool) {
	if m.Obs != nil {
		// Before the double-transition panic, mirroring StartTx.
		m.Obs.ObsToneSet(r, t, on)
	}
	if r.ownTone[t] == on {
		panic(fmt.Sprintf("phy: node %d tone %v already %v", r.id, t, on))
	}
	r.ownTone[t] = on
	now := m.eng.Now()
	if m.Tracer != nil {
		k := trace.ToneOn
		if !on {
			k = trace.ToneOff
		}
		m.Tracer.Add(trace.Event{At: now, Node: r.id, Kind: k, What: t.String()})
	}
	if !on {
		m.stopTone(r, t)
		return
	}
	m.Stats.ToneActivation++
	if r.down {
		// A crashed radio raises no tone energy: ownTone tracks the MAC's
		// intent, but no session forms and nothing propagates. The
		// matching off-transition is a no-op (nil session).
		return
	}
	srcPos := m.PositionOf(r)
	sess := m.newSess()
	r.toneSess[t] = sess
	m.forEachInRange(r, srcPos, m.cfg.interferenceRange(), func(o *Radio, d2 float64) {
		m.toneTo(sess, t, o, d2, now, 0)
	})
	if len(r.cats) > 0 {
		r.crossTone[t] = true
		m.cross.mirror(r, crossHdr{kind: crossToneOn, tone: uint8(t), t0: now, srcPos: srcPos}, nil)
	}
}

// SetDown crashes (down=true) or recovers (down=false) node r's radio —
// the PHY half of fault-injected node churn. A crashed radio neither
// transmits nor receives:
//
//   - Its in-flight transmission, if any, truncates immediately at every
//     receiver (never decodable there), exactly like AbortTx — but unlike
//     AbortTx the MAC still gets its OnTxDone at the original end time,
//     so the sender state machine runs into its normal timeout/retry
//     paths instead of wedging in a TX state.
//   - Every signal currently arriving at r is poisoned, and new arrivals
//     while down are undecodable; foreign MACs see the missing feedback
//     and exercise their retransmission and drop paths.
//   - Tones r is emitting drop at every listener (the sessions end), and
//     no tone energy is emitted while down. ownTone keeps tracking the
//     MAC's intent so the protocol's own off-transition stays legal.
//
// Sensing (carrier and tone levels) deliberately keeps operating while
// down — the model is a dead RF power stage with a live baseband — which
// preserves the medium's +1/-1 accounting across crashes. Recovery is
// instantaneous for carrier and decoding: the next StartTx radiates and
// new arrivals decode normally. Tones are NOT re-raised: a tone dropped
// at crash time stays down at every listener until the MAC's next
// off→on transition for it, even though ownTone still records the MAC's
// intent — the dead power stage lost the tone, and the recovered
// hardware does not replay MAC state it never saw. SetDown is idempotent
// in either direction.
func (m *Medium) SetDown(r *Radio, down bool) {
	if r.down == down {
		return
	}
	if m.Obs != nil {
		m.Obs.ObsDown(r, down)
	}
	r.down = down
	if m.Tracer != nil {
		k := trace.NodeDown
		if !down {
			k = trace.NodeUp
		}
		m.Tracer.Add(trace.Event{At: m.eng.Now(), Node: r.id, Kind: k})
	}
	if !down {
		return
	}
	m.Stats.Crashes++
	// Truncate the in-flight transmission at every receiver.
	if tx := r.curTx; tx != nil {
		m.cutTx(r, tx)
	}
	// Poison signals mid-reception at the crashed node.
	for _, p := range r.active {
		p.corrupted = true
	}
	// Drop emitted tones at every listener.
	for t := Tone(0); t < NumTones; t++ {
		m.stopTone(r, t)
	}
}

// The physics primitives below are the medium's only implementation of
// each channel effect. A local effect (StartTx, AbortTx, SetTone,
// SetDown) and a foreign one mirrored through the cross-shard conduit
// (cross.go) call the same primitive. They differ only in the instant
// they pass (now for a local effect, the instant the message recorded
// for a mirrored one) and in seq: 0 for a local effect, whose events the
// engine numbers as it schedules them, or the first number of the
// mirrored message's sim.CrossSeq block, stepped once per event (see at
// and nextSeq).

// at schedules c.Call(tag) at t under sequence number seq (see above).
func (m *Medium) at(t sim.Time, c sim.Caller, tag int32, seq uint64) sim.Event {
	if seq == 0 {
		return m.eng.ScheduleCall(t, c, tag)
	}
	return m.eng.ScheduleCrossCall(t, c, tag, seq)
}

// nextSeq returns the sequence number after seq: a local effect's 0
// stays 0.
func nextSeq(seq uint64) uint64 {
	if seq == 0 {
		return 0
	}
	return seq + 1
}

// addRx starts tx's signal at receiver o, at squared distance d2 from
// the sender: the first bit arrives at tx.start+prop and the last at
// tx.end+prop, under seq and the number after it.
func (m *Medium) addRx(tx *transmission, o *Radio, d2 float64, seq uint64) {
	p := m.newRxPath()
	p.tx, p.r, p.inComm = tx, o, d2 <= m.cfg.CommRange*m.cfg.CommRange
	p.prop = m.propDelay(math.Sqrt(d2))
	tx.dests = append(tx.dests, p)
	m.at(tx.start+p.prop, p, tagRxStart, seq)
	p.endEv = m.at(tx.end+p.prop, p, tagRxEnd, nextSeq(seq))
}

// cut truncates tx at instant at: every receiver still waiting for the
// last bit gets it at at+prop instead, and decodes nothing. seq numbers
// the new ends, one per rx path, skipped or not.
//
// Only a path whose rxEnd is still pending is touched: a path that
// completed was freed and may serve another transmission by now. A local
// cut (at = now) of a live transmission finds every end at tx.end+prop >
// now still pending. A mirrored cut lands exactly too, as its holder
// fires at at+minProp ≤ at+prop, except for a transmission that spans an
// epoch boundary: its delays were sampled under the previous epoch's
// envelope, which the current lookahead floor may exceed, so the end is
// clamped to now, the holder instant (a deterministic position, at most
// minProp late; DESIGN.md §15). A stationary run has no boundary, so its
// clamp never fires.
func (m *Medium) cut(tx *transmission, at sim.Time, seq uint64) {
	tx.aborted = true
	tx.end = at
	now := m.eng.Now()
	for _, p := range tx.dests {
		s := seq
		seq = nextSeq(seq)
		if p.tx != tx || !p.endEv.Pending() {
			continue
		}
		p.corrupted = true
		p.endEv.Cancel()
		p.endEv = m.at(max(at+p.prop, now), p, tagRxEnd, s)
	}
}

// cutTx truncates r's transmission tx now, here and in every foreign
// shard it was mirrored into. A transmission a crash already cut is left
// alone: its truncated ends are running at crash+prop, and some of its
// paths may be freed or reused by now.
func (m *Medium) cutTx(r *Radio, tx *transmission) {
	if tx.aborted {
		return
	}
	now := m.eng.Now()
	m.cut(tx, now, 0)
	if tx.crossed {
		m.cross.mirror(r, crossHdr{kind: crossAbort, t0: now, t1: tx.start}, nil)
	}
}

// toneTo adds listener o, at squared distance d2 from the emitter, to the
// tone-t session sess raised at instant at: the tone reaches o at at+prop
// under seq, and lowerTone replays the same delay.
func (m *Medium) toneTo(sess *toneSession, t Tone, o *Radio, d2 float64, at sim.Time, seq uint64) {
	prop := m.propDelay(math.Sqrt(d2))
	sess.dests = append(sess.dests, o)
	sess.props = append(sess.props, prop)
	m.at(at+prop, o, toneOnTag(t), seq)
}

// lowerTone ends g's tone-t session, if one is open, as of instant at:
// each listener loses the tone at at+prop, with the delay its ON
// captured. seq numbers those events, one per listener; the number after
// the last is returned. g is the emitting radio, or for a foreign tone
// its ghost. Like cut, a mirrored OFF of a tone held across an epoch
// boundary may find at+prop before now and is clamped to now.
func (m *Medium) lowerTone(g *Radio, t Tone, at sim.Time, seq uint64) uint64 {
	sess := g.toneSess[t]
	if sess == nil {
		return seq
	}
	g.toneSess[t] = nil
	now := m.eng.Now()
	for i, o := range sess.dests {
		m.at(max(at+sess.props[i], now), o, toneOffTag(t), seq)
		seq = nextSeq(seq)
	}
	m.freeSess(sess)
	return seq
}

// stopTone ends r's tone-t session now, here and in every foreign shard
// its ON was mirrored into.
func (m *Medium) stopTone(r *Radio, t Tone) {
	now := m.eng.Now()
	if r.crossTone[t] {
		r.crossTone[t] = false
		m.cross.mirror(r, crossHdr{kind: crossToneOff, tone: uint8(t), t0: now}, nil)
	}
	m.lowerTone(r, t, now, 0)
}

// toneSession records the receivers and delays captured when a tone was
// raised, so the matching off-transition reaches exactly the same set.
type toneSession struct {
	dests []*Radio
	props []sim.Time
}

// Tone transition tags for Radio's sim.Caller dispatch: bit 0 is the
// on/off direction, the remaining bits are the tone index.
func toneOnTag(t Tone) int32  { return int32(t)<<1 | 1 }
func toneOffTag(t Tone) int32 { return int32(t) << 1 }
