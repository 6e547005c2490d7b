package audit_test

import (
	"testing"

	"rmac/internal/audit"
	"rmac/internal/frame"
	"rmac/internal/geom"
	"rmac/internal/mac"
	"rmac/internal/mac/bmmm"
	"rmac/internal/mac/bmw"
	"rmac/internal/mac/dot11"
	"rmac/internal/mac/lbp"
	"rmac/internal/mac/mx"
	"rmac/internal/mac/rmac"
	"rmac/internal/mobility"
	"rmac/internal/phy"
	"rmac/internal/sim"
)

// nopHandler satisfies phy.Handler for radios driven directly by a test.
type nopHandler struct{}

func (nopHandler) OnFrameReceived(frame.Frame, bool, sim.Time) {}
func (nopHandler) OnCarrierChange(bool)                        {}
func (nopHandler) OnToneChange(phy.Tone, bool)                 {}
func (nopHandler) OnTxDone(frame.Frame)                        {}

// newAuditWorld builds an engine + medium with an attached auditor and one
// directly-drivable radio per position.
func newAuditWorld(t *testing.T, pos ...geom.Point) (*sim.Engine, *phy.Medium, *audit.Auditor, []*phy.Radio) {
	t.Helper()
	eng := sim.NewEngine(1)
	m := phy.NewMedium(eng, phy.DefaultConfig())
	aud := audit.New(eng, m, audit.Config{})
	var rads []*phy.Radio
	for i, p := range pos {
		r := m.AddRadio(i, mobility.Stationary{P: p})
		r.SetHandler(nopHandler{})
		rads = append(rads, r)
	}
	return eng, m, aud, rads
}

// requireViolation asserts the auditor's most recent violation has the
// given class and returns it.
func requireViolation(t *testing.T, aud *audit.Auditor, class audit.Class) audit.Violation {
	t.Helper()
	vs := aud.Violations()
	if len(vs) == 0 {
		t.Fatalf("no violations recorded, want class %v", class)
	}
	v := vs[len(vs)-1]
	if v.Class != class {
		t.Fatalf("last violation = %v, want class %v", v, class)
	}
	return v
}

func requireClean(t *testing.T, aud *audit.Auditor) {
	t.Helper()
	if aud.Count != 0 {
		for _, v := range aud.Violations() {
			t.Errorf("unexpected violation: %v", v)
		}
		t.Fatalf("auditor recorded %d violations, want 0", aud.Count)
	}
}

// stubMAC is a configurable mac.MAC implementing every auditor reporter
// interface, for driving the quiesce-time checks directly.
type stubMAC struct {
	stats                        mac.Stats
	nav                          bool
	wants, counting, gated, idle bool
	queued                       int
	inFlight                     bool
}

func (s *stubMAC) Addr() frame.Addr           { return frame.AddrFromID(0) }
func (s *stubMAC) Send(*mac.SendRequest) bool { return false }
func (s *stubMAC) SetUpper(mac.UpperLayer)    {}
func (s *stubMAC) Stats() *mac.Stats          { return &s.stats }
func (s *stubMAC) AuditNAVBusy() bool         { return s.nav }
func (s *stubMAC) AuditContention() (bool, bool, bool, bool) {
	return s.wants, s.counting, s.gated, s.idle
}
func (s *stubMAC) AuditPending() (int, bool) { return s.queued, s.inFlight }

// recUpper counts deliveries and completions.
type recUpper struct {
	delivered int
	completes []mac.TxResult
}

func (u *recUpper) OnDeliver([]byte, mac.RxInfo) { u.delivered++ }
func (u *recUpper) OnSendComplete(res mac.TxResult) {
	res.Delivered = append([]frame.Addr(nil), res.Delivered...)
	res.Failed = append([]frame.Addr(nil), res.Failed...)
	u.completes = append(u.completes, res)
}

// ---- negative tests: every invariant class must actually fire ----

func TestDetectsDoubleTransmit(t *testing.T) {
	eng, _, aud, rads := newAuditWorld(t, geom.Point{X: 0, Y: 0}, geom.Point{X: 30, Y: 0})
	rads[0].StartTx(&frame.RTS{Receiver: frame.AddrFromID(1), Transmitter: frame.AddrFromID(0)})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("phy accepted a second concurrent StartTx")
			}
		}()
		rads[0].StartTx(&frame.RTS{Receiver: frame.AddrFromID(1), Transmitter: frame.AddrFromID(0)})
	}()
	requireViolation(t, aud, audit.HalfDuplex)
	eng.RunAll()
	if aud.Count != 1 {
		t.Fatalf("violations = %d, want exactly 1", aud.Count)
	}
}

func TestDetectsUndeclaredToneAssertion(t *testing.T) {
	_, _, aud, rads := newAuditWorld(t, geom.Point{X: 0, Y: 0})
	rads[0].SetTone(phy.ToneRBT, true)
	requireViolation(t, aud, audit.ToneLifecycle)
	rads[0].SetTone(phy.ToneRBT, false)
	if aud.Count != 1 {
		t.Fatalf("violations = %d, want 1 (the off-transition is legal)", aud.Count)
	}
}

func TestDetectsWrongPulseLength(t *testing.T) {
	eng, _, aud, rads := newAuditWorld(t, geom.Point{X: 0, Y: 0})
	aud.ExpectTone(0, phy.ToneABT, 0, phy.ABTDuration)
	rads[0].SetTone(phy.ToneABT, true)
	eng.Schedule(10*sim.Microsecond, func() { rads[0].SetTone(phy.ToneABT, false) })
	eng.RunAll()
	requireViolation(t, aud, audit.ToneLifecycle)
}

func TestDetectsDoubleToneSet(t *testing.T) {
	_, _, aud, rads := newAuditWorld(t, geom.Point{X: 0, Y: 0})
	aud.ExpectTone(0, phy.ToneRBT, 0, 0)
	rads[0].SetTone(phy.ToneRBT, true)
	requireClean(t, aud)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("phy accepted a duplicate tone transition")
			}
		}()
		rads[0].SetTone(phy.ToneRBT, true)
	}()
	requireViolation(t, aud, audit.ToneLifecycle)
}

func TestDetectsStrandedToneAtQuiesce(t *testing.T) {
	eng, _, aud, rads := newAuditWorld(t, geom.Point{X: 0, Y: 0})
	aud.ExpectTone(0, phy.ToneRBT, 0, 0)
	rads[0].SetTone(phy.ToneRBT, true)
	eng.Run(10 * sim.Millisecond) // far past the RBT hold bound
	aud.Quiesce()
	requireViolation(t, aud, audit.ToneLifecycle)
}

func TestDetectsTransmissionUnderNAV(t *testing.T) {
	_, _, aud, rads := newAuditWorld(t, geom.Point{X: 0, Y: 0}, geom.Point{X: 30, Y: 0})
	st := &stubMAC{nav: true}
	aud.RegisterMAC(0, st)
	aud.Initiation(0)
	rads[0].StartTx(&frame.RTS{Receiver: frame.AddrFromID(1), Transmitter: frame.AddrFromID(0)})
	requireViolation(t, aud, audit.NAV)
}

func TestDetectsShortDIFS(t *testing.T) {
	eng, _, aud, rads := newAuditWorld(t, geom.Point{X: 0, Y: 0}, geom.Point{X: 30, Y: 0})
	cfg := phy.DefaultConfig()
	d := &frame.Data{Receiver: frame.AddrFromID(0), Transmitter: frame.AddrFromID(1), Duration: 100}
	dur := cfg.TxDuration(d.WireSize())
	eng.Schedule(0, func() { rads[1].StartTx(d) })
	// Initiate 10 µs after the frame's energy ends at node 0: far short of
	// the DIFS the DCF must wait after channel activity.
	eng.Schedule(dur+10*sim.Microsecond, func() {
		aud.Initiation(0)
		rads[0].StartTx(&frame.RTS{Receiver: frame.AddrFromID(1), Transmitter: frame.AddrFromID(0)})
	})
	eng.RunAll()
	requireViolation(t, aud, audit.Spacing)
}

func TestDetectsShortSIFSResponse(t *testing.T) {
	eng, _, aud, rads := newAuditWorld(t, geom.Point{X: 0, Y: 0}, geom.Point{X: 30, Y: 0})
	cfg := phy.DefaultConfig()
	d := &frame.Data{Receiver: frame.AddrFromID(0), Transmitter: frame.AddrFromID(1), Duration: 100}
	dur := cfg.TxDuration(d.WireSize())
	eng.Schedule(0, func() { rads[1].StartTx(d) })
	// Respond 5 µs after the decode completes: under the SIFS turnaround.
	eng.Schedule(dur+5*sim.Microsecond, func() {
		rads[0].StartTx(&frame.CTS{Receiver: frame.AddrFromID(1), Transmitter: frame.AddrFromID(0)})
	})
	eng.RunAll()
	requireViolation(t, aud, audit.Spacing)
}

func TestDetectsUndeclaredBroadcastData(t *testing.T) {
	_, _, aud, rads := newAuditWorld(t, geom.Point{X: 0, Y: 0}, geom.Point{X: 30, Y: 0})
	// Registering a NAVReporter marks node 0 as an 802.11-family MAC, so
	// its zero-Duration (broadcast) data must ride a declared DCF win.
	aud.RegisterMAC(0, &stubMAC{})
	rads[0].StartTx(&frame.Data{Receiver: frame.Broadcast, Transmitter: frame.AddrFromID(0)})
	requireViolation(t, aud, audit.Spacing)
}

func TestDetectsDuplicateReliableDelivery(t *testing.T) {
	_, _, aud, _ := newAuditWorld(t, geom.Point{X: 0, Y: 0})
	u := &recUpper{}
	shim := aud.WrapUpper(0, u)
	info := mac.RxInfo{From: frame.AddrFromID(1), Reliable: true, Seq: 7}
	shim.OnDeliver([]byte("x"), info)
	requireClean(t, aud)
	shim.OnDeliver([]byte("x"), info)
	requireViolation(t, aud, audit.ReliableSemantics)
	if u.delivered != 2 {
		t.Fatalf("inner upper saw %d deliveries, want 2 (the shim must still forward)", u.delivered)
	}
	// A different sequence from the same source is a fresh delivery.
	shim.OnDeliver([]byte("y"), mac.RxInfo{From: frame.AddrFromID(1), Reliable: true, Seq: 8})
	if aud.Count != 1 {
		t.Fatalf("violations = %d, want 1", aud.Count)
	}
}

// Foreign (non-node) transmitter addresses share the dedup path with node
// addresses, and a foreign address never aliases a node whose id matches
// its low bytes.
func TestDuplicateDeliveryForeignAddress(t *testing.T) {
	_, _, aud, _ := newAuditWorld(t, geom.Point{X: 0, Y: 0})
	shim := aud.WrapUpper(0, &recUpper{})
	foreign := frame.Addr{0x00, 0x00, 0x00, 0x00, 0x00, 0x01}
	shim.OnDeliver([]byte("x"), mac.RxInfo{From: foreign, Reliable: true, Seq: 5})
	shim.OnDeliver([]byte("x"), mac.RxInfo{From: frame.AddrFromID(1), Reliable: true, Seq: 5})
	requireClean(t, aud)
	shim.OnDeliver([]byte("x"), mac.RxInfo{From: foreign, Reliable: true, Seq: 5})
	requireViolation(t, aud, audit.ReliableSemantics)
}

func TestDetectsIncompleteAckSet(t *testing.T) {
	_, _, aud, _ := newAuditWorld(t, geom.Point{X: 0, Y: 0})
	aud.ReliableOutcome(0, 1, 3, false)
	requireViolation(t, aud, audit.ReliableSemantics)
	// A drop with a partial ACK set is the legal outcome.
	aud.ReliableOutcome(0, 1, 3, true)
	if aud.Count != 1 {
		t.Fatalf("violations = %d, want 1", aud.Count)
	}
}

func TestDetectsStuckBackoffAtQuiesce(t *testing.T) {
	_, _, aud, _ := newAuditWorld(t, geom.Point{X: 0, Y: 0})
	st := &stubMAC{wants: true, idle: true}
	aud.RegisterMAC(0, st)
	aud.Quiesce()
	requireViolation(t, aud, audit.BackoffLegality)
	// With a gate armed the same state is legal.
	st.gated = true
	aud.Quiesce()
	if aud.Count != 1 {
		t.Fatalf("violations = %d, want 1 (gated draw is legal)", aud.Count)
	}
}

func TestDetectsConservationMismatch(t *testing.T) {
	_, _, aud, _ := newAuditWorld(t, geom.Point{X: 0, Y: 0})
	st := &stubMAC{queued: 1}
	st.stats.Enqueued = 3
	st.stats.ReliableDelivered = 1
	aud.RegisterMAC(0, st)
	aud.Quiesce()
	requireViolation(t, aud, audit.Conservation)
	// Balance the identity: 3 = 1 delivered + 1 queued + 1 in flight.
	st2 := &stubMAC{queued: 1, inFlight: true}
	st2.stats.Enqueued = 3
	st2.stats.ReliableDelivered = 1
	_, _, aud2, _ := newAuditWorld(t, geom.Point{X: 0, Y: 0})
	aud2.RegisterMAC(0, st2)
	aud2.Quiesce()
	requireClean(t, aud2)
}

// ---- conformance scenarios: zero violations across all six MACs ----

type protoCase struct {
	name  string
	build func(r *phy.Radio, cfg phy.Config, eng *sim.Engine) mac.MAC
}

func allProtocols() []protoCase {
	lim := mac.DefaultLimits()
	return []protoCase{
		{"rmac", func(r *phy.Radio, cfg phy.Config, eng *sim.Engine) mac.MAC { return rmac.New(r, cfg, eng, lim) }},
		{"bmmm", func(r *phy.Radio, cfg phy.Config, eng *sim.Engine) mac.MAC { return bmmm.New(r, cfg, eng, lim) }},
		{"bmw", func(r *phy.Radio, cfg phy.Config, eng *sim.Engine) mac.MAC { return bmw.New(r, cfg, eng, lim) }},
		{"lbp", func(r *phy.Radio, cfg phy.Config, eng *sim.Engine) mac.MAC { return lbp.New(r, cfg, eng, lim) }},
		{"mx", func(r *phy.Radio, cfg phy.Config, eng *sim.Engine) mac.MAC { return mx.New(r, cfg, eng, lim) }},
		{"dot11", func(r *phy.Radio, cfg phy.Config, eng *sim.Engine) mac.MAC { return dot11.New(r, cfg, eng, lim) }},
	}
}

// buildStack wires one MAC per position with the auditor fully attached,
// exactly as the experiment harness does.
func buildStack(p protoCase, seed int64, pos []geom.Point) (*sim.Engine, *audit.Auditor, []mac.MAC, []*recUpper) {
	eng := sim.NewEngine(seed)
	cfg := phy.DefaultConfig()
	m := phy.NewMedium(eng, cfg)
	aud := audit.New(eng, m, audit.Config{})
	var macs []mac.MAC
	var ups []*recUpper
	for i, pt := range pos {
		r := m.AddRadio(i, mobility.Stationary{P: pt})
		n := p.build(r, cfg, eng)
		u := &recUpper{}
		aud.RegisterMAC(i, n)
		if s, ok := n.(interface{ SetAuditor(*audit.Auditor) }); ok {
			s.SetAuditor(aud)
		}
		n.SetUpper(aud.WrapUpper(i, u))
		macs = append(macs, n)
		ups = append(ups, u)
	}
	return eng, aud, macs, ups
}

func reliableTo(payload string, ids ...int) *mac.SendRequest {
	dests := make([]frame.Addr, len(ids))
	for i, id := range ids {
		dests[i] = frame.AddrFromID(id)
	}
	return &mac.SendRequest{Service: mac.Reliable, Dests: dests, Payload: []byte(payload)}
}

// TestHiddenTerminalConformance: A and C cannot hear each other and both
// send reliably to B. Whatever collisions and recoveries follow, no MAC
// may break an invariant, and both exchanges must complete.
func TestHiddenTerminalConformance(t *testing.T) {
	for _, p := range allProtocols() {
		t.Run(p.name, func(t *testing.T) {
			pos := []geom.Point{{X: 0, Y: 0}, {X: 60, Y: 0}, {X: 120, Y: 0}}
			eng, aud, macs, ups := buildStack(p, 31, pos)
			if !macs[0].Send(reliableTo("from-a", 1)) {
				t.Fatal("A's send rejected")
			}
			eng.Schedule(40*sim.Microsecond, func() {
				if !macs[2].Send(reliableTo("from-c", 1)) {
					t.Fatal("C's send rejected")
				}
			})
			eng.Run(5 * sim.Second)
			requireClean(t, aud)
			if len(ups[0].completes) != 1 || len(ups[2].completes) != 1 {
				t.Fatalf("completions = %d/%d, want 1/1", len(ups[0].completes), len(ups[2].completes))
			}
			if ups[0].completes[0].Dropped || ups[2].completes[0].Dropped {
				t.Fatalf("a hidden-terminal sender dropped: A=%+v C=%+v", ups[0].completes[0], ups[2].completes[0])
			}
		})
	}
}

// TestExposedReceiverConformance: B→A and C→D run concurrently with B and
// C in range of each other but the receivers clear of the opposite
// sender. Both must complete with zero invariant violations.
func TestExposedReceiverConformance(t *testing.T) {
	for _, p := range allProtocols() {
		t.Run(p.name, func(t *testing.T) {
			pos := []geom.Point{{X: 0, Y: 0}, {X: 70, Y: 0}, {X: 130, Y: 0}, {X: 200, Y: 0}}
			eng, aud, macs, ups := buildStack(p, 32, pos)
			if !macs[1].Send(reliableTo("b-to-a", 0)) {
				t.Fatal("B's send rejected")
			}
			eng.Schedule(25*sim.Microsecond, func() {
				if !macs[2].Send(reliableTo("c-to-d", 3)) {
					t.Fatal("C's send rejected")
				}
			})
			eng.Run(5 * sim.Second)
			requireClean(t, aud)
			if len(ups[1].completes) != 1 || len(ups[2].completes) != 1 {
				t.Fatalf("completions = %d/%d, want 1/1", len(ups[1].completes), len(ups[2].completes))
			}
			if ups[1].completes[0].Dropped || ups[2].completes[0].Dropped {
				t.Fatalf("an exposed-pair sender dropped: B=%+v C=%+v", ups[1].completes[0], ups[2].completes[0])
			}
		})
	}
}
