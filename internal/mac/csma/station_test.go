package csma

import (
	"testing"

	"rmac/internal/frame"
	"rmac/internal/geom"
	"rmac/internal/mac"
	"rmac/internal/mobility"
	"rmac/internal/phy"
	"rmac/internal/sim"
)

// stubNode is the smallest protocol on the station: no exchange of its
// own, only the station's response slot. It records what went on air.
type stubNode struct {
	Station
	sent []frame.Kind
}

func (n *stubNode) OnFrameReceived(frame.Frame, bool, sim.Time) {}

func (n *stubNode) OnTxDone(f frame.Frame) {
	n.sent = append(n.sent, f.Kind())
	if n.St == Responding {
		n.St = Idle
	}
}

// newStub puts a stub node and a silent peer on one medium.
func newStub(t *testing.T) (*sim.Engine, *stubNode, *phy.Medium) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := phy.DefaultConfig()
	m := phy.NewMedium(eng, cfg)
	n := &stubNode{}
	n.Init(n, m.AddRadio(0, mobility.Stationary{P: geom.Point{}}), cfg, eng, mac.DefaultLimits(), func() {})
	m.AddRadio(1, mobility.Stationary{P: geom.Point{X: 50}})
	return eng, n, m
}

func (n *stubNode) rts() *frame.RTS {
	return &frame.RTS{Duration: 1000, Receiver: n.Addr(), Transmitter: frame.AddrFromID(1)}
}

// checkDrained requires every pooled frame back in the pool and no
// response still counted as deferred.
func checkDrained(t *testing.T, n *stubNode, m *phy.Medium) {
	t.Helper()
	if live := m.Frames().Stats().Live; live != 0 {
		t.Errorf("pool Live = %d after the run, want 0", live)
	}
	if n.Deferred != 0 {
		t.Errorf("Deferred = %d after the run, want 0", n.Deferred)
	}
}

func TestRespondKeepsFirstOfTwoWithinSIFS(t *testing.T) {
	eng, n, m := newStub(t)
	n.Respond(n.CTS(n.rts()))
	eng.Schedule(phy.SIFS/2, func() {
		n.Respond(n.ACK(frame.AddrFromID(1)))
		if live := m.Frames().Stats().Live; live != 1 {
			t.Errorf("pool Live = %d after the second Respond, want 1 (newcomer released)", live)
		}
	})
	eng.RunAll()
	if len(n.sent) != 1 || n.sent[0] != frame.KindCTS {
		t.Fatalf("sent %v, want only the first response (CTS)", n.sent)
	}
	if want := n.Cfg.TxDuration(frame.CTSLen); n.Stats().CtrlTxTime != want {
		t.Errorf("CtrlTxTime = %v, want one CTS airtime %v", n.Stats().CtrlTxTime, want)
	}
	if n.St != Idle {
		t.Errorf("state %d after the response, want Idle", n.St)
	}
	checkDrained(t, n, m)
}

func TestRespondReleasedWhenBusy(t *testing.T) {
	eng, n, m := newStub(t)
	n.Respond(n.CTS(n.rts()))
	n.St = FirstState // the node entered an exchange of its own
	eng.RunAll()
	if len(n.sent) != 0 {
		t.Fatalf("sent %v while busy, want nothing", n.sent)
	}
	if n.Stats().CtrlTxTime != 0 {
		t.Errorf("CtrlTxTime = %v, want 0", n.Stats().CtrlTxTime)
	}
	checkDrained(t, n, m)
}

func TestRespondReleasedWhenTransmitting(t *testing.T) {
	eng, n, m := newStub(t)
	n.Respond(n.CTS(n.rts()))
	// A data frame outlasting SIFS is on the air when the response is due.
	f := n.Frames.Data()
	f.Receiver, f.Payload = frame.Broadcast, append(f.Payload, make([]byte, 100)...)
	n.startTx(f)
	eng.RunAll()
	if len(n.sent) != 1 || n.sent[0] != frame.KindData {
		t.Fatalf("sent %v, want only the data frame", n.sent)
	}
	if n.Stats().CtrlTxTime != 0 {
		t.Errorf("CtrlTxTime = %v, want 0", n.Stats().CtrlTxTime)
	}
	checkDrained(t, n, m)
}
