package bmw

import (
	"testing"

	"rmac/internal/frame"
	"rmac/internal/geom"
	"rmac/internal/mac"
	"rmac/internal/mobility"
	"rmac/internal/phy"
	"rmac/internal/sim"
)

type upper struct {
	delivered []delivery
	completes []mac.TxResult
}

type delivery struct {
	payload []byte
	info    mac.RxInfo
}

// OnDeliver copies the payload out: it aliases pooled frame storage that
// is recycled after the callback returns.
func (u *upper) OnDeliver(payload []byte, info mac.RxInfo) {
	u.delivered = append(u.delivered, delivery{append([]byte(nil), payload...), info})
}

// OnSendComplete copies the loaned Delivered/Failed slices before keeping
// the result, per the mac.TxResult contract.
func (u *upper) OnSendComplete(res mac.TxResult) {
	res.Delivered = append([]frame.Addr(nil), res.Delivered...)
	res.Failed = append([]frame.Addr(nil), res.Failed...)
	u.completes = append(u.completes, res)
}

type world struct {
	eng    *sim.Engine
	medium *phy.Medium
	nodes  []*Node
	uppers []*upper
}

func newWorld(seed int64, pos []geom.Point) *world {
	eng := sim.NewEngine(seed)
	cfg := phy.DefaultConfig()
	m := phy.NewMedium(eng, cfg)
	w := &world{eng: eng, medium: m}
	for i, p := range pos {
		r := m.AddRadio(i, mobility.Stationary{P: p})
		n := New(r, cfg, eng, mac.DefaultLimits())
		u := &upper{}
		n.SetUpper(u)
		w.nodes = append(w.nodes, n)
		w.uppers = append(w.uppers, u)
	}
	return w
}

func addrs(ids ...int) []frame.Addr {
	out := make([]frame.Addr, len(ids))
	for i, id := range ids {
		out[i] = frame.AddrFromID(id)
	}
	return out
}

func reliableReq(payload string, dests ...int) *mac.SendRequest {
	return &mac.SendRequest{Service: mac.Reliable, Dests: addrs(dests...), Payload: []byte(payload)}
}

func TestReliableBroadcastRoundRobin(t *testing.T) {
	w := newWorld(1, []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 0, Y: 50}, {X: 35, Y: 35}})
	w.nodes[0].Send(reliableReq("bmw-payload", 1, 2, 3))
	w.eng.Run(sim.Second)
	for _, id := range []int{1, 2, 3} {
		if len(w.uppers[id].delivered) != 1 {
			t.Fatalf("node %d deliveries = %d, want 1", id, len(w.uppers[id].delivered))
		}
		if string(w.uppers[id].delivered[0].payload) != "bmw-payload" {
			t.Fatalf("node %d payload wrong", id)
		}
	}
	comp := w.uppers[0].completes
	if len(comp) != 1 || comp[0].Dropped || len(comp[0].Delivered) != 3 {
		t.Fatalf("completion = %+v", comp)
	}
}

// TestOverhearingSkipsData verifies BMW's core optimisation: receivers
// that overheard the DATA during an earlier unicast answer with a CTS
// expecting the *next* sequence number, and the sender skips their DATA
// transmission. With 3 receivers all in range of each other, exactly one
// DATA transmission should occur.
func TestOverhearingSkipsData(t *testing.T) {
	w := newWorld(2, []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 0, Y: 50}, {X: 35, Y: 35}})
	payload := make([]byte, 500)
	w.nodes[0].Send(&mac.SendRequest{Service: mac.Reliable, Dests: addrs(1, 2, 3), Payload: payload})
	w.eng.Run(sim.Second)
	st := w.nodes[0].Stats()
	cfg := phy.DefaultConfig()
	oneData := cfg.TxDuration(frame.Data80211Overhead + 500)
	if st.DataTxTime != oneData {
		t.Fatalf("data airtime = %v, want exactly one frame (%v)", st.DataTxTime, oneData)
	}
	// Still 3 RTS (one contention phase per receiver).
	if got := st.CtrlTxTime; got < 3*cfg.TxDuration(frame.RTSLen) {
		t.Fatalf("control airtime = %v, want >= 3 RTS", got)
	}
	if w.uppers[0].completes[0].Dropped {
		t.Fatal("dropped")
	}
}

func TestUnreachableReceiverDropsPacket(t *testing.T) {
	w := newWorld(3, []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 500, Y: 0}})
	w.nodes[0].Send(reliableReq("x", 1, 2))
	w.eng.Run(30 * sim.Second)
	comp := w.uppers[0].completes
	if len(comp) != 1 || !comp[0].Dropped {
		t.Fatalf("completion = %+v", comp)
	}
	// Receiver 1 was delivered before the stall on receiver 2.
	if len(comp[0].Delivered) != 1 || comp[0].Delivered[0] != frame.AddrFromID(1) {
		t.Fatalf("delivered = %v", comp[0].Delivered)
	}
	if len(comp[0].Failed) != 1 || comp[0].Failed[0] != frame.AddrFromID(2) {
		t.Fatalf("failed = %v", comp[0].Failed)
	}
}

func TestUnreliableBroadcast(t *testing.T) {
	w := newWorld(4, []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 400, Y: 400}})
	w.nodes[0].Send(&mac.SendRequest{Service: mac.Unreliable, Payload: []byte("beacon")})
	w.eng.Run(sim.Second)
	if len(w.uppers[1].delivered) != 1 || w.uppers[1].delivered[0].info.Reliable {
		t.Fatalf("broadcast delivery = %+v", w.uppers[1].delivered)
	}
	if len(w.uppers[2].delivered) != 0 {
		t.Fatal("delivered out of range")
	}
}

func TestSequentialPackets(t *testing.T) {
	w := newWorld(5, []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}, {X: 0, Y: 50}})
	for i := 0; i < 4; i++ {
		w.nodes[0].Send(reliableReq("pkt", 1, 2))
	}
	w.eng.Run(10 * sim.Second)
	if got := len(w.uppers[0].completes); got != 4 {
		t.Fatalf("completes = %d, want 4", got)
	}
	for _, id := range []int{1, 2} {
		if got := len(w.uppers[id].delivered); got != 4 {
			t.Fatalf("node %d deliveries = %d, want 4 (dedup per packet)", id, got)
		}
	}
}

func TestHiddenTerminalRecovery(t *testing.T) {
	w := newWorld(6, []geom.Point{{X: 0, Y: 0}, {X: 70, Y: 0}, {X: 140, Y: 0}})
	w.nodes[0].Send(reliableReq("a", 1))
	w.eng.Schedule(30*sim.Microsecond, func() { w.nodes[2].Send(reliableReq("c", 1)) })
	w.eng.Run(30 * sim.Second)
	if got := len(w.uppers[1].delivered); got != 2 {
		t.Fatalf("B deliveries = %d, want 2", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int, uint64) {
		w := newWorld(9, []geom.Point{{X: 0, Y: 0}, {X: 60, Y: 0}, {X: 120, Y: 0}})
		for i := 0; i < 5; i++ {
			w.nodes[0].Send(reliableReq("a", 1))
			w.nodes[2].Send(reliableReq("c", 1))
		}
		w.eng.Run(30 * sim.Second)
		return len(w.uppers[1].delivered), w.nodes[0].Stats().Retransmissions
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatal("nondeterministic")
	}
}
