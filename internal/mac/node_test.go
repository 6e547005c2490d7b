package mac

import (
	"testing"

	"rmac/internal/frame"
)

type recUpper struct{ got []RxInfo }

func (u *recUpper) OnDeliver(_ []byte, info RxInfo) { u.got = append(u.got, info) }
func (u *recUpper) OnSendComplete(TxResult)         {}

// TestNodeDeliverDedupsPerSender pins the shared receiver dedup: a repeat
// of the last seq deduplicated from the same sender is dropped, other
// senders and undeduplicated frames pass, and LastSeq reports the newest
// seq per sender, across a 16-bit wrap as DCF frames carry it.
func TestNodeDeliverDedupsPerSender(t *testing.T) {
	var m Node
	u := &recUpper{}
	m.SetUpper(u)
	a, b := frame.AddrFromID(1), frame.AddrFromID(2)
	if _, ok := m.LastSeq(a); ok {
		t.Fatal("LastSeq reports a seq before any delivery")
	}
	m.Deliver(a, 7, nil, true, true)
	m.Deliver(a, 7, nil, true, true) // retransmission: dropped
	m.Deliver(b, 7, nil, true, true) // another sender
	m.Deliver(a, 7, nil, false, false)
	m.Deliver(b, 65535, nil, true, true)
	m.Deliver(b, 0, nil, true, true) // the 16-bit counter wrapped
	want := []RxInfo{
		{From: a, Reliable: true, Seq: 7},
		{From: b, Reliable: true, Seq: 7},
		{From: a, Reliable: false, Seq: 7},
		{From: b, Reliable: true, Seq: 65535},
		{From: b, Reliable: true, Seq: 0},
	}
	if len(u.got) != len(want) {
		t.Fatalf("delivered %+v, want %+v", u.got, want)
	}
	for i := range want {
		if u.got[i] != want[i] {
			t.Errorf("delivery %d = %+v, want %+v", i, u.got[i], want[i])
		}
	}
	if seq, ok := m.LastSeq(a); !ok || seq != 7 {
		t.Errorf("LastSeq(a) = %d, %v; want 7, true", seq, ok)
	}
	if seq, ok := m.LastSeq(b); !ok || seq != 0 {
		t.Errorf("LastSeq(b) = %d, %v; want 0, true", seq, ok)
	}
}
