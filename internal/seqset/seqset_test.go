package seqset

import (
	"math/rand"
	"testing"
)

// TestAddMatchesMap checks Add against a map over a random stream of new
// keys, new sequence numbers (growing the bitsets several times) and
// duplicates.
func TestAddMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type pair struct {
		key uint64
		seq uint32
	}
	var s Set
	ref := map[pair]bool{}
	for i := 0; i < 20000; i++ {
		p := pair{uint64(rng.Intn(8)) * 7919, uint32(rng.Intn(700))}
		if got, want := s.Add(p.key, p.seq), !ref[p]; got != want {
			t.Fatalf("step %d: Add(%d, %d) = %v, want %v", i, p.key, p.seq, got, want)
		}
		ref[p] = true
	}
	if len(s.entries) != 8 {
		t.Fatalf("%d keys held, want 8", len(s.entries))
	}
}

// A key's cost is one entry and the words its sequence numbers need,
// whatever its value: node 9999 costs what node 0 costs.
func TestSparseKeyCostsConstant(t *testing.T) {
	var low, high Set
	low.Add(0, 5)
	high.Add(9999, 5)
	if len(high.entries) != 1 || len(high.entries[0].bits) != len(low.entries[0].bits) {
		t.Fatalf("key 9999 holds %d entries / %d words, key 0 holds %d words",
			len(high.entries), len(high.entries[0].bits), len(low.entries[0].bits))
	}
	if w := len(high.entries[0].bits); w != firstWords {
		t.Fatalf("first bitset has %d words, want %d", w, firstWords)
	}
}

// Once a key's bitset covers a sequence number, recording it allocates
// nothing: the per-delivery path stays allocation-free.
func TestAddSteadyStateAllocs(t *testing.T) {
	var s Set
	s.Add(42, 200)
	seq := uint32(0)
	if n := testing.AllocsPerRun(1000, func() {
		seq = (seq + 1) % 200
		s.Add(42, seq)
	}); n != 0 {
		t.Fatalf("Add allocates %.1f per call in steady state", n)
	}
}
