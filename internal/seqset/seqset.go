// Package seqset is the duplicate filter shared by the application
// forwarder (one packet per source and sequence number) and the auditor's
// at-most-once check (one reliable delivery per transmitter and sequence
// number). In both, a node meets only a few keys — the sources it hears,
// the parents it has had — and each key's sequence numbers count up
// densely from 1. A Set therefore keeps one sequence bitset per key
// actually seen, found by linear scan: its size follows the keys a node
// meets, not the largest key value, so a network's total state grows with
// the number of nodes rather than its square.
//
// The scan makes each Add cost O(keys). It is sized for about eight keys
// or fewer — the most any benchmark workload gives a node (eight sources)
// — and is unmeasured beyond that: a run with many sources would want a
// sorted table with binary search instead.
package seqset

// Set records (key, seq) pairs. The zero value is an empty set.
type Set struct {
	entries []entry
}

type entry struct {
	key  uint64
	bits []uint64
}

// First allocations are sized so the common run never grows them: a node
// meets a handful of keys, and a 4-word bitset covers 256 sequence numbers.
const (
	firstKeys  = 4
	firstWords = 4
)

// Add records (key, seq) and reports whether it was new.
func (s *Set) Add(key uint64, seq uint32) bool {
	e := s.entry(key)
	w, bit := int(seq>>6), uint64(1)<<(seq&63)
	if w >= len(e.bits) {
		e.bits = grow(e.bits, w+1)
	}
	if e.bits[w]&bit != 0 {
		return false
	}
	e.bits[w] |= bit
	return true
}

// entry returns key's entry, appending an empty one on first sight.
func (s *Set) entry(key uint64) *entry {
	for i := range s.entries {
		if s.entries[i].key == key {
			return &s.entries[i]
		}
	}
	if s.entries == nil {
		s.entries = make([]entry, 0, firstKeys)
	}
	s.entries = append(s.entries, entry{key: key})
	return &s.entries[len(s.entries)-1]
}

// grow extends bits to at least n words, at least doubling it.
func grow(bits []uint64, n int) []uint64 {
	size := max(n, 2*len(bits), firstWords)
	out := make([]uint64, size)
	copy(out, bits)
	return out
}
