package mobility

// math/rand's rngSource parameters: an additive lagged Fibonacci
// generator over a 607-word register with tap 273, seeded from the
// Park–Miller LCG x ← 48271·x mod (2³¹−1).
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	lcgA     = 48271
)

// LazySource is a rand.Source64 whose value stream equals
// rand.NewSource(seed)'s, draw for draw, without seeding math/rand's
// 607-word register up front.
//
// Draw n of rngSource adds register entries feed = 334−n and tap = 607−n
// (mod 607) and writes the sum back at feed. Seeding sets entry i to
// x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ rngCooked[i], where x_k is the k-th
// output of the seeding LCG started at the reduced seed x₀, that is
// 48271ᵏ·x₀ mod (2³¹−1). The first 273 draws read only entries no draw
// has written yet, so draw n ≤ 273 is entry(334−n) + entry(607−n), each
// computed on demand from x₀ and a table of LCG powers. Draw 274 is the
// first to read a written entry (333, written by draw 1): it builds the
// whole register, replays the 273 writes, and from then on the source
// steps exactly as rngSource does. A random-waypoint node takes three
// draws per leg, so most nodes of a run never build the register and
// keep four words of state instead of its 4.9 KB.
type LazySource struct {
	x0        int32          // the reduced seed: x₀ of the seeding LCG
	n         int32          // draws taken before the register is built
	tap, feed int32          // register indices once built
	vec       *[rngLen]int64 // the register, built at draw rngTap+1
}

// lcgPow[i] is 48271^(21+3i) mod (2³¹−1): the LCG multiplier that takes
// x₀ to the first of entry i's three outputs.
var lcgPow = func() (p [rngLen]int64) {
	x := int64(1)
	for range 21 {
		x = x * lcgA % int32max
	}
	for i := range p {
		p[i] = x
		x = x * lcgA % int32max * lcgA % int32max * lcgA % int32max
	}
	return p
}()

// NewLazySource returns a source seeded with seed; see LazySource.
func NewLazySource(seed int64) *LazySource {
	s := &LazySource{}
	s.Seed(seed)
	return s
}

// Seed resets the source to the stream of rand.NewSource(seed), reducing
// the seed as rngSource.Seed does.
func (s *LazySource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = LazySource{x0: int32(seed)}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *LazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 returns a pseudo-random 64-bit value.
func (s *LazySource) Uint64() uint64 {
	if s.vec == nil {
		if s.n < rngTap {
			s.n++
			n := int(s.n)
			return uint64(s.entry(rngLen-rngTap-n) + s.entry(rngLen-n))
		}
		s.build()
	}
	return uint64(s.step())
}

// step is rngSource.Uint64 on the built register.
func (s *LazySource) step() int64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// build fills the register as rngSource.Seed does and replays the rngTap
// draws already taken.
func (s *LazySource) build() {
	s.vec = new([rngLen]int64)
	for i := range s.vec {
		s.vec[i] = s.entry(i)
	}
	s.tap, s.feed = 0, rngLen-rngTap
	for range rngTap {
		s.step()
	}
}

// entry is register entry i as seeding leaves it.
func (s *LazySource) entry(i int) int64 {
	x := int32(lcgPow[i] * int64(s.x0) % int32max)
	u := int64(x) << 40
	x = seedrand(x)
	u ^= int64(x) << 20
	x = seedrand(x)
	u ^= int64(x)
	return u ^ rngCooked[i]
}

// seedrand is one step of the seeding LCG, x ← 48271·x mod (2³¹−1), by
// Schrage's method as math/rand computes it.
func seedrand(x int32) int32 {
	const (
		q = 44488
		r = 3399
	)
	hi, lo := x/q, x%q
	x = lcgA*lo - r*hi
	if x < 0 {
		x += int32max
	}
	return x
}
