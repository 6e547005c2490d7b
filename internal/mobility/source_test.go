package mobility

import (
	"math"
	"math/rand"
	"testing"
)

// drawBoth takes one draw of kind k (Int63, Uint64, Float64 or Intn,
// by k mod 4) from each of a and b.
func drawBoth(a, b *rand.Rand, k int) (x, y any) {
	switch k % 4 {
	case 0:
		return a.Int63(), b.Int63()
	case 1:
		return a.Uint64(), b.Uint64()
	case 2:
		return a.Float64(), b.Float64()
	default:
		n := 1 + k%1000
		return a.Intn(n), b.Intn(n)
	}
}

// TestLazySourceMatchesMathRand pins LazySource to rand.NewSource draw
// for draw, across the seed reduction's edge cases (0, negatives, the
// modulus and its neighbours, values far past 32 bits) and sampled
// per-node waypoint seeds, over a mix of draw kinds that runs well past
// the 274th draw, where the lazy source builds its register, and again
// after a reseed.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, int32max - 1, int32max, int32max + 1, int32max + 3, -int32max,
		1 << 40, -1 << 62, math.MinInt64, math.MaxInt64}
	for i := int64(0); i < 8; i++ {
		seeds = append(seeds, 12345*1_000_003+i*97, -7*1_000_003+i)
	}
	const draws = 2000
	for _, seed := range seeds {
		a, b := rand.New(rand.NewSource(seed)), rand.New(NewLazySource(seed))
		for k := 0; k < draws; k++ {
			if x, y := drawBoth(a, b, k); x != y {
				t.Fatalf("seed %d, draw %d (kind %d): math/rand %v, lazy %v", seed, k+1, k%4, x, y)
			}
		}
		// Reseeding restarts both streams, whether or not the lazy source
		// had built its register.
		for _, reseed := range []int64{seed + 1, seed} {
			a.Seed(reseed)
			b.Seed(reseed)
			for k := 0; k < 600; k++ {
				if x, y := drawBoth(a, b, k+1); x != y {
					t.Fatalf("seed %d reseeded %d, draw %d: math/rand %v, lazy %v", seed, reseed, k+1, x, y)
				}
			}
		}
	}
}

// TestLazySourceBuildsLate checks the laziness the source exists for:
// no register through draw 273, one from draw 274 on.
func TestLazySourceBuildsLate(t *testing.T) {
	s := NewLazySource(42)
	for n := 1; n <= rngTap; n++ {
		s.Uint64()
		if s.vec != nil {
			t.Fatalf("register built at draw %d, want 274", n)
		}
	}
	s.Uint64()
	if s.vec == nil {
		t.Fatal("register not built at draw 274")
	}
}

// FuzzLazySource compares LazySource with rand.NewSource for arbitrary
// seeds and stream lengths.
func FuzzLazySource(f *testing.F) {
	f.Add(int64(0), uint16(300))
	f.Add(int64(-1), uint16(274))
	f.Add(int64(math.MinInt64), uint16(1000))
	f.Add(int64(int32max), uint16(10))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		a, b := rand.New(rand.NewSource(seed)), rand.New(NewLazySource(seed))
		for k := 0; k < int(draws); k++ {
			if x, y := drawBoth(a, b, k); x != y {
				t.Fatalf("seed %d, draw %d: math/rand %v, lazy %v", seed, k+1, x, y)
			}
		}
	})
}
