package workload

import (
	"math"
	"math/rand"
	"testing"
)

// goSourceSeeds covers Seed's normalization: zero (which math/rand maps
// to 89482311), negatives, the modulus 2³¹-1 itself (which reduces to
// zero), values above 2³¹ and the int64 extremes.
var goSourceSeeds = []int64{
	0, 89482311, 1, -1, -7919, goMod, goMod - 1, goMod + 1, 1 << 31, 1<<31 + 12345,
	1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64,
}

// TestGoSourceMatchesMathRand checks goSource against rand.NewSource
// draw for draw, past the 607-word wrap, through both Uint64 and Int63,
// for goSourceSeeds and every per-warp seed of a Table II build as
// eachWarp derives them, reseeding one goSource between seeds as
// eachWarp does.
func TestGoSourceMatchesMathRand(t *testing.T) {
	const draws = 3000
	seeds := append([]int64(nil), goSourceSeeds...)
	p := DefaultParams()
	for g := 0; g < p.NumSMs*p.WarpsPerSM; g++ {
		seeds = append(seeds, p.Seed+int64(g)*7919)
	}
	var gs goSource
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		gs.Seed(seed)
		for i := 0; i < draws; i++ {
			if got, want := gs.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, math/rand gives %#x", seed, i, got, want)
			}
		}
		ref.Seed(seed)
		gs.Seed(seed)
		for i := 0; i < draws; i++ {
			if got, want := gs.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d: Int63 draw %d = %#x, math/rand gives %#x", seed, i, got, want)
			}
		}
	}
}

// TestGoSourceThroughRand checks the rand.Rand methods the generators
// call, reseeding through rand.Rand.Seed as eachWarp does.
func TestGoSourceThroughRand(t *testing.T) {
	got := rand.New(new(goSource))
	bufGot, bufWant := make([]int, 32), make([]int, 32)
	for _, seed := range goSourceSeeds {
		want := rand.New(rand.NewSource(seed))
		got.Seed(seed)
		for i := 0; i < 400; i++ {
			for _, n := range []int{1, 3, 8, 100, 150_000, 1 << 40} {
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d, round %d: Intn(%d) = %d, math/rand gives %d", seed, i, n, g, w)
				}
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d, round %d: Float64 = %v, math/rand gives %v", seed, i, g, w)
			}
			permInto(got, bufGot)
			permInto(want, bufWant)
			for j := range bufGot {
				if bufGot[j] != bufWant[j] {
					t.Fatalf("seed %d, round %d: permInto = %v, math/rand gives %v", seed, i, bufGot, bufWant)
				}
			}
		}
	}
}
