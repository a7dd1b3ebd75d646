package device

import (
	"math"
	"math/rand"
	"testing"
)

// TestNoiseSourceMatchesMathRand compares noiseSource with math/rand's own
// source through rand.Rand: for each seed, each stream first draws n
// numbers under another seed (leaving stale state words behind), is
// reseeded, and must then give identical Int63, Uint64 and NormFloat64
// sequences. The draw counts straddle the tap (273), the last draw that
// builds a word (334) and the register length (607).
func TestNoiseSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 42, 89482311, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1 << 40, -(1 << 40), math.MinInt64}
	for _, seed := range seeds {
		for _, n := range []int{0, 1, 272, 273, 274, 333, 334, 335, 606, 607, 5000} {
			want := rand.New(rand.NewSource(seed + 7))
			got := rand.New(newNoiseSource(seed + 7))
			for i := 0; i < n; i++ {
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("seed %d: pre-reseed draw %d: Uint64 %#x, want %#x", seed+7, i, g, w)
				}
			}
			want.Seed(seed)
			got.Seed(seed)
			for i := 0; i < 3000; i++ {
				switch i % 3 {
				case 0:
					if w, g := want.Int63(), got.Int63(); w != g {
						t.Fatalf("seed %d after %d draws: draw %d: Int63 %d, want %d", seed, n, i, g, w)
					}
				case 1:
					if w, g := want.Uint64(), got.Uint64(); w != g {
						t.Fatalf("seed %d after %d draws: draw %d: Uint64 %#x, want %#x", seed, n, i, g, w)
					}
				default:
					if w, g := want.NormFloat64(), got.NormFloat64(); math.Float64bits(w) != math.Float64bits(g) {
						t.Fatalf("seed %d after %d draws: draw %d: NormFloat64 %v, want %v", seed, n, i, g, w)
					}
				}
			}
		}
	}
}

// TestNoiseSourceBuildsOnDemand pins the cost model: Seed builds no word,
// and a stream that draws n ≤ 273 numbers builds 2n of them.
func TestNoiseSourceBuildsOnDemand(t *testing.T) {
	s := newNoiseSource(1)
	for i := 0; i < 50; i++ {
		s.Uint64()
	}
	built := 0
	for _, w := range s.vec {
		if w != 0 {
			built++
		}
	}
	if built != 100 {
		t.Errorf("50 draws built %d words, want 100", built)
	}
}

func BenchmarkNoise(b *testing.B) {
	for _, src := range []struct {
		name string
		new  func(int64) rand.Source
	}{
		{"mathrand", rand.NewSource},
		{"noise", func(seed int64) rand.Source { return newNoiseSource(seed) }},
	} {
		r := rand.New(src.new(1))
		b.Run("Seed/"+src.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.Seed(int64(i))
			}
		})
		r.Seed(1)
		for i := 0; i < rngLen; i++ {
			r.Uint64()
		}
		b.Run("Uint64/"+src.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.Uint64()
			}
		})
		b.Run("NormFloat64/"+src.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r.NormFloat64()
			}
		})
	}
}
