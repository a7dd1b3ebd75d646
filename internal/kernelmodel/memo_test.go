package kernelmodel

import (
	"math"
	"testing"

	"cocopelia/internal/machine"
)

// direct evaluates a shape through the per-routine model functions, the
// reference the memo must reproduce bit for bit.
func direct(g *machine.GPUSpec, s Shape) float64 {
	switch s.Kind {
	case KindGemm:
		return GemmTime(g, s.Dtype, s.M, s.N, s.K)
	case KindGemv:
		return GemvTime(g, s.Dtype, s.M, s.N)
	case KindAxpy:
		return AxpyTime(g, s.Dtype, s.N)
	case KindPotrf:
		return PotrfTime(g, s.Dtype, s.N)
	case KindGetrf:
		return GetrfTime(g, s.Dtype, s.N)
	case KindTrsm:
		return TrsmTime(g, s.Dtype, s.Side, s.M, s.N)
	case KindSyrk:
		return SyrkTime(g, s.Dtype, s.N, s.K)
	}
	panic("unknown kind")
}

// memoShapes covers every kind, both dtypes and both trsm sides, with tile,
// edge and degenerate dims, dims at and above 2^20, and shape pairs a
// packed integer key would alias: gemm (1, 2^21+1, 1) and (2, 1, 1) share
// a 21-bit packing, and so do (0, 2^20, 0) and (1, 0, 0) at 20 bits.
func memoShapes() []Shape {
	dims := [][3]int{
		{256, 256, 256}, {1024, 512, 256}, {100, 7, 3}, {0, 0, 0}, {1, 1, 1},
		{1 << 20, 3, 5}, {3, 1<<20 + 1, 7}, {1 << 21, 1 << 21, 2},
		{1, 1<<21 + 1, 1}, {2, 1, 1}, {0, 1 << 20, 0}, {1, 0, 0},
	}
	var out []Shape
	for _, dt := range []Dtype{F64, F32} {
		for _, d := range dims {
			m, n, k := d[0], d[1], d[2]
			out = append(out,
				Shape{Kind: KindGemm, Dtype: dt, M: m, N: n, K: k},
				Shape{Kind: KindGemv, Dtype: dt, M: m, N: n},
				Shape{Kind: KindAxpy, Dtype: dt, N: n},
				Shape{Kind: KindPotrf, Dtype: dt, N: n},
				Shape{Kind: KindGetrf, Dtype: dt, N: n},
				Shape{Kind: KindTrsm, Dtype: dt, Side: 'L', M: m, N: n},
				Shape{Kind: KindTrsm, Dtype: dt, Side: 'R', M: m, N: n},
				Shape{Kind: KindSyrk, Dtype: dt, N: n, K: k},
			)
		}
	}
	return out
}

func TestMemoMatchesModelBitwise(t *testing.T) {
	shapes := memoShapes()
	var memo Memo
	// Two passes per GPU: the first fills the memo, the second (in reverse,
	// so the last-shape fast path and the map are both exercised) reads it.
	for _, g := range []*machine.GPUSpec{gpuI(), gpuII(), gpuI()} {
		for pass := 0; pass < 2; pass++ {
			for i := range shapes {
				s := shapes[i]
				if pass == 1 {
					s = shapes[len(shapes)-1-i]
				}
				want := direct(g, s)
				if got := memo.Time(g, s); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s pass %d %+v: memo %v, model %v", g.Name, pass, s, got, want)
				}
				if got := s.Time(g); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %+v: Shape.Time %v, model %v", g.Name, s, got, want)
				}
			}
		}
	}
}

// TestMemoKeepsAliasingShapesApart pins the pair a packed 21-bit key maps
// to one entry: both must keep their own duration in one memo.
func TestMemoKeepsAliasingShapesApart(t *testing.T) {
	g := gpuII()
	a := Shape{Kind: KindGemm, Dtype: F64, M: 1, N: 1<<21 + 1, K: 1}
	b := Shape{Kind: KindGemm, Dtype: F64, M: 2, N: 1, K: 1}
	if GemmTime(g, F64, a.M, a.N, a.K) == GemmTime(g, F64, b.M, b.N, b.K) {
		t.Fatal("test shapes have equal durations; they cannot detect aliasing")
	}
	var memo Memo
	for i := 0; i < 3; i++ {
		for _, s := range []Shape{a, b} {
			if got, want := memo.Time(g, s), direct(g, s); got != want {
				t.Fatalf("round %d %+v: memo %v, model %v", i, s, got, want)
			}
		}
	}
}

// TestShapeTimeDispatch pins Shape.Time as the one kernel dispatcher:
// every kind yields a positive, finite duration for a tile shape, and the
// zero Shape names no kernel.
func TestShapeTimeDispatch(t *testing.T) {
	g := gpuI()
	for _, s := range []Shape{
		{Kind: KindGemm, Dtype: F64, M: 128, N: 128, K: 128},
		{Kind: KindGemv, Dtype: F64, M: 128, N: 128},
		{Kind: KindAxpy, Dtype: F64, N: 1024},
		{Kind: KindPotrf, Dtype: F64, N: 128},
		{Kind: KindGetrf, Dtype: F64, N: 128},
		{Kind: KindTrsm, Dtype: F64, Side: 'L', M: 128, N: 128},
		{Kind: KindSyrk, Dtype: F64, N: 128, K: 128},
	} {
		if v := s.Time(g); !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("%+v: duration %g, want positive and finite", s, v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("the zero Shape should name no kernel")
		}
	}()
	Shape{}.Time(g)
}
