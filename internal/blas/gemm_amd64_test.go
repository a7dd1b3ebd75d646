//go:build amd64

package blas

import (
	"math"
	"math/rand"
	"testing"
)

// TestExactKernelsMatchPortable drives each native float64 micro-kernel
// this host can run directly on packed panels, including the 4x4 AVX
// kernel that the AVX-512 one shadows in Gemm, against the portable Go
// kernels: microKernelTail over the full tile, plus microKernel4x4 for
// 4x4 tiles. Ragged tiles use zero-padded panels as packA/packB build
// them; the native kernel writes its full tile to scratch and the valid
// corner must match the tail kernel's. No tolerance: every kernel is
// bitwise exact.
func TestExactKernelsMatchPortable(t *testing.T) {
	var kernels []kernelSel
	if hasAVX512() {
		kernels = append(kernels, kernelSel{name: "avx512", mr: 16, nr: 4, f64: dgemmKernel16x4AVX512Exact})
	}
	if hasAVX() {
		kernels = append(kernels, kernelSel{name: "avx", mr: 4, nr: 4, f64: dgemmKernel4x4AVX})
	}
	if len(kernels) == 0 {
		t.Skip("no AVX on this host")
	}
	for _, k := range kernels {
		rng := rand.New(rand.NewSource(int64(k.mr*100 + k.nr)))
		for _, kc := range []int{1, 2, 3, 7, gemmKC} {
			for _, mr := range []int{k.mr, k.mr - 1, 1} {
				for _, nr := range []int{k.nr, k.nr - 1, 1} {
					exactKernelCase(t, k, rng, kc, mr, nr)
				}
			}
		}
	}
}

// exactKernelCase checks one (kc, mr, nr) tile of kernel k: panels are
// packed k.mr x k.nr wide with rows >= mr and columns >= nr zero.
func exactKernelCase(t *testing.T, k kernelSel, rng *rand.Rand, kc, mr, nr int) {
	t.Helper()
	mrK, nrK := k.mr, k.nr
	ap := make([]float64, mrK*kc)
	bp := make([]float64, nrK*kc)
	for l := 0; l < kc; l++ {
		for i := 0; i < mr; i++ {
			ap[l*mrK+i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(20)-10)
		}
		for j := 0; j < nr; j++ {
			bp[l*nrK+j] = rng.NormFloat64()
		}
	}
	ldc := mrK + 3
	c0 := randSlice(rng, ldc*nrK)
	want := append([]float64(nil), c0...)
	microKernelTail(kc, mr, nr, mrK, nrK, ap, bp, want, ldc)
	if mr == 4 && nr == 4 && mrK == 4 && nrK == 4 {
		want4 := append([]float64(nil), c0...)
		microKernel4x4(kc, ap, bp, want4, ldc)
		if i := bitsEqual64(want4, want); i >= 0 {
			t.Fatalf("portable kernels disagree at kc=%d element %d", kc, i)
		}
	}
	got := append([]float64(nil), c0...)
	k.f64(kc, &ap[0], &bp[0], &got[0], ldc)
	for j := 0; j < nr; j++ {
		for i := 0; i < mr; i++ {
			if g, w := got[i+j*ldc], want[i+j*ldc]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s kc=%d tile %dx%d: c[%d,%d] = %v, portable kernel %v", k.name, kc, mr, nr, i, j, g, w)
			}
		}
	}
}
