package blas

import (
	"math/rand"
	"testing"
)

// TestSelectedKernelNames pins the kernel choice: float64 runs the
// AVX-512 kernel wherever ZMM state exists, else the AVX kernel wherever
// YMM state exists, else the portable one; float32 and named float types
// always run the portable kernel.
func TestSelectedKernelNames(t *testing.T) {
	want := "generic"
	switch {
	case hasAVX512():
		want = "avx512"
	case hasAVX():
		want = "avx"
	}
	if got := SelectedKernel[float64](); got != want {
		t.Errorf("float64 kernel %q, want %q", got, want)
	}
	type myFloat float64
	for name, got := range map[string]string{
		"float32": SelectedKernel[float32](),
		"myFloat": SelectedKernel[myFloat](),
	} {
		if got != "generic" {
			t.Errorf("%s kernel %q, want generic", name, got)
		}
	}
}

// TestGemmDispatchAllocs extends the steady-state zero-alloc gate to the
// kernel dispatch of both element types: the native float64 kernel and
// the portable float32 one.
func TestGemmDispatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool randomly drops Puts, so the packing buffers cannot pin 0 allocs")
	}
	n := 160
	rng := rand.New(rand.NewSource(13))
	a := randSlice(rng, n*n)
	b := randSlice(rng, n*n)
	c := make([]float64, n*n)
	a32, b32, c32 := make([]float32, n*n), make([]float32, n*n), make([]float32, n*n)
	for i := range a {
		a32[i], b32[i] = float32(a[i]), float32(b[i])
	}
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"float64", func() { _ = Gemm(NoTrans, NoTrans, n, n, n, 1, a, n, b, n, 0, c, n) }},
		{"float32", func() { _ = Gemm(NoTrans, NoTrans, n, n, n, 1, a32, n, b32, n, 0, c32, n) }},
	} {
		tc.call()
		if allocs := testing.AllocsPerRun(5, tc.call); allocs > 0 {
			t.Errorf("steady-state %s Gemm allocates %.1f objects/op, want 0", tc.name, allocs)
		}
	}
}
