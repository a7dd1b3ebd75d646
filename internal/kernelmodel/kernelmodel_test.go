package kernelmodel

import (
	"math"
	"testing"
	"testing/quick"

	"cocopelia/internal/machine"
)

func gpuI() *machine.GPUSpec  { return &machine.TestbedI().GPU }
func gpuII() *machine.GPUSpec { return &machine.TestbedII().GPU }

func TestDtype(t *testing.T) {
	if F64.Size() != 8 || F32.Size() != 4 {
		t.Error("dtype sizes wrong")
	}
	if F64.String() != "f64" || F32.String() != "f32" {
		t.Error("dtype names wrong")
	}
}

func TestGemmTimeMonotoneInSize(t *testing.T) {
	g := gpuII()
	prev := 0.0
	for _, T := range []int{256, 512, 1024, 2048, 4096, 8192} {
		tt := GemmTime(g, F64, T, T, T)
		if tt <= prev {
			t.Errorf("gemm time not increasing at T=%d: %g <= %g", T, tt, prev)
		}
		prev = tt
	}
}

// gflops converts an m x n x k gemm time to GFLOP/s.
func gflops(m, n, k int, seconds float64) float64 {
	return 2 * float64(m) * float64(n) * float64(k) / seconds / 1e9
}

func TestGemmEfficiencyImprovesWithSize(t *testing.T) {
	// GFLOP/s should rise with tile size (GPU underutilization for small
	// tiles) and approach but not exceed peak*maxEff.
	for _, g := range []*machine.GPUSpec{gpuI(), gpuII()} {
		small := gflops(256, 256, 256, GemmTime(g, F64, 256, 256, 256))
		large := gflops(8192, 8192, 8192, GemmTime(g, F64, 8192, 8192, 8192))
		if small >= large {
			t.Errorf("%s: small tile %g GF/s >= large tile %g GF/s", g.Name, small, large)
		}
		ceiling := g.PeakFlops64 / 1e9 * g.MaxEff64 * (1 + g.SpikeAmp)
		if large > ceiling {
			t.Errorf("%s: %g GF/s exceeds efficiency ceiling %g", g.Name, large, ceiling)
		}
		if large < 0.75*g.PeakFlops64/1e9 {
			t.Errorf("%s: large gemm only %g GF/s, unrealistically low", g.Name, large)
		}
	}
}

func TestGemmDoublePrecisionSlower(t *testing.T) {
	g := gpuII()
	d := GemmTime(g, F64, 4096, 4096, 4096)
	s := GemmTime(g, F32, 4096, 4096, 4096)
	if s >= d {
		t.Errorf("sgemm (%g) should be faster than dgemm (%g)", s, d)
	}
}

func TestGemmShapeSensitivity(t *testing.T) {
	// Same FLOP count, thin K: must be slower than square (higher
	// byte/FLOP, reduction-heavy shape). 2048^3 == (8192, 8192, 128).
	g := gpuI()
	square := GemmTime(g, F64, 2048, 2048, 2048)
	thin := GemmTime(g, F64, 8192, 8192, 128)
	if thin <= square {
		t.Errorf("thin-K gemm (%g) should be slower than square (%g)", thin, square)
	}
}

func TestGemmLaunchOverheadDominatesTiny(t *testing.T) {
	g := gpuII()
	tt := GemmTime(g, F64, 8, 8, 8)
	if tt < g.KernelLaunchS {
		t.Errorf("tiny kernel %g below launch overhead %g", tt, g.KernelLaunchS)
	}
	if tt > 10*g.KernelLaunchS {
		t.Errorf("tiny kernel %g should be launch-dominated", tt)
	}
}

func TestGemmDegenerateDims(t *testing.T) {
	g := gpuI()
	if GemmTime(g, F64, 0, 128, 128) != g.KernelLaunchS {
		t.Error("zero-dim gemm should cost exactly the launch")
	}
	if GemmTime(g, F64, -1, 128, 128) != g.KernelLaunchS {
		t.Error("negative-dim gemm should cost exactly the launch")
	}
}

func TestSpikesLargerOnTestbedII(t *testing.T) {
	// Measure the relative spread of efficiency across neighbouring sizes;
	// the V100-like device must show larger per-size perturbations.
	spread := func(g *machine.GPUSpec) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for T := 2048; T <= 4096; T += 128 {
			gf := gflops(T, T, T, GemmTime(g, F64, T, T, T))
			eff := gf * 1e9 / g.PeakFlops64
			lo = math.Min(lo, eff)
			hi = math.Max(hi, eff)
		}
		return (hi - lo) / lo
	}
	if spread(gpuII()) <= spread(gpuI()) {
		t.Errorf("Testbed II spike spread (%g) should exceed Testbed I (%g)",
			spread(gpuII()), spread(gpuI()))
	}
}

func TestSpikeDeterminism(t *testing.T) {
	g := gpuII()
	a := GemmTime(g, F64, 3000, 3000, 3000)
	b := GemmTime(g, F64, 3000, 3000, 3000)
	if a != b {
		t.Error("kernel model must be deterministic per size")
	}
}

func TestAxpyBandwidthBound(t *testing.T) {
	g := gpuII()
	n := 64 << 20
	tt := AxpyTime(g, F64, n)
	ideal := float64(3*8*n) / g.MemBandwidthBps
	if tt < ideal {
		t.Errorf("axpy %g faster than memory-bandwidth ideal %g", tt, ideal)
	}
	if tt > 2*ideal {
		t.Errorf("large axpy %g should be near bandwidth ideal %g", tt, ideal)
	}
	if AxpyTime(g, F64, 0) != g.KernelLaunchS {
		t.Error("empty axpy should cost the launch")
	}
}

func TestLevel1And2Monotone(t *testing.T) {
	g := gpuI()
	for _, fn := range []func(int) float64{
		func(n int) float64 { return AxpyTime(g, F64, n) },
		func(n int) float64 { return GemvTime(g, F64, n, n) },
	} {
		prev := 0.0
		for _, n := range []int{1 << 10, 1 << 14, 1 << 18, 1 << 22} {
			v := fn(n)
			if v <= prev {
				t.Errorf("time not increasing at n=%d", n)
			}
			prev = v
		}
	}
	if GemvTime(g, F64, 0, 5) != g.KernelLaunchS {
		t.Error("degenerate level-1/2 kernels should cost the launch")
	}
}

func TestHash01Range(t *testing.T) {
	f := func(a, b, c int64) bool {
		v := hash01(a, b, c)
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: kernel times are always strictly positive and finite.
func TestTimesFiniteProperty(t *testing.T) {
	g := gpuII()
	f := func(m, n, k uint16) bool {
		tt := GemmTime(g, F64, int(m), int(n), int(k))
		return tt > 0 && !math.IsInf(tt, 0) && !math.IsNaN(tt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
