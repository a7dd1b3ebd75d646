package blas

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"cocopelia/internal/parallel"
)

// gemmGFLOPs reports the achieved GFLOP/s for b.N square-n GEMMs.
func gemmGFLOPs(b *testing.B, n int) {
	b.Helper()
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func benchSquareDgemm(b *testing.B, n int, run func(a, bm, c []float64)) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	a := randSlice(rng, n*n)
	bm := randSlice(rng, n*n)
	c := make([]float64, n*n)
	run(a, bm, c) // warm up packing buffers so steady state is measured
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(a, bm, c)
	}
	gemmGFLOPs(b, n)
}

// BenchmarkDgemm measures the blocked engine, single worker, at the
// paper's tiling-relevant sizes (T = 256..2048). The n=1024 case is the
// PR acceptance gate against BenchmarkDgemmNaive.
func BenchmarkDgemm(b *testing.B) {
	for _, n := range []int{256, 512, 1024, 2048} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchSquareDgemm(b, n, func(a, bm, c []float64) {
				_ = Dgemm(NoTrans, NoTrans, n, n, n, 1, a, n, bm, n, 0, c, n)
			})
		})
	}
}

// BenchmarkDgemmNaive is the pre-engine reference loop at the acceptance
// size, kept for before/after comparisons.
func BenchmarkDgemmNaive(b *testing.B) {
	n := 1024
	benchSquareDgemm(b, n, func(a, bm, c []float64) {
		_ = GemmNaive(NoTrans, NoTrans, n, n, n, 1, a, n, bm, n, 0, c, n)
	})
}

// BenchmarkDgemmParallel measures the engine fanned out over a worker
// pool (results stay bitwise identical to the serial run).
func BenchmarkDgemmParallel(b *testing.B) {
	pool := parallel.NewPool(runtime.GOMAXPROCS(0))
	for _, n := range []int{1024, 2048} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchSquareDgemm(b, n, func(a, bm, c []float64) {
				_ = GemmParallel(pool, NoTrans, NoTrans, n, n, n, 1, a, n, bm, n, 0, c, n)
			})
		})
	}
}

// BenchmarkDgemmTrans exercises the packing paths that normalize
// transposed operands into the same streaming layout.
func BenchmarkDgemmTrans(b *testing.B) {
	n := 512
	for _, tt := range []struct{ ta, tb byte }{{Trans, NoTrans}, {NoTrans, Trans}, {Trans, Trans}} {
		b.Run(fmt.Sprintf("%c%c", tt.ta, tt.tb), func(b *testing.B) {
			benchSquareDgemm(b, n, func(a, bm, c []float64) {
				_ = Dgemm(tt.ta, tt.tb, n, n, n, 1, a, n, bm, n, 0, c, n)
			})
		})
	}
}

// BenchmarkSgemm measures the float32 path (portable micro-kernel).
func BenchmarkSgemm(b *testing.B) {
	n := 512
	rng := rand.New(rand.NewSource(1))
	a := make([]float32, n*n)
	bm := make([]float32, n*n)
	c := make([]float32, n*n)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
		bm[i] = float32(rng.NormFloat64())
	}
	_ = Sgemm(NoTrans, NoTrans, n, n, n, 1, a, n, bm, n, 0, c, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Sgemm(NoTrans, NoTrans, n, n, n, 1, a, n, bm, n, 0, c, n)
	}
	gemmGFLOPs(b, n)
}

// benchTriangular times b.N runs of call on a fresh copy of src (restored
// outside the timer, so repeated solves never drift into denormals) and
// reports GFLOP/s for flops per call.
func benchTriangular[F Float](b *testing.B, flops float64, src []F, call func(work []F)) {
	b.Helper()
	work := append([]F(nil), src...)
	call(work) // warm up the pooled buffers so steady state is measured
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(work, src)
		b.StartTimer()
		call(work)
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// triangularImpls pairs each packed kernel with its unblocked oracle
// (ref_test.go), so one run shows the layer-level before/after.
var triangularImpls = []string{"packed", "ref"}

// BenchmarkTrsm measures square solves (n^3 flops) at the paper's tile
// sizes for a forward (LLNN) and a transposed right-side (RLTN) variant,
// in float64 and (sub-benchmarks suffixed -f32) float32. Both variants
// are forward substitutions, so the float64 ones run left-looking blocks
// on the exact GEMM kernel and the float32 ones one block (blockWidth).
func BenchmarkTrsm(b *testing.B) {
	for _, v := range []struct{ side, uplo, trans byte }{{Left, Lower, NoTrans}, {Right, Lower, Trans}} {
		for _, n := range []int{256, 512} {
			benchTrsm[float64](b, v.side, v.uplo, v.trans, n, "")
			benchTrsm[float32](b, v.side, v.uplo, v.trans, n, "-f32")
		}
	}
}

func benchTrsm[F Float](b *testing.B, side, uplo, trans byte, n int, suffix string) {
	rng := rand.New(rand.NewSource(1))
	a, _, bm, _ := trsmOperands[F](triCase{side: side, uplo: uplo, m: n, n: n}, rng)
	for _, impl := range triangularImpls {
		solve := Trsm[F]
		if impl == "ref" {
			solve = trsmRef[F]
		}
		b.Run(fmt.Sprintf("%c%c%cN/n=%d/%s%s", side, uplo, trans, n, impl, suffix), func(b *testing.B) {
			benchTriangular(b, float64(n)*float64(n)*float64(n), bm, func(w []F) {
				_ = solve(side, uplo, trans, NonUnit, n, n, 1, a, n, w, n)
			})
		})
	}
}

// BenchmarkPotrf measures lower Cholesky (n^3/3 flops).
func BenchmarkPotrf(b *testing.B) {
	for _, n := range []int{256, 512} {
		a, _ := spdOperand[float64](Lower, n, 0, rand.New(rand.NewSource(1)))
		for _, impl := range triangularImpls {
			factor := Potrf[float64]
			if impl == "ref" {
				factor = potrfRef[float64]
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, impl), func(b *testing.B) {
				benchTriangular(b, float64(n)*float64(n)*float64(n)/3, a, func(w []float64) {
					_ = factor(Lower, n, w, n)
				})
			})
		}
	}
}

// BenchmarkGetrf measures unpivoted LU (2n^3/3 flops).
func BenchmarkGetrf(b *testing.B) {
	for _, n := range []int{256, 512} {
		a, _ := luOperand[float64](n, 0, rand.New(rand.NewSource(1)))
		for _, impl := range triangularImpls {
			factor := Getrf[float64]
			if impl == "ref" {
				factor = getrfRef[float64]
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, impl), func(b *testing.B) {
				benchTriangular(b, 2*float64(n)*float64(n)*float64(n)/3, a, func(w []float64) {
					_ = factor(n, w, n)
				})
			})
		}
	}
}
