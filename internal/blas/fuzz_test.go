package blas

import (
	"math"
	"math/rand"
	"testing"

	"cocopelia/internal/parallel"
)

// Fuzz targets for the fused kernels: random geometry and coefficients,
// checked against the exact oracle within the k-scaled ULP bound and for
// bitwise identity across worker counts. `go test -fuzz=FuzzGemmFMA64`
// explores beyond the seeded corpus; a plain `go test` run replays the
// seeds as regression cases.

func fuzzGeometry(seed int64) (gc gemmCase, rng *rand.Rand) {
	rng = rand.New(rand.NewSource(seed))
	gc = gemmCase{
		ta: NoTrans, tb: NoTrans,
		m: 1 + rng.Intn(70), n: 1 + rng.Intn(70), k: rng.Intn(70),
		padA: rng.Intn(3), padB: rng.Intn(3), padC: rng.Intn(3),
	}
	if rng.Intn(2) == 1 {
		gc.ta = Trans
	}
	if rng.Intn(2) == 1 {
		gc.tb = Trans
	}
	coeffs := []float64{0, 1, -1, 0.5, -2.25, 3}
	gc.alpha = coeffs[rng.Intn(len(coeffs))]
	gc.beta = coeffs[rng.Intn(len(coeffs))]
	return gc, rng
}

func FuzzGemmFMA64(f *testing.F) {
	if !registeredFMA(registered64) {
		f.Skip("no fused float64 kernel on this host")
	}
	for _, seed := range []int64{1, 7, 42, 9001, -3} {
		f.Add(seed)
	}
	pools := []*parallel.Pool{parallel.NewPool(2), parallel.NewPool(8)}
	f.Fuzz(func(t *testing.T, seed int64) {
		gc, _ := fuzzGeometry(seed)
		runFMACase64(t, gc, pools)
	})
}

func FuzzGemmFMA32(f *testing.F) {
	if !registeredFMA(registered32) {
		f.Skip("no fused float32 kernel on this host")
	}
	for _, seed := range []int64{2, 11, 77, 1234} {
		f.Add(seed)
	}
	pool := parallel.NewPool(4)
	f.Fuzz(func(t *testing.T, seed int64) {
		gc, rng := fuzzGeometry(seed)
		aRows, aCols := gc.m, gc.k
		if gc.ta == Trans {
			aRows, aCols = gc.k, gc.m
		}
		bRows, bCols := gc.k, gc.n
		if gc.tb == Trans {
			bRows, bCols = gc.n, gc.k
		}
		lda, ldb, ldc := max(1, aRows+gc.padA), max(1, bRows+gc.padB), gc.m+gc.padC
		alpha, beta := float32(gc.alpha), float32(gc.beta)
		a := make([]float32, max(1, lda*aCols))
		b := make([]float32, max(1, ldb*bCols))
		c0 := make([]float32, ldc*gc.n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
		}
		for i := range b {
			b[i] = float32(rng.NormFloat64())
		}
		for i := range c0 {
			c0[i] = float32(rng.NormFloat64())
		}
		ref := append([]float32(nil), c0...)
		if err := GemmNaive(gc.ta, gc.tb, gc.m, gc.n, gc.k, alpha, a, lda, b, ldb, beta, ref, ldc); err != nil {
			t.Fatal(err)
		}
		absv := func(x []float32) []float32 {
			y := make([]float32, len(x))
			for i, v := range x {
				y[i] = float32(math.Abs(float64(v)))
			}
			return y
		}
		mag := absv(c0)
		if err := GemmNaive(gc.ta, gc.tb, gc.m, gc.n, gc.k, float32(math.Abs(float64(alpha))),
			absv(a), lda, absv(b), ldb, float32(math.Abs(float64(beta))), mag, ldc); err != nil {
			t.Fatal(err)
		}
		got := append([]float32(nil), c0...)
		if err := GemmPolicy(KernelFMA, gc.ta, gc.tb, gc.m, gc.n, gc.k, alpha, a, lda, b, ldb, beta, got, ldc); err != nil {
			t.Fatal(err)
		}
		bound := 4 * float64(gc.k+2) * 0x1p-23
		for i := range got {
			if diff := math.Abs(float64(got[i]) - float64(ref[i])); diff > bound*float64(mag[i]) {
				t.Fatalf("%s: element %d outside ULP bound: got %v, oracle %v", gc.name(), i, got[i], ref[i])
			}
		}
		cw := append([]float32(nil), c0...)
		if err := GemmParallelPolicy(pool, KernelFMA, gc.ta, gc.tb, gc.m, gc.n, gc.k, alpha, a, lda, b, ldb, beta, cw, ldc); err != nil {
			t.Fatal(err)
		}
		if i := bitsEqual32(cw, got); i >= 0 {
			t.Fatalf("%s: fma float32 not bitwise identical across workers (element %d)", gc.name(), i)
		}
	})
}

// FuzzTrsm draws a random Trsm variant, geometry, padding and alpha and
// requires Float64bits identity with the unblocked oracle, in both
// precisions.
func FuzzTrsm(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 9001, -3} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		pick := func(opts ...byte) byte { return opts[rng.Intn(len(opts))] }
		tc := triCase{
			side: pick(Left, Right), uplo: pick(Upper, Lower),
			trans: pick(NoTrans, Trans), diag: pick(NonUnit, Unit),
			m: 1 + rng.Intn(70), n: 1 + rng.Intn(70),
			padA: rng.Intn(3), padB: rng.Intn(3),
			alpha: []float64{1, 0.75, 0, -2.5}[rng.Intn(4)],
		}
		runTrsmCase[float64](t, tc, seed)
		runTrsmCase[float32](t, tc, seed)
	})
}

// FuzzPotrf draws a random order, triangle and padding, and half the time
// breaks positive definiteness at a random minor; the error and the
// (partially) factored matrix must match the oracle bit for bit.
func FuzzPotrf(f *testing.F) {
	for _, seed := range []int64{2, 11, 77, 1234} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		uplo := []byte{Lower, Upper}[rng.Intn(2)]
		n, pad := 1+rng.Intn(70), rng.Intn(3)
		a, lda := spdOperand[float64](uplo, n, pad, rng)
		if rng.Intn(2) == 1 {
			j := rng.Intn(n)
			a[j+j*lda] = -a[j+j*lda]
		}
		a32 := make([]float32, len(a))
		for i, v := range a {
			a32[i] = float32(v)
		}
		checkFactor(t, "potrf", a,
			func(x []float64) error { return Potrf(uplo, n, x, lda) },
			func(x []float64) error { return potrfRef(uplo, n, x, lda) })
		checkFactor(t, "potrf", a32,
			func(x []float32) error { return Potrf(uplo, n, x, lda) },
			func(x []float32) error { return potrfRef(uplo, n, x, lda) })
	})
}
