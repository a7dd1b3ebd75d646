package blas

import (
	"math/rand"
	"testing"
)

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
