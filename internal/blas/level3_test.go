package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// trsmCase runs one trsm and validates it by multiplying back.
func trsmCase(t *testing.T, side, uplo, transA, diag byte, m, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	na := m
	if side == Right {
		na = n
	}
	// Build a well-conditioned triangular A: dominant diagonal.
	a := make([]float64, na*na)
	for j := 0; j < na; j++ {
		for i := 0; i < na; i++ {
			if (uplo == Upper && i <= j) || (uplo == Lower && i >= j) {
				a[i+j*na] = rng.NormFloat64() * 0.3
			}
			if i == j {
				a[i+j*na] = 2 + rng.Float64()
			}
		}
	}
	bOrig := randSlice(rng, m*n)
	x := append([]float64(nil), bOrig...)
	alpha := 1.7
	if err := Trsm(side, uplo, transA, diag, m, n, alpha, a, na, x, m); err != nil {
		t.Fatalf("trsm(%c%c%c%c): %v", side, uplo, transA, diag, err)
	}
	// Reconstruct op(A)*X (or X*op(A)) and compare against alpha*B.
	full := make([]float64, na*na)
	copy(full, a)
	if diag == Unit {
		for i := 0; i < na; i++ {
			full[i+i*na] = 1
		}
	}
	check := make([]float64, m*n)
	var err error
	if side == Left {
		err = Dgemm(transA, NoTrans, m, n, m, 1, full, na, x, m, 0, check, m)
	} else {
		err = Dgemm(NoTrans, transA, m, n, n, 1, x, m, full, na, 0, check, m)
	}
	if err != nil {
		t.Fatal(err)
	}
	for i := range check {
		if math.Abs(check[i]-alpha*bOrig[i]) > 1e-9 {
			t.Fatalf("trsm(%c%c%c%c): residual %g at %d",
				side, uplo, transA, diag, check[i]-alpha*bOrig[i], i)
		}
	}
}

func TestTrsmAllVariants(t *testing.T) {
	seed := int64(0)
	for _, side := range []byte{Left, Right} {
		for _, uplo := range []byte{Upper, Lower} {
			for _, trans := range []byte{NoTrans, Trans} {
				for _, diag := range []byte{NonUnit, Unit} {
					seed++
					trsmCase(t, side, uplo, trans, diag, 7, 5, seed)
				}
			}
		}
	}
}

func TestTrsmValidation(t *testing.T) {
	a := make([]float64, 16)
	if err := Trsm('X', Upper, NoTrans, NonUnit, 2, 2, 1, a, 4, a, 4); err == nil {
		t.Error("bad side should error")
	}
	if err := Trsm(Left, 'X', NoTrans, NonUnit, 2, 2, 1, a, 4, a, 4); err == nil {
		t.Error("bad uplo should error")
	}
	if err := Trsm(Left, Upper, 'Q', NonUnit, 2, 2, 1, a, 4, a, 4); err == nil {
		t.Error("bad trans should error")
	}
	if err := Trsm(Left, Upper, NoTrans, 'Q', 2, 2, 1, a, 4, a, 4); err == nil {
		t.Error("bad diag should error")
	}
	if err := Trsm(Left, Upper, NoTrans, NonUnit, 8, 2, 1, a, 4, a, 8); err == nil {
		t.Error("short A should error")
	}
}

// Property: trsm(alpha=1) then multiplying back recovers B for random
// well-conditioned systems.
func TestTrsmRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := make([]float64, n*n)
		for j := 0; j < n; j++ {
			for i := 0; i <= j; i++ {
				a[i+j*n] = rng.NormFloat64() * 0.2
			}
			a[j+j*n] = 1.5 + rng.Float64()
		}
		b := randSlice(rng, n)
		x := append([]float64(nil), b...)
		if Trsm(Left, Upper, NoTrans, NonUnit, n, 1, 1, a, n, x, n) != nil {
			return false
		}
		// Check A*x == b.
		for i := 0; i < n; i++ {
			s := 0.0
			for l := i; l < n; l++ {
				s += a[i+l*n] * x[l]
			}
			if math.Abs(s-b[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
