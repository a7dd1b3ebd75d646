package blas

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveGemm is an index-by-index reference used to validate Gemm.
func naiveGemm(transA, transB byte, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	at := func(i, l int) float64 {
		if transA == Trans {
			return a[l+i*lda]
		}
		return a[i+l*lda]
	}
	bt := func(l, j int) float64 {
		if transB == Trans {
			return b[j+l*ldb]
		}
		return b[l+j*ldb]
	}
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += at(i, l) * bt(l, j)
			}
			c[i+j*ldc] = alpha*s + beta*c[i+j*ldc]
		}
	}
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestGemmAgainstNaiveAllTransposes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, ta := range []byte{NoTrans, Trans} {
		for _, tb := range []byte{NoTrans, Trans} {
			m, n, k := 7, 5, 9
			lda, ldb, ldc := 11, 12, 9
			a := randSlice(rng, lda*12)
			b := randSlice(rng, ldb*12)
			c := randSlice(rng, ldc*n)
			cRef := append([]float64(nil), c...)
			alpha, beta := 1.3, -0.7
			if err := Dgemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc); err != nil {
				t.Fatalf("ta=%c tb=%c: %v", ta, tb, err)
			}
			naiveGemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, cRef, ldc)
			if d := maxAbsDiff(c, cRef); d > 1e-12 {
				t.Errorf("ta=%c tb=%c: max diff %g", ta, tb, d)
			}
		}
	}
}

func TestGemmBetaZeroOverwritesNaN(t *testing.T) {
	// beta=0 must overwrite C even if it held NaN (BLAS semantics).
	a := []float64{1, 2, 3, 4}
	b := []float64{5, 6, 7, 8}
	c := []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}
	if err := Dgemm(NoTrans, NoTrans, 2, 2, 2, 1, a, 2, b, 2, 0, c, 2); err != nil {
		t.Fatal(err)
	}
	for i, v := range c {
		if math.IsNaN(v) {
			t.Fatalf("c[%d] still NaN", i)
		}
	}
	// Spot check: c[0] = 1*5 + 3*6 = 23 (column major).
	if c[0] != 23 {
		t.Errorf("c[0] = %v, want 23", c[0])
	}
}

func TestGemmIdentity(t *testing.T) {
	n := 6
	eye := make([]float64, n*n)
	for i := 0; i < n; i++ {
		eye[i+i*n] = 1
	}
	rng := rand.New(rand.NewSource(4))
	b := randSlice(rng, n*n)
	c := make([]float64, n*n)
	if err := Dgemm(NoTrans, NoTrans, n, n, n, 1, eye, n, b, n, 0, c, n); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(c, b); d > 1e-15 {
		t.Errorf("I*B != B, diff %g", d)
	}
}

func TestGemmDegenerateDims(t *testing.T) {
	// Zero dimensions are legal no-ops.
	if err := Dgemm(NoTrans, NoTrans, 0, 0, 0, 1, nil, 1, nil, 1, 1, nil, 1); err != nil {
		t.Errorf("zero-dim gemm: %v", err)
	}
	c := []float64{1, 2, 3, 4}
	// k=0 with beta=2: C *= 2.
	if err := Dgemm(NoTrans, NoTrans, 2, 2, 0, 1, nil, 2, nil, 2, 2, c, 2); err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 4, 6, 8}
	if d := maxAbsDiff(c, want); d != 0 {
		t.Errorf("k=0 scaling: %v", c)
	}
}

func TestGemmValidation(t *testing.T) {
	a := make([]float64, 16)
	cases := []struct {
		name string
		err  error
	}{
		{"bad transA", Dgemm('X', NoTrans, 2, 2, 2, 1, a, 4, a, 4, 0, a, 4)},
		{"bad transB", Dgemm(NoTrans, 'Q', 2, 2, 2, 1, a, 4, a, 4, 0, a, 4)},
		{"negative m", Dgemm(NoTrans, NoTrans, -1, 2, 2, 1, a, 4, a, 4, 0, a, 4)},
		{"small lda", Dgemm(NoTrans, NoTrans, 4, 2, 2, 1, a, 2, a, 4, 0, a, 4)},
		{"short A", Dgemm(NoTrans, NoTrans, 4, 4, 4, 1, a[:3], 4, a, 4, 0, a, 4)},
		{"short C", Dgemm(NoTrans, NoTrans, 4, 4, 2, 1, a[:8], 4, a[:8], 4, 0, a[:7], 4)},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: expected error", c.name)
		} else if !errors.Is(c.err, ErrShape) {
			t.Errorf("%s: error %v is not ErrShape", c.name, c.err)
		}
	}
}

func TestSgemmSinglePrecision(t *testing.T) {
	a := []float32{1, 2, 3, 4}
	b := []float32{1, 0, 0, 1}
	c := make([]float32, 4)
	if err := Sgemm(NoTrans, NoTrans, 2, 2, 2, 1, a, 2, b, 2, 0, c, 2); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if c[i] != a[i] {
			t.Fatalf("A*I: c=%v", c)
		}
	}
}

func TestAxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	if err := Daxpy(3, 2, x, 1, y, 1); err != nil {
		t.Fatal(err)
	}
	want := []float64{12, 24, 36}
	if d := maxAbsDiff(y, want); d != 0 {
		t.Errorf("axpy: %v", y)
	}
	// alpha = 0 is a no-op.
	if err := Daxpy(3, 0, x, 1, y, 1); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(y, want); d != 0 {
		t.Errorf("axpy alpha=0 changed y: %v", y)
	}
}

func TestAxpyStrided(t *testing.T) {
	x := []float64{1, 99, 2, 99, 3}
	y := []float64{10, 20, 30}
	if err := Daxpy(3, 1, x, 2, y, 1); err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 22, 33}
	if d := maxAbsDiff(y, want); d != 0 {
		t.Errorf("strided axpy: %v", y)
	}
}

func TestAxpyNegativeStride(t *testing.T) {
	// Negative incx reads x in reverse, per BLAS convention.
	x := []float64{3, 2, 1}
	y := []float64{0, 0, 0}
	if err := Daxpy(3, 1, x, -1, y, 1); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	if d := maxAbsDiff(y, want); d != 0 {
		t.Errorf("negative stride axpy: %v", y)
	}
}

func TestAxpyValidation(t *testing.T) {
	y := make([]float64, 3)
	if err := Daxpy(3, 1, []float64{1}, 1, y, 1); !errors.Is(err, ErrShape) {
		t.Error("short x should be ErrShape")
	}
	if err := Daxpy(3, 1, y, 0, y, 1); !errors.Is(err, ErrShape) {
		t.Error("zero stride should be ErrShape")
	}
	if err := Daxpy(-1, 1, y, 1, y, 1); !errors.Is(err, ErrShape) {
		t.Error("negative n should be ErrShape")
	}
}

func TestGemvAgainstGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, n := 6, 4
	a := randSlice(rng, m*n)
	x := randSlice(rng, n)
	y := randSlice(rng, m)
	yRef := append([]float64(nil), y...)
	if err := Dgemv(NoTrans, m, n, 2.0, a, m, x, 1, 0.5, y, 1); err != nil {
		t.Fatal(err)
	}
	// Same through gemm with n=1.
	if err := Dgemm(NoTrans, NoTrans, m, 1, n, 2.0, a, m, x, n, 0.5, yRef, m); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(y, yRef); d > 1e-12 {
		t.Errorf("gemv vs gemm diff %g", d)
	}
}

func TestGemvTrans(t *testing.T) {
	// A = [1 3; 2 4] stored col-major [1 2 3 4]; A^T x with x=(1,1) = (3, 7).
	a := []float64{1, 2, 3, 4}
	x := []float64{1, 1}
	y := []float64{0, 0}
	if err := Dgemv(Trans, 2, 2, 1, a, 2, x, 1, 0, y, 1); err != nil {
		t.Fatal(err)
	}
	if y[0] != 3 || y[1] != 7 {
		t.Errorf("gemv trans: %v", y)
	}
}

func TestSyrk(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n, k := 5, 3
	a := randSlice(rng, n*k)
	c := make([]float64, n*n)
	if err := Syrk[float64](NoTrans, n, k, 1, a, n, 0, c, n); err != nil {
		t.Fatal(err)
	}
	// C must be symmetric and match A*A^T.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.Abs(c[i+j*n]-c[j+i*n]) > 1e-12 {
				t.Fatalf("syrk not symmetric at (%d,%d)", i, j)
			}
		}
	}
	ref := make([]float64, n*n)
	naiveGemm(NoTrans, Trans, n, n, k, 1, a, n, a, n, 0, ref, n)
	if d := maxAbsDiff(c, ref); d > 1e-12 {
		t.Errorf("syrk vs naive diff %g", d)
	}
	// Trans variant: A^T A for k x n... here op dims swap.
	c2 := make([]float64, k*k)
	if err := Syrk[float64](Trans, k, n, 1, a, n, 0, c2, k); err != nil {
		t.Fatal(err)
	}
	ref2 := make([]float64, k*k)
	naiveGemm(Trans, NoTrans, k, k, n, 1, a, n, a, n, 0, ref2, k)
	if d := maxAbsDiff(c2, ref2); d > 1e-12 {
		t.Errorf("syrk trans vs naive diff %g", d)
	}
}

// Property: gemm is linear in alpha.
func TestGemmLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(alphaRaw float64, seed int64) bool {
		alpha := math.Mod(alphaRaw, 8)
		r := rand.New(rand.NewSource(seed))
		m, n, k := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		c1 := make([]float64, m*n)
		c2 := make([]float64, m*n)
		if Dgemm(NoTrans, NoTrans, m, n, k, alpha, a, m, b, k, 0, c1, m) != nil {
			return false
		}
		if Dgemm(NoTrans, NoTrans, m, n, k, 1, a, m, b, k, 0, c2, m) != nil {
			return false
		}
		for i := range c2 {
			c2[i] *= alpha
		}
		return maxAbsDiff(c1, c2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: (A*B)^T == B^T * A^T, exercised via the transpose flags.
func TestGemmTransposeIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n, k := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a := randSlice(r, m*k)
		b := randSlice(r, k*n)
		c := make([]float64, m*n)  // C = A*B (m x n)
		ct := make([]float64, n*m) // D = B^T*A^T (n x m), expect D = C^T
		if Dgemm(NoTrans, NoTrans, m, n, k, 1, a, m, b, k, 0, c, m) != nil {
			return false
		}
		if Dgemm(Trans, Trans, n, m, k, 1, b, k, a, m, 0, ct, n) != nil {
			return false
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(c[i+j*m]-ct[j+i*n]) > 1e-10 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDgemm256(b *testing.B) {
	n := 256
	rng := rand.New(rand.NewSource(1))
	a := randSlice(rng, n*n)
	bb := randSlice(rng, n*n)
	c := make([]float64, n*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Dgemm(NoTrans, NoTrans, n, n, n, 1, a, n, bb, n, 0, c, n)
	}
}
