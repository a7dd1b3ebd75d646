package sched

import (
	"math/rand"
	"testing"

	"cocopelia/internal/blas"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/model"
)

// TestGemmAllTransposeCombos verifies the tiled scheduler against the
// reference BLAS for every transpose-flag combination, with ragged tiles.
func TestGemmAllTransposeCombos(t *testing.T) {
	m, n, k, T := 70, 45, 53, 32
	rng := rand.New(rand.NewSource(41))
	for _, ta := range []byte{blas.NoTrans, blas.Trans} {
		for _, tb := range []byte{blas.NoTrans, blas.Trans} {
			c := newCtx(true)
			aRows, aCols := m, k
			if ta == blas.Trans {
				aRows, aCols = k, m
			}
			bRows, bCols := k, n
			if tb == blas.Trans {
				bRows, bCols = n, k
			}
			hostA := randMat(rng, aRows, aCols)
			hostB := randMat(rng, bRows, bCols)
			hostC := randMat(rng, m, n)
			ref := append([]float64(nil), hostC...)
			if err := blas.Dgemm(ta, tb, m, n, k, 1.5, hostA, aRows, hostB, bRows, 0.5, ref, m); err != nil {
				t.Fatal(err)
			}
			res, err := c.Run(GemmOpts{
				Dtype: kernelmodel.F64, TransA: ta, TransB: tb,
				M: m, N: n, K: k, Alpha: 1.5, Beta: 0.5,
				A: &Matrix{Rows: aRows, Cols: aCols, Loc: model.OnHost, HostF64: hostA, HostLd: aRows},
				B: &Matrix{Rows: bRows, Cols: bCols, Loc: model.OnHost, HostF64: hostB, HostLd: bRows},
				C: &Matrix{Rows: m, Cols: n, Loc: model.OnHost, HostF64: hostC, HostLd: m},
				T: T,
			})
			if err != nil {
				t.Fatalf("ta=%c tb=%c: %v", ta, tb, err)
			}
			if d := maxDiff(hostC, ref); d > 1e-10 {
				t.Errorf("ta=%c tb=%c: result differs by %g", ta, tb, d)
			}
			if res.Subkernels != 3*2*2 {
				t.Errorf("ta=%c tb=%c: %d subkernels", ta, tb, res.Subkernels)
			}
		}
	}
}

func TestGemmTransposedDeviceResident(t *testing.T) {
	// A device-resident transposed operand is used in place through
	// stored-coordinate subviews.
	c := newCtx(true)
	m, n, k, T := 64, 48, 56, 32
	rng := rand.New(rand.NewSource(42))
	hostA := randMat(rng, k, m) // stored KxM, op(A) = A^T
	hostB := randMat(rng, k, n)
	hostC := make([]float64, m*n)
	ref := make([]float64, m*n)
	if err := blas.Dgemm(blas.Trans, blas.NoTrans, m, n, k, 1, hostA, k, hostB, k, 0, ref, m); err != nil {
		t.Fatal(err)
	}
	devA := deviceMatrix(t, c, k, m, hostA)
	res, err := c.Run(GemmOpts{
		Dtype: kernelmodel.F64, TransA: blas.Trans,
		M: m, N: n, K: k, Alpha: 1, Beta: 0,
		A: devA,
		B: &Matrix{Rows: k, Cols: n, Loc: model.OnHost, HostF64: hostB, HostLd: k},
		C: &Matrix{Rows: m, Cols: n, Loc: model.OnHost, HostF64: hostC, HostLd: m},
		T: T,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(hostC, ref); d > 1e-10 {
		t.Errorf("device-resident transposed A: diff %g", d)
	}
	// A on device: only B crosses h2d (beta=0 skips C).
	if want := int64(k*n) * 8; res.BytesH2D != want {
		t.Errorf("h2d = %d, want %d", res.BytesH2D, want)
	}
}

func TestGemmBadTransposeFlag(t *testing.T) {
	c := newCtx(false)
	A := &Matrix{Rows: 64, Cols: 64, Loc: model.OnHost, HostLd: 64}
	if _, err := c.Run(GemmOpts{
		Dtype: kernelmodel.F64, TransA: 'X',
		M: 64, N: 64, K: 64, A: A, B: A, C: A, T: 32,
	}); err == nil {
		t.Error("bad transpose flag should error")
	}
	// Shape mismatch under transposition must be caught.
	if _, err := c.Run(GemmOpts{
		Dtype: kernelmodel.F64, TransA: blas.Trans,
		M: 64, N: 64, K: 32, A: A, B: A, C: A, T: 32,
	}); err == nil {
		t.Error("transposed shape mismatch should error")
	}
}

func TestSyrkWrapper(t *testing.T) {
	for _, trans := range []byte{blas.NoTrans, blas.Trans} {
		c := newCtx(true)
		n, k, T := 48, 40, 16
		rng := rand.New(rand.NewSource(43))
		aRows, aCols := n, k
		if trans == blas.Trans {
			aRows, aCols = k, n
		}
		hostA := randMat(rng, aRows, aCols)
		hostC := randMat(rng, n, n)
		ref := append([]float64(nil), hostC...)
		if err := blas.Syrk(trans, n, k, 1.5, hostA, aRows, 0.5, ref, n); err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(SyrkOpts{
			Dtype: kernelmodel.F64, Trans: trans, N: n, K: k,
			Alpha: 1.5, Beta: 0.5,
			A: &Matrix{Rows: aRows, Cols: aCols, Loc: model.OnHost, HostF64: hostA, HostLd: aRows},
			C: &Matrix{Rows: n, Cols: n, Loc: model.OnHost, HostF64: hostC, HostLd: n},
			T: T,
		})
		if err != nil {
			t.Fatalf("trans=%c: %v", trans, err)
		}
		if d := maxDiff(hostC, ref); d > 1e-10 {
			t.Errorf("trans=%c: syrk differs by %g", trans, d)
		}
		if res.Subkernels <= 0 {
			t.Error("no subkernels recorded")
		}
	}
	// Bad flag propagates.
	c := newCtx(false)
	A := &Matrix{Rows: 8, Cols: 8, Loc: model.OnHost, HostLd: 8}
	if _, err := c.Run(SyrkOpts{Dtype: kernelmodel.F64, Trans: 'Q', N: 8, K: 8, A: A, C: A, T: 8}); err == nil {
		t.Error("bad syrk flag should error")
	}
}
