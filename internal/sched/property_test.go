package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cocopelia/internal/blas"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/model"
)

// TestGemmRandomizedEquivalence cross-checks randomly shaped tiled gemm
// executions (random dims, tile, scalars and operand locations, both
// reuse and no-reuse schedulers) against the reference BLAS.
func TestGemmRandomizedEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newCtx(true)
		m := 1 + rng.Intn(80)
		n := 1 + rng.Intn(80)
		k := 1 + rng.Intn(80)
		T := 1 + rng.Intn(96)
		alpha := rng.NormFloat64()
		beta := 0.0
		if rng.Intn(2) == 0 {
			beta = rng.NormFloat64()
		}
		hostA := randMat(rng, m, k)
		hostB := randMat(rng, k, n)
		hostC := randMat(rng, m, n)
		ref := append([]float64(nil), hostC...)
		if err := blas.Dgemm(blas.NoTrans, blas.NoTrans, m, n, k, alpha, hostA, m, hostB, k, beta, ref, m); err != nil {
			t.Fatal(err)
		}

		locs := [3]model.Loc{}
		for i := range locs {
			if rng.Intn(3) == 0 {
				locs[i] = model.OnDevice
			}
		}
		mat := func(rows, cols int, host []float64, loc model.Loc) *Matrix {
			if loc == model.OnHost {
				return &Matrix{Rows: rows, Cols: cols, Loc: model.OnHost, HostF64: host, HostLd: rows}
			}
			return deviceMatrix(t, c, rows, cols, host)
		}
		A := mat(m, k, hostA, locs[0])
		B := mat(k, n, hostB, locs[1])
		C := mat(m, n, hostC, locs[2])
		opts := GemmOpts{
			Dtype: kernelmodel.F64, M: m, N: n, K: k,
			Alpha: alpha, Beta: beta, A: A, B: B, C: C, T: T,
		}
		var err error
		if rng.Intn(2) == 0 {
			_, err = c.Run(opts)
		} else {
			_, err = c.Run(GemmNoReuseOpts(opts))
		}
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		got := hostC
		if locs[2] == model.OnDevice {
			got = make([]float64, m*n)
			s := c.rt.NewStream()
			if _, err := s.MemcpyD2HAsync(got, nil, C.Dev, 0, int64(m*n)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.rt.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if d := maxDiff(got, ref); d > 1e-9 {
			t.Logf("seed %d (m=%d n=%d k=%d T=%d locs=%v): diff %g", seed, m, n, k, T, locs, d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestAxpyRandomizedEquivalence does the same for the level-1 path.
func TestAxpyRandomizedEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newCtx(true)
		n := 1 + rng.Intn(5000)
		T := 1 + rng.Intn(n+100)
		alpha := rng.NormFloat64()
		hostX := randMat(rng, n, 1)
		hostY := randMat(rng, n, 1)
		ref := append([]float64(nil), hostY...)
		if err := blas.Daxpy(n, alpha, hostX, 1, ref, 1); err != nil {
			t.Fatal(err)
		}
		_, err := c.Run(AxpyOpts{
			N: n, Alpha: alpha,
			X: &Vector{N: n, Loc: model.OnHost, HostF64: hostX},
			Y: &Vector{N: n, Loc: model.OnHost, HostF64: hostY},
			T: T,
		})
		if err != nil {
			return false
		}
		return maxDiff(hostY, ref) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestGemvRandomizedEquivalence does the same for the level-2 path.
func TestGemvRandomizedEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := newCtx(true)
		m := 1 + rng.Intn(100)
		n := 1 + rng.Intn(100)
		T := 1 + rng.Intn(120)
		alpha, beta := rng.NormFloat64(), rng.NormFloat64()
		hostA := randMat(rng, m, n)
		hostX := randMat(rng, n, 1)
		hostY := randMat(rng, m, 1)
		ref := append([]float64(nil), hostY...)
		if err := blas.Dgemv(blas.NoTrans, m, n, alpha, hostA, m, hostX, 1, beta, ref, 1); err != nil {
			t.Fatal(err)
		}
		_, err := c.Run(GemvOpts{
			M: m, N: n, Alpha: alpha, Beta: beta,
			A: &Matrix{Rows: m, Cols: n, Loc: model.OnHost, HostF64: hostA, HostLd: m},
			X: &Vector{N: n, Loc: model.OnHost, HostF64: hostX},
			Y: &Vector{N: m, Loc: model.OnHost, HostF64: hostY},
			T: T,
		})
		if err != nil {
			return false
		}
		return maxDiff(hostY, ref) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
