package cocopelia

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"cocopelia/internal/blas"
	"cocopelia/internal/parallel"
)

// TestBackedPayloadPoolInvariance runs the backed level-3 and factor
// routines at n = 512 on sessions whose jobs run inline and on payload
// pools 1, 2 and 8 wide: outputs must match bit for bit, and so must every
// Result field.
func TestBackedPayloadPoolInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 512
	rng := rand.New(rand.NewSource(512))
	randMat := func() []float64 {
		m := make([]float64, n*n)
		for i := range m {
			m[i] = rng.NormFloat64()
		}
		return m
	}
	a, b := randMat(), randMat()
	// spd = a*a^T + n*I; tri is lower triangular with a dominant diagonal.
	spd := make([]float64, n*n)
	if err := blas.Dgemm(blas.NoTrans, blas.Trans, n, n, n, 1, a, n, a, n, 0, spd, n); err != nil {
		t.Fatal(err)
	}
	tri := make([]float64, n*n)
	for j := 0; j < n; j++ {
		spd[j+j*n] += n
		for i := j; i < n; i++ {
			tri[i+j*n] = a[i+j*n] / n
		}
		tri[j+j*n] = 2 + math.Abs(a[j+j*n])
	}

	type call struct {
		name string
		run  func(lib *Library, out []float64) (Result, error)
	}
	calls := []call{
		{"dgemm", func(lib *Library, out []float64) (Result, error) {
			return lib.Dgemm(n, n, n, 1.5, HostMatrix(n, n, a), HostMatrix(n, n, b), 0.5, HostMatrix(n, n, out))
		}},
		{"dsyrk", func(lib *Library, out []float64) (Result, error) {
			return lib.Dsyrk(blas.NoTrans, n, n, 1.5, HostMatrix(n, n, a), 0.5, HostMatrix(n, n, out))
		}},
		{"dpotrf", func(lib *Library, out []float64) (Result, error) {
			copy(out, spd)
			return lib.Dpotrf(n, HostMatrix(n, n, out))
		}},
		{"dtrsm", func(lib *Library, out []float64) (Result, error) {
			return lib.Dtrsm(blas.NonUnit, n, n, 0.75, HostMatrix(n, n, tri), HostMatrix(n, n, out))
		}},
	}
	run := func(pool *parallel.Pool) ([]Result, [][]float64) {
		lib := openBacked(t)
		defer lib.Close()
		lib.rt.SetPayloadPool(pool)
		var results []Result
		var outs [][]float64
		for _, c := range calls {
			out := append([]float64(nil), b...)
			res, err := c.run(lib, out)
			if err != nil {
				t.Fatalf("%s (%d workers): %v", c.name, pool.Workers(), err)
			}
			results, outs = append(results, res), append(outs, out)
		}
		return results, outs
	}
	inlineRes, inlineOut := run(nil)
	for _, width := range []int{1, 2, 8} {
		pooledRes, pooledOut := run(parallel.NewPool(width))
		for i, c := range calls {
			if pooledRes[i] != inlineRes[i] {
				t.Errorf("%s: Result with %d workers %+v, inline %+v", c.name, width, pooledRes[i], inlineRes[i])
			}
			for j := range inlineOut[i] {
				if math.Float64bits(pooledOut[i][j]) != math.Float64bits(inlineOut[i][j]) {
					t.Errorf("%s: element %d is %v with %d workers, %v inline",
						c.name, j, pooledOut[i][j], width, inlineOut[i][j])
					break
				}
			}
		}
	}
}
