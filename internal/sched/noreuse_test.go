package sched

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"cocopelia/internal/blas"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/model"
	"cocopelia/internal/plan"
)

func TestNoReuseGemmFunctionalAllCombos(t *testing.T) {
	for _, combo := range model.LocCombos(3) {
		c := newCtx(true)
		m, n, k, T := 96, 64, 80, 32
		rng := rand.New(rand.NewSource(13))
		hostA := randMat(rng, m, k)
		hostB := randMat(rng, k, n)
		hostC := randMat(rng, m, n)
		ref := append([]float64(nil), hostC...)
		if err := blas.Dgemm(blas.NoTrans, blas.NoTrans, m, n, k, 1.25, hostA, m, hostB, k, 0.75, ref, m); err != nil {
			t.Fatal(err)
		}
		mat := func(rows, cols int, host []float64, loc model.Loc) *Matrix {
			if loc == model.OnHost {
				return &Matrix{Rows: rows, Cols: cols, Loc: model.OnHost, HostF64: host, HostLd: rows}
			}
			return deviceMatrix(t, c, rows, cols, host)
		}
		A := mat(m, k, hostA, combo[0])
		B := mat(k, n, hostB, combo[1])
		C := mat(m, n, hostC, combo[2])
		_, err := c.Run(GemmNoReuseOpts{
			Dtype: kernelmodel.F64, M: m, N: n, K: k,
			Alpha: 1.25, Beta: 0.75, A: A, B: B, C: C, T: T,
		})
		if err != nil {
			t.Fatalf("combo %v: %v", combo, err)
		}
		got := hostC
		if combo[2] == model.OnDevice {
			got = make([]float64, m*n)
			s := c.rt.NewStream()
			if _, err := s.MemcpyD2HAsync(got, nil, C.Dev, 0, int64(m*n)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.rt.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if d := maxDiff(got, ref); d > 1e-10 {
			t.Errorf("combo %v: no-reuse result differs from reference by %g", combo, d)
		}
	}
}

func TestNoReuseBetaZero(t *testing.T) {
	c := newCtx(true)
	m, T := 64, 32
	rng := rand.New(rand.NewSource(14))
	hostA := randMat(rng, m, m)
	hostB := randMat(rng, m, m)
	hostC := make([]float64, m*m)
	for i := range hostC {
		hostC[i] = math.NaN()
	}
	ref := make([]float64, m*m)
	if err := blas.Dgemm(blas.NoTrans, blas.NoTrans, m, m, m, 1, hostA, m, hostB, m, 0, ref, m); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(GemmNoReuseOpts{
		Dtype: kernelmodel.F64, M: m, N: m, K: m, Alpha: 1, Beta: 0,
		A: &Matrix{Rows: m, Cols: m, Loc: model.OnHost, HostF64: hostA, HostLd: m},
		B: &Matrix{Rows: m, Cols: m, Loc: model.OnHost, HostF64: hostB, HostLd: m},
		C: &Matrix{Rows: m, Cols: m, Loc: model.OnHost, HostF64: hostC, HostLd: m},
		T: T,
	}); err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(hostC, ref); d > 1e-10 {
		t.Errorf("beta=0 no-reuse result differs by %g", d)
	}
}

func TestNoReuseTransferVolume(t *testing.T) {
	// Per-sub-kernel traffic: every sub-kernel fetches A, B and (after the
	// first k-step) the C partial, and writes C back every step. For a
	// 4x4x4 tile grid with beta=1: A and B cross 64 times each, C crosses
	// 64 times in and 64 times out.
	c := newCtx(false)
	m, T := 512, 128
	opts := GemmOpts{
		Dtype: kernelmodel.F64, M: m, N: m, K: m, Alpha: 1, Beta: 1,
		A: &Matrix{Rows: m, Cols: m, Loc: model.OnHost, HostLd: m},
		B: &Matrix{Rows: m, Cols: m, Loc: model.OnHost, HostLd: m},
		C: &Matrix{Rows: m, Cols: m, Loc: model.OnHost, HostLd: m},
		T: T,
	}
	res, err := c.Run(GemmNoReuseOpts(opts))
	if err != nil {
		t.Fatal(err)
	}
	tile := int64(T*T) * 8
	if want := 3 * 64 * tile; res.BytesH2D != want {
		t.Errorf("h2d = %d, want %d", res.BytesH2D, want)
	}
	if want := 64 * tile; res.BytesD2H != want {
		t.Errorf("d2h = %d, want %d", res.BytesD2H, want)
	}
	if res.Subkernels != 64 {
		t.Errorf("subkernels = %d", res.Subkernels)
	}
	// The same traffic must be predicted by the plan annotations and the
	// closed-form volumes before anything executes.
	p, err := c.Plan(GemmNoReuseOpts(opts))
	if err != nil {
		t.Fatal(err)
	}
	want := plan.Volumes{BytesH2D: 3 * 64 * tile, BytesD2H: 64 * tile, Subkernels: 64}
	if v := p.Volumes(); v != want {
		t.Errorf("plan annotations = %+v, want %+v", v, want)
	}
	key := plan.Key{Routine: "gemm-noreuse", Dtype: kernelmodel.F64, M: m, N: m, K: m, T: T,
		Alpha: math.Float64bits(1), Beta: math.Float64bits(1),
		Locs: [3]model.Loc{model.OnHost, model.OnHost, model.OnHost}, NLocs: 3}
	if v := plan.GemmNoReuseVolumes(key); v != want {
		t.Errorf("closed-form volumes = %+v, want %+v", v, want)
	}
}

func TestNoReuseSlowerThanReuse(t *testing.T) {
	run := func(noReuse bool) float64 {
		c := newCtx(false)
		opts := GemmOpts{
			Dtype: kernelmodel.F64, M: 4096, N: 4096, K: 4096, Alpha: 1, Beta: 1,
			A: &Matrix{Rows: 4096, Cols: 4096, Loc: model.OnHost, HostLd: 4096},
			B: &Matrix{Rows: 4096, Cols: 4096, Loc: model.OnHost, HostLd: 4096},
			C: &Matrix{Rows: 4096, Cols: 4096, Loc: model.OnHost, HostLd: 4096},
			T: 1024,
		}
		var res Result
		var err error
		if noReuse {
			res, err = c.Run(GemmNoReuseOpts(opts))
		} else {
			res, err = c.Run(opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	nr, r := run(true), run(false)
	if nr <= 1.5*r {
		t.Errorf("no-reuse (%g) should be much slower than reuse (%g)", nr, r)
	}
}

func TestNoReuseMemoryBounded(t *testing.T) {
	// Even for a large problem the staging footprint stays within the
	// slot budget (plus nothing else).
	c := newCtx(false)
	m, T := 4096, 512
	_, err := c.Run(GemmNoReuseOpts{
		Dtype: kernelmodel.F64, M: m, N: m, K: m, Alpha: 1, Beta: 1,
		A: &Matrix{Rows: m, Cols: m, Loc: model.OnHost, HostLd: m},
		B: &Matrix{Rows: m, Cols: m, Loc: model.OnHost, HostLd: m},
		C: &Matrix{Rows: m, Cols: m, Loc: model.OnHost, HostLd: m},
		T: T,
	})
	if err != nil {
		t.Fatal(err)
	}
	bound := int64(plan.MaxNoReuseSlots) * 3 * int64(T*T) * 8
	if peak := c.rt.Device().MemPeak(); peak > bound {
		t.Errorf("staging peak %d exceeds bound %d", peak, bound)
	}
}

func TestNoReuseHugeTilesAdaptSlots(t *testing.T) {
	// Tiles near the device-memory scale must still run (the slot count
	// shrinks) — the regression behind very large sweep tiles on the K40.
	c := newCtx(false)
	m, T := 16384, 8192
	_, err := c.Run(GemmNoReuseOpts{
		Dtype: kernelmodel.F64, M: m, N: m, K: m, Alpha: 1, Beta: 1,
		A: &Matrix{Rows: m, Cols: m, Loc: model.OnHost, HostLd: m},
		B: &Matrix{Rows: m, Cols: m, Loc: model.OnHost, HostLd: m},
		C: &Matrix{Rows: m, Cols: m, Loc: model.OnHost, HostLd: m},
		T: T,
	})
	if err != nil {
		t.Fatalf("huge-tile no-reuse run failed: %v", err)
	}
	if used := c.rt.Device().MemPeak(); used > c.rt.Device().Testbed().GPU.MemBytes {
		t.Errorf("peak %d exceeds device memory", used)
	}
}

// TestNoReuseRejectsTranspose pins that the no-reuse comparator refuses a
// transpose flag instead of silently computing op(A) = A: a backed 8x8
// call with TransA 'T' must fail, naming the flag, and leave C untouched.
func TestNoReuseRejectsTranspose(t *testing.T) {
	c := newCtx(true)
	n := 8
	rng := rand.New(rand.NewSource(3))
	hostC := randMat(rng, n, n)
	before := append([]float64(nil), hostC...)
	for _, flag := range []string{"TransA", "TransB"} {
		opts := GemmNoReuseOpts{
			Dtype: kernelmodel.F64, M: n, N: n, K: n, Alpha: 1, Beta: 0,
			A: &Matrix{Rows: n, Cols: n, Loc: model.OnHost, HostF64: randMat(rng, n, n), HostLd: n},
			B: &Matrix{Rows: n, Cols: n, Loc: model.OnHost, HostF64: randMat(rng, n, n), HostLd: n},
			C: &Matrix{Rows: n, Cols: n, Loc: model.OnHost, HostF64: hostC, HostLd: n},
			T: 4,
		}
		if flag == "TransA" {
			opts.TransA = blas.Trans
		} else {
			opts.TransB = blas.Trans
		}
		_, err := c.Run(opts)
		if err == nil || !strings.Contains(err.Error(), flag) {
			t.Fatalf("%s 'T': got %v, want an error naming %s", flag, err, flag)
		}
	}
	for i := range hostC {
		if math.Float64bits(hostC[i]) != math.Float64bits(before[i]) {
			t.Fatalf("C[%d] changed by a rejected call", i)
		}
	}
}
