package sched

import (
	"math"
	"math/rand"
	"testing"

	"cocopelia/internal/blas"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/model"
	"cocopelia/internal/plan"
)

// spdMatrix builds a symmetric positive-definite n x n matrix M·M^T + n·I.
func spdMatrix(rng *rand.Rand, n int) []float64 {
	m := randMat(rng, n, n)
	a := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			var s float64
			for k := 0; k < n; k++ {
				s += m[i+k*n] * m[j+k*n]
			}
			a[i+j*n] = s
		}
		a[j+j*n] += float64(n)
	}
	return a
}

// lowerMaxDiff compares two column-major n x n matrices on the lower
// triangle only.
func lowerMaxDiff(a, b []float64, n int) float64 {
	var m float64
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			if d := math.Abs(a[i+j*n] - b[i+j*n]); d > m {
				m = d
			}
		}
	}
	return m
}

// readDevice copies a device-resident matrix back to a fresh host slice.
func readDevice(t *testing.T, c *Context, m *Matrix) []float64 {
	t.Helper()
	got := make([]float64, m.Rows*m.Cols)
	s := c.rt.NewStream()
	if _, err := s.MemcpyD2HAsync(got, nil, m.Dev, 0, int64(len(got))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.rt.Sync(); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestCholeskyMatchesUnblocked(t *testing.T) {
	// Ragged n exercises the edge-tile shapes of every kernel kind.
	for _, loc := range []model.Loc{model.OnHost, model.OnDevice} {
		c := newCtx(true)
		n, T := 52, 16
		rng := rand.New(rand.NewSource(5))
		host := spdMatrix(rng, n)
		ref := append([]float64(nil), host...)
		if err := blas.Potrf(blas.Lower, n, ref, n); err != nil {
			t.Fatal(err)
		}
		var A *Matrix
		if loc == model.OnHost {
			A = &Matrix{Rows: n, Cols: n, Loc: model.OnHost, HostF64: host, HostLd: n}
		} else {
			A = deviceMatrix(t, c, n, n, host)
		}
		res, err := c.Run(CholeskyOpts{Dtype: kernelmodel.F64, N: n, A: A, T: T})
		if err != nil {
			t.Fatalf("loc %v: %v", loc, err)
		}
		got := host
		if loc == model.OnDevice {
			got = readDevice(t, c, A)
		}
		if d := lowerMaxDiff(got, ref, n); d > 1e-9 {
			t.Errorf("loc %v: tiled L differs from unblocked by %g", loc, d)
		}
		// nt=4: 4 potrf + 6 trsm + 6 syrk + 4 gemm.
		if res.Subkernels != 20 {
			t.Errorf("loc %v: subkernels = %d, want 20", loc, res.Subkernels)
		}
	}
}

func TestCholeskyUpperTilesUntouched(t *testing.T) {
	c := newCtx(true)
	n, T := 48, 16
	rng := rand.New(rand.NewSource(6))
	host := spdMatrix(rng, n)
	orig := append([]float64(nil), host...)
	A := &Matrix{Rows: n, Cols: n, Loc: model.OnHost, HostF64: host, HostLd: n}
	if _, err := c.Run(CholeskyOpts{Dtype: kernelmodel.F64, N: n, A: A, T: T}); err != nil {
		t.Fatal(err)
	}
	// Tiles strictly above the diagonal never cross the link.
	for tj := 1; tj < n/T; tj++ {
		for ti := 0; ti < tj; ti++ {
			for j := tj * T; j < (tj+1)*T; j++ {
				for i := ti * T; i < (ti+1)*T; i++ {
					if host[i+j*n] != orig[i+j*n] {
						t.Fatalf("above-diagonal tile (%d,%d) modified at (%d,%d)", ti, tj, i, j)
					}
				}
			}
		}
	}
}

func TestCholeskyVolumesMatchClosedForm(t *testing.T) {
	for _, n := range []int{48, 52, 100} {
		c := newCtx(false)
		T := 16
		A := &Matrix{Rows: n, Cols: n, Loc: model.OnHost, HostLd: n}
		opts := CholeskyOpts{Dtype: kernelmodel.F64, N: n, A: A, T: T}
		p, err := c.Plan(opts)
		if err != nil {
			t.Fatal(err)
		}
		key := plan.Key{Routine: "cholesky", Dtype: kernelmodel.F64, N: n, T: T,
			Locs: [3]model.Loc{model.OnHost}, NLocs: 1}
		if got, want := p.Volumes(), plan.CholeskyVolumes(key); got != want {
			t.Errorf("n=%d: plan volumes %+v, closed form %+v", n, got, want)
		}
		res, err := runWith(c, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.BytesH2D != p.BytesH2D || res.BytesD2H != p.BytesD2H {
			t.Errorf("n=%d: executed traffic (%d, %d) != annotations (%d, %d)",
				n, res.BytesH2D, res.BytesD2H, p.BytesH2D, p.BytesD2H)
		}
	}
}

func TestLUMatchesUnblocked(t *testing.T) {
	c := newCtx(true)
	n, T := 52, 16
	rng := rand.New(rand.NewSource(7))
	host := randMat(rng, n, n)
	// Diagonal dominance keeps the unpivoted factorization stable.
	for j := 0; j < n; j++ {
		host[j+j*n] += float64(n)
	}
	ref := append([]float64(nil), host...)
	if err := blas.Getrf(n, ref, n); err != nil {
		t.Fatal(err)
	}
	A := &Matrix{Rows: n, Cols: n, Loc: model.OnHost, HostF64: host, HostLd: n}
	res, err := c.Run(LUOpts{Dtype: kernelmodel.F64, N: n, A: A, T: T})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(host, ref); d > 1e-9 {
		t.Errorf("tiled LU differs from unblocked by %g", d)
	}
	// nt=4: 4 getrf + 12 trsm + 14 gemm.
	if res.Subkernels != 30 {
		t.Errorf("subkernels = %d, want 30", res.Subkernels)
	}
	want := plan.LUVolumes(plan.Key{Routine: "lu", Dtype: kernelmodel.F64, N: n, T: T,
		Locs: [3]model.Loc{model.OnHost}, NLocs: 1})
	if res.BytesH2D != want.BytesH2D || res.BytesD2H != want.BytesD2H || res.Subkernels != want.Subkernels {
		t.Errorf("traffic %+v does not match closed form %+v", res, want)
	}
}

func TestTrsmMatchesReference(t *testing.T) {
	for _, diag := range []byte{blas.NonUnit, blas.Unit} {
		c := newCtx(true)
		m, n, T := 52, 37, 16
		alpha := 0.75
		rng := rand.New(rand.NewSource(8))
		hostA := randMat(rng, m, m)
		for j := 0; j < m; j++ {
			hostA[j+j*m] += float64(m) // well-conditioned solves
		}
		hostB := randMat(rng, m, n)
		ref := append([]float64(nil), hostB...)
		if err := blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, diag,
			m, n, alpha, hostA, m, ref, m); err != nil {
			t.Fatal(err)
		}
		A := &Matrix{Rows: m, Cols: m, Loc: model.OnHost, HostF64: hostA, HostLd: m}
		B := &Matrix{Rows: m, Cols: n, Loc: model.OnHost, HostF64: hostB, HostLd: m}
		res, err := c.Run(TrsmOpts{
			Dtype: kernelmodel.F64, Diag: diag, M: m, N: n, Alpha: alpha,
			A: A, B: B, T: T,
		})
		if err != nil {
			t.Fatalf("diag %q: %v", diag, err)
		}
		// Unit-diag solves lack the diagonal-dominance conditioning boost
		// (the implicit unit diagonal ignores the boosted entries), so the
		// tolerance is looser than the other factorization checks.
		if d := maxDiff(hostB, ref); d > 1e-7 {
			t.Errorf("diag %q: tiled solve differs from reference by %g", diag, d)
		}
		want := plan.TrsmVolumes(plan.Key{Routine: "trsm", Dtype: kernelmodel.F64, Diag: diag, M: m, N: n, T: T,
			Locs: [3]model.Loc{model.OnHost, model.OnHost}, NLocs: 2})
		if res.BytesH2D != want.BytesH2D || res.BytesD2H != want.BytesD2H || res.Subkernels != want.Subkernels {
			t.Errorf("diag %q: traffic %+v does not match closed form %+v", diag, res, want)
		}
	}
}

func TestFactorPlanReplayDeterministic(t *testing.T) {
	// A cached plan must replay with identical timing, and *With must match
	// Cholesky/LU/Trsm built fresh.
	run := func(with bool) (float64, float64, float64) {
		c := newCtx(false)
		n, T := 104, 32
		A := &Matrix{Rows: n, Cols: n, Loc: model.OnHost, HostLd: n}
		B := &Matrix{Rows: n, Cols: n, Loc: model.OnHost, HostLd: n}
		chOpts := CholeskyOpts{Dtype: kernelmodel.F64, N: n, A: A, T: T}
		luOpts := LUOpts{Dtype: kernelmodel.F64, N: n, A: A, T: T}
		trOpts := TrsmOpts{Dtype: kernelmodel.F64, M: n, N: n, Alpha: 1, A: A, B: B, T: T}
		var ch, lu, tr Result
		var err error
		if with {
			var p *plan.Plan
			if p, err = c.Plan(chOpts); err != nil {
				t.Fatal(err)
			}
			if ch, err = runWith(c, p, chOpts); err != nil {
				t.Fatal(err)
			}
			if p, err = c.Plan(luOpts); err != nil {
				t.Fatal(err)
			}
			if lu, err = runWith(c, p, luOpts); err != nil {
				t.Fatal(err)
			}
			if p, err = c.Plan(trOpts); err != nil {
				t.Fatal(err)
			}
			if tr, err = runWith(c, p, trOpts); err != nil {
				t.Fatal(err)
			}
		} else {
			if ch, err = c.Run(chOpts); err != nil {
				t.Fatal(err)
			}
			if lu, err = c.Run(luOpts); err != nil {
				t.Fatal(err)
			}
			if tr, err = c.Run(trOpts); err != nil {
				t.Fatal(err)
			}
		}
		return ch.Seconds, lu.Seconds, tr.Seconds
	}
	c1, l1, t1 := run(false)
	c2, l2, t2 := run(true)
	if c1 != c2 || l1 != l2 || t1 != t2 {
		t.Errorf("plan replay differs from direct run: (%g,%g,%g) vs (%g,%g,%g)",
			c1, l1, t1, c2, l2, t2)
	}
}

func TestFactorValidation(t *testing.T) {
	c := newCtx(false)
	ok := &Matrix{Rows: 64, Cols: 64, Loc: model.OnHost, HostLd: 64}
	if _, err := c.Run(CholeskyOpts{Dtype: kernelmodel.F64, N: 0, A: ok, T: 32}); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := c.Run(CholeskyOpts{Dtype: kernelmodel.F64, N: 64, A: ok, T: 0}); err == nil {
		t.Error("T=0 should error")
	}
	if _, err := c.Run(LUOpts{Dtype: kernelmodel.F64, N: 32, A: ok, T: 16}); err == nil {
		t.Error("shape mismatch should error")
	}
	bad := &Matrix{Rows: 64, Cols: 64, Loc: model.OnHost, HostLd: 64}
	if _, err := c.Run(TrsmOpts{Dtype: kernelmodel.F64, Side: blas.Right,
		M: 64, N: 64, Alpha: 1, A: ok, B: bad, T: 32}); err == nil {
		t.Error("unsupported side should error")
	}
	if _, err := c.Run(TrsmOpts{Dtype: kernelmodel.F64, Uplo: blas.Upper,
		M: 64, N: 64, Alpha: 1, A: ok, B: bad, T: 32}); err == nil {
		t.Error("unsupported uplo should error")
	}
	if _, err := c.Run(TrsmOpts{Dtype: kernelmodel.F64, Diag: 'X',
		M: 64, N: 64, Alpha: 1, A: ok, B: bad, T: 32}); err == nil {
		t.Error("bad diag should error")
	}
	// A replayed plan must match the invocation, including the diag flag.
	opts := TrsmOpts{Dtype: kernelmodel.F64, M: 64, N: 64, Alpha: 1, A: ok, B: bad, T: 32}
	p, err := c.Plan(opts)
	if err != nil {
		t.Fatal(err)
	}
	other := opts
	other.Diag = blas.Unit
	if _, err := runWith(c, p, other); err == nil {
		t.Error("diag mismatch should error")
	}
	ch, err := c.Plan(CholeskyOpts{Dtype: kernelmodel.F64, N: 64, A: ok, T: 32})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runWith(c, ch, LUOpts{Dtype: kernelmodel.F64, N: 64, A: ok, T: 32}); err == nil {
		t.Error("routine mismatch should error")
	}
}

// TestFactorWorkerInvariance runs each factorization on noisy backed
// contexts with payload worker pools of 1, 2 and 8 and demands
// Float64bits-identical timings and output payloads: the parallel payload
// engine must not change any simulated or numerical result.
func TestFactorWorkerInvariance(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, c *Context) (Result, []float64)
	}{
		{"cholesky", func(t *testing.T, c *Context) (Result, []float64) {
			n := 100
			a := equivMat(t, c, n, n, spdMatrix(rand.New(rand.NewSource(41)), n), model.OnHost)
			res, err := c.Run(CholeskyOpts{Dtype: kernelmodel.F64, N: n, A: a, T: 32})
			if err != nil {
				t.Fatal(err)
			}
			return res, output(t, c, a)
		}},
		{"lu", func(t *testing.T, c *Context) (Result, []float64) {
			n := 100
			host := randMat(rand.New(rand.NewSource(43)), n, n)
			for i := 0; i < n; i++ {
				host[i+i*n] += float64(n)
			}
			a := equivMat(t, c, n, n, host, model.OnHost)
			res, err := c.Run(LUOpts{Dtype: kernelmodel.F64, N: n, A: a, T: 32})
			if err != nil {
				t.Fatal(err)
			}
			return res, output(t, c, a)
		}},
		{"trsm", func(t *testing.T, c *Context) (Result, []float64) {
			m, n := 96, 64
			rng := rand.New(rand.NewSource(47))
			hostA := randMat(rng, m, m)
			for i := 0; i < m; i++ {
				hostA[i+i*m] += float64(m)
			}
			a := equivMat(t, c, m, m, hostA, model.OnHost)
			b := equivMat(t, c, m, n, randMat(rng, m, n), model.OnHost)
			res, err := c.Run(TrsmOpts{Dtype: kernelmodel.F64, M: m, N: n,
				Alpha: 0.75, A: a, B: b, T: 32})
			if err != nil {
				t.Fatal(err)
			}
			return res, output(t, c, b)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref Result
			var refOut []float64
			for i, workers := range []int{1, 2, 8} {
				c := equivCtx(workers)
				res, out := tc.run(t, c)
				if i == 0 {
					ref, refOut = res, out
					continue
				}
				if math.Float64bits(res.Seconds) != math.Float64bits(ref.Seconds) {
					t.Errorf("workers=%d: Seconds diverged: %v vs %v", workers, res.Seconds, ref.Seconds)
				}
				if res.Subkernels != ref.Subkernels || res.BytesH2D != ref.BytesH2D ||
					res.BytesD2H != ref.BytesD2H {
					t.Errorf("workers=%d: annotations diverged: %+v vs %+v", workers, res, ref)
				}
				if len(out) != len(refOut) {
					t.Fatalf("workers=%d: payload length diverged", workers)
				}
				for j := range out {
					if math.Float64bits(out[j]) != math.Float64bits(refOut[j]) {
						t.Fatalf("workers=%d: payload diverged at %d: %x vs %x",
							workers, j, math.Float64bits(out[j]), math.Float64bits(refOut[j]))
					}
				}
			}
		})
	}
}
