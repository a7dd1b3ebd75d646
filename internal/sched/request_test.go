package sched

import (
	"errors"
	"math"
	"strings"
	"testing"

	"cocopelia/internal/blas"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/model"
)

// reqShape is a routine-independent request description: buildReq maps it
// onto any request type, so the request-path tests can perturb and fuzz
// every routine through one table.
type reqShape struct {
	dt                   kernelmodel.Dtype
	m, n, k, T           int
	alpha, beta          float64
	locs                 [3]model.Loc
	transA, transB, diag byte
}

// reqRoutines names the request types buildReq can build.
var reqRoutines = []string{"gemm", "gemm-noreuse", "gemv", "axpy", "syrk", "cholesky", "lu", "trsm",
	"gemm-cublasxt", "gemm-blasx", "axpy-unified"}

// testMat returns a packed rows x cols operand at loc: storage-free (and
// on an unbacked device buffer) on timing-only contexts, filled with
// testData(rows, cols, seed) on backed ones. Device data is written
// straight into the buffer, so operand setup fires no simulation events.
func testMat(t testing.TB, c *Context, dt kernelmodel.Dtype, rows, cols int, loc model.Loc, seed int) *Matrix {
	t.Helper()
	m := &Matrix{Rows: rows, Cols: cols, Loc: loc, HostLd: rows}
	var data []float64
	if c.backed {
		data = testData(rows, cols, seed)
	}
	if loc == model.OnDevice {
		buf, err := c.rt.Malloc(dt, int64(rows)*int64(cols), c.backed)
		if err != nil {
			t.Fatal(err)
		}
		m.HostLd, m.Dev, m.DevLd = 0, buf, rows
		storeF(data, buf.F64(), buf.F32())
		return m
	}
	if data != nil {
		if dt == kernelmodel.F32 {
			m.HostF32 = make([]float32, len(data))
		} else {
			m.HostF64 = data
		}
		storeF(data, nil, m.HostF32)
	}
	return m
}

// testVec is testMat for (float64) vectors.
func testVec(t testing.TB, c *Context, n int, loc model.Loc, seed int) *Vector {
	t.Helper()
	m := testMat(t, c, kernelmodel.F64, n, 1, loc, seed)
	if loc == model.OnDevice {
		return &Vector{N: n, Loc: loc, Dev: m.Dev}
	}
	return &Vector{N: n, Loc: loc, HostF64: m.HostF64}
}

// testData is a column-major rows x cols pattern that every routine can
// run on: off-diagonal entries in (-1, 1) scaled down by the larger
// dimension, symmetric in (i, j), and a diagonal in [1, 3). Square
// instances are diagonally dominant, hence positive definite, factor
// without pivoting and solve stably even with a unit diagonal.
func testData(rows, cols, seed int) []float64 {
	d := make([]float64, rows*cols)
	scale := 1 / float64(max(rows, cols))
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			lo, hi := min(i, j), max(i, j)
			u := float64((lo*7919+hi*104729+seed*15485863)%2000)/1000 - 1
			if i == j {
				d[i+j*rows] = 2 + u
			} else {
				d[i+j*rows] = u * scale
			}
		}
	}
	return d
}

// storeF copies data into whichever of f64 and f32 is set.
func storeF(data, f64 []float64, f32 []float32) {
	copy(f64, data)
	for i := range f32 {
		f32[i] = float32(data[i])
	}
}

// buildReq materializes the shape's operands on c with testMat and testVec
// and returns the routine's request. Operand shapes follow the request's
// (valid) transpose flags; non-positive dimensions give 1-element
// operands, so the request itself must reject them.
func buildReq(t testing.TB, c *Context, routine string, s reqShape) Request {
	t.Helper()
	seed := 0
	mat := func(dt kernelmodel.Dtype, rows, cols int, loc model.Loc) *Matrix {
		seed++
		return testMat(t, c, dt, max(rows, 1), max(cols, 1), loc, seed)
	}
	vec := func(n int, loc model.Loc) *Vector {
		seed++
		return testVec(t, c, max(n, 1), loc, seed)
	}
	ar, ac := s.m, s.k
	if s.transA == blas.Trans {
		ar, ac = s.k, s.m
	}
	br, bc := s.k, s.n
	if s.transB == blas.Trans {
		br, bc = s.n, s.k
	}
	switch routine {
	case "gemm", "gemm-noreuse", "gemm-cublasxt", "gemm-blasx":
		g := GemmOpts{
			Dtype: s.dt, TransA: s.transA, TransB: s.transB,
			M: s.m, N: s.n, K: s.k, Alpha: s.alpha, Beta: s.beta, T: s.T,
			A: mat(s.dt, ar, ac, s.locs[0]), B: mat(s.dt, br, bc, s.locs[1]), C: mat(s.dt, s.m, s.n, s.locs[2]),
		}
		switch routine {
		case "gemm-noreuse":
			return GemmNoReuseOpts(g)
		case "gemm-cublasxt":
			return GemmXtOpts(g)
		case "gemm-blasx":
			return GemmBlasxOpts(g)
		}
		return g
	case "gemv":
		return GemvOpts{M: s.m, N: s.n, Alpha: s.alpha, Beta: s.beta, T: s.T,
			A: mat(kernelmodel.F64, s.m, s.n, s.locs[0]), X: vec(s.n, s.locs[1]), Y: vec(s.m, s.locs[2])}
	case "axpy":
		return AxpyOpts{N: s.n, Alpha: s.alpha, T: s.T, X: vec(s.n, s.locs[0]), Y: vec(s.n, s.locs[1])}
	case "axpy-unified":
		return AxpyUnifiedOpts{N: s.n, Alpha: s.alpha, X: vec(s.n, s.locs[0]), Y: vec(s.n, s.locs[1])}
	case "syrk":
		rows, cols := s.n, s.k
		if s.transA == blas.Trans {
			rows, cols = s.k, s.n
		}
		return SyrkOpts{Dtype: s.dt, Trans: s.transA, N: s.n, K: s.k, Alpha: s.alpha, Beta: s.beta, T: s.T,
			A: mat(s.dt, rows, cols, s.locs[0]), C: mat(s.dt, s.n, s.n, s.locs[2])}
	case "cholesky":
		return CholeskyOpts{Dtype: s.dt, N: s.n, T: s.T, A: mat(s.dt, s.n, s.n, s.locs[0])}
	case "lu":
		return LUOpts{Dtype: s.dt, N: s.n, T: s.T, A: mat(s.dt, s.n, s.n, s.locs[0])}
	case "trsm":
		return TrsmOpts{Dtype: s.dt, TransA: s.transA, Diag: s.diag, M: s.m, N: s.n, Alpha: s.alpha, T: s.T,
			A: mat(s.dt, s.m, s.m, s.locs[0]), B: mat(s.dt, s.m, s.n, s.locs[1])}
	}
	t.Fatalf("unknown routine %q", routine)
	return nil
}

// TestEnqueuePlanMismatch replays a plan against requests that differ from
// the one it was built for in exactly one key field — every dimension, T,
// every location, alpha and beta (+0 against -0), the flags, the dtype and
// the routine — and against no plan at all. Every replay must fail with
// ErrPlanMismatch naming the routine and the differing field.
func TestEnqueuePlanMismatch(t *testing.T) {
	negZero := math.Copysign(0, -1)
	perturb := map[string]func(*reqShape){
		"m":          func(s *reqShape) { s.m += 16 },
		"n":          func(s *reqShape) { s.n += 16 },
		"k":          func(s *reqShape) { s.k += 16 },
		"T":          func(s *reqShape) { s.T *= 2 },
		"location 0": func(s *reqShape) { s.locs[0] = model.OnDevice },
		"location 1": func(s *reqShape) { s.locs[1] = model.OnDevice },
		"location 2": func(s *reqShape) { s.locs[2] = model.OnDevice },
		"alpha":      func(s *reqShape) { s.alpha = negZero },
		"beta":       func(s *reqShape) { s.beta = negZero },
		"TransA":     func(s *reqShape) { s.transA = blas.Trans },
		"TransB":     func(s *reqShape) { s.transB = blas.Trans },
		"diag":       func(s *reqShape) { s.diag = blas.Unit },
		"dtype":      func(s *reqShape) { s.dt = kernelmodel.F32 },
	}
	routines := []struct {
		name      string
		fields    []string // perturbations the routine's key carries
		twin      string   // a routine whose plan the request must refuse
		twinField string   // the key field the twin's plan differs in; "" is the routine
	}{
		{"gemm", []string{"m", "n", "k", "T", "location 0", "location 1", "location 2", "alpha", "beta", "TransA", "TransB", "dtype"}, "gemm-noreuse", ""},
		{"gemm-noreuse", []string{"m", "n", "k", "T", "location 0", "location 1", "location 2", "alpha", "beta", "dtype"}, "gemm", ""},
		{"gemv", []string{"m", "n", "T", "location 0", "location 1", "location 2", "alpha", "beta"}, "gemm", ""},
		{"axpy", []string{"n", "T", "location 0", "location 1", "alpha"}, "gemv", ""},
		{"syrk", []string{"n", "k", "T", "location 0", "location 2", "alpha", "beta", "TransA", "dtype"}, "gemm-noreuse", ""},
		{"cholesky", []string{"n", "T", "location 0", "dtype"}, "lu", ""},
		{"lu", []string{"n", "T", "location 0", "dtype"}, "cholesky", ""},
		{"trsm", []string{"m", "n", "T", "location 0", "location 1", "alpha", "diag", "dtype"}, "gemm", ""},
		{"gemm-cublasxt", []string{"m", "n", "k", "T", "location 0", "location 1", "location 2", "alpha", "beta", "dtype"}, "gemm-noreuse", ""},
		{"gemm-blasx", []string{"m", "n", "k", "T", "location 0", "location 1", "location 2", "alpha", "beta", "TransA", "TransB", "dtype"}, "gemm", ""},
		{"axpy-unified", []string{"n", "location 0", "location 1", "alpha"}, "axpy", ""},
	}
	base := reqShape{dt: kernelmodel.F64, m: 64, n: 48, k: 32, T: 16}
	check := func(t *testing.T, err error, routine, field string) {
		t.Helper()
		if !errors.Is(err, ErrPlanMismatch) {
			t.Fatalf("got %v, want ErrPlanMismatch", err)
		}
		if msg := err.Error(); !strings.Contains(msg, routine) || !strings.Contains(msg, field) {
			t.Errorf("error %q does not name routine %q and field %q", msg, routine, field)
		}
	}
	for _, rt := range routines {
		c := newCtx(false)
		p, err := c.Plan(buildReq(t, c, rt.name, base))
		if err != nil {
			t.Fatalf("%s: %v", rt.name, err)
		}
		// The syrk request is a gemm request: its plan and errors say so.
		keyRoutine := p.Routine
		for _, f := range rt.fields {
			t.Run(rt.name+"/"+f, func(t *testing.T) {
				s := base
				perturb[f](&s)
				want := f
				if f == "n" && (rt.name == "syrk" || rt.name == "cholesky" || rt.name == "lu") {
					want = "m" // square routines carry n as both m and n
				}
				_, err := c.Enqueue(p, buildReq(t, c, rt.name, s))
				check(t, err, keyRoutine, want)
			})
		}
		t.Run(rt.name+"/routine", func(t *testing.T) {
			twin, err := c.Plan(buildReq(t, c, rt.twin, base))
			if err != nil {
				t.Fatal(err)
			}
			_, err = c.Enqueue(twin, buildReq(t, c, rt.name, base))
			want := rt.twinField
			if want == "" {
				want = "routine"
			}
			check(t, err, keyRoutine, want)
		})
		t.Run(rt.name+"/nil", func(t *testing.T) {
			_, err := c.Enqueue(nil, buildReq(t, c, rt.name, base))
			check(t, err, keyRoutine, "nil plan")
		})
		// The unperturbed request still replays.
		if _, err := runWith(c, p, buildReq(t, c, rt.name, base)); err != nil {
			t.Errorf("%s: matching replay failed: %v", rt.name, err)
		}
	}
}
