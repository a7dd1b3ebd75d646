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
var reqRoutines = []string{"gemm", "gemm-noreuse", "gemv", "axpy", "syrk", "cholesky", "lu", "trsm"}

// buildReq materializes the shape's operands on c — storage-free host
// descriptors, unbacked device buffers — and returns the routine's
// request. Operand shapes follow the request's (valid) transpose flags;
// non-positive dimensions give 1-element operands, so the request itself
// must reject them.
func buildReq(t testing.TB, c *Context, routine string, s reqShape) Request {
	t.Helper()
	mat := func(dt kernelmodel.Dtype, rows, cols int, loc model.Loc) *Matrix {
		rows, cols = max(rows, 1), max(cols, 1)
		if loc == model.OnHost {
			return &Matrix{Rows: rows, Cols: cols, Loc: model.OnHost, HostLd: rows}
		}
		buf, err := c.rt.Malloc(dt, int64(rows)*int64(cols), false)
		if err != nil {
			t.Fatal(err)
		}
		return &Matrix{Rows: rows, Cols: cols, Loc: model.OnDevice, Dev: buf, DevLd: rows}
	}
	vec := func(n int, loc model.Loc) *Vector {
		n = max(n, 1)
		if loc == model.OnHost {
			return &Vector{N: n, Loc: model.OnHost}
		}
		buf, err := c.rt.Malloc(kernelmodel.F64, int64(n), false)
		if err != nil {
			t.Fatal(err)
		}
		return &Vector{N: n, Loc: model.OnDevice, Dev: buf}
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
	case "gemm", "gemm-noreuse":
		g := GemmOpts{
			Dtype: s.dt, TransA: s.transA, TransB: s.transB,
			M: s.m, N: s.n, K: s.k, Alpha: s.alpha, Beta: s.beta, T: s.T,
			A: mat(s.dt, ar, ac, s.locs[0]), B: mat(s.dt, br, bc, s.locs[1]), C: mat(s.dt, s.m, s.n, s.locs[2]),
		}
		if routine == "gemm-noreuse" {
			return GemmNoReuseOpts(g)
		}
		return g
	case "gemv":
		return GemvOpts{M: s.m, N: s.n, Alpha: s.alpha, Beta: s.beta, T: s.T,
			A: mat(kernelmodel.F64, s.m, s.n, s.locs[0]), X: vec(s.n, s.locs[1]), Y: vec(s.m, s.locs[2])}
	case "axpy":
		return AxpyOpts{N: s.n, Alpha: s.alpha, T: s.T, X: vec(s.n, s.locs[0]), Y: vec(s.n, s.locs[1])}
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
		name   string
		fields []string // perturbations the routine's key carries
		twin   string   // a routine whose plan the request must refuse
	}{
		{"gemm", []string{"m", "n", "k", "T", "location 0", "location 1", "location 2", "alpha", "beta", "TransA", "TransB", "dtype"}, "gemm-noreuse"},
		{"gemm-noreuse", []string{"m", "n", "k", "T", "location 0", "location 1", "location 2", "alpha", "beta", "dtype"}, "gemm"},
		{"gemv", []string{"m", "n", "T", "location 0", "location 1", "location 2", "alpha", "beta"}, "gemm"},
		{"axpy", []string{"n", "T", "location 0", "location 1", "alpha"}, "gemv"},
		{"syrk", []string{"n", "k", "T", "location 0", "location 2", "alpha", "beta", "TransA", "dtype"}, "gemm-noreuse"},
		{"cholesky", []string{"n", "T", "location 0", "dtype"}, "lu"},
		{"lu", []string{"n", "T", "location 0", "dtype"}, "cholesky"},
		{"trsm", []string{"m", "n", "T", "location 0", "location 1", "alpha", "diag", "dtype"}, "gemm"},
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
			check(t, err, keyRoutine, "routine")
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
