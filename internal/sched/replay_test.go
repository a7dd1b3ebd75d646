package sched

import (
	"testing"

	"cocopelia/internal/blas"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/model"
	"cocopelia/internal/plan"
	"cocopelia/internal/sim"
)

// The tape-replay tests pin plan.RunTape to the reference Executor.Run on
// timing-only contexts: both paths must issue the identical stream-call
// sequence and therefore produce the identical simulation — same end time,
// same processed-event count, same per-direction link traffic.

// timingMat returns a storage-free operand at loc (device buffers are
// allocated unbacked when needed).
func timingMat(t *testing.T, c *Context, rows, cols int, loc model.Loc) *Matrix {
	t.Helper()
	if loc == model.OnHost {
		return &Matrix{Rows: rows, Cols: cols, Loc: model.OnHost, HostLd: rows}
	}
	buf, err := c.rt.Malloc(kernelmodel.F64, int64(rows)*int64(cols), false)
	if err != nil {
		t.Fatal(err)
	}
	return &Matrix{Rows: rows, Cols: cols, Loc: model.OnDevice, Dev: buf, DevLd: rows}
}

type replayTrace struct {
	end       sim.Time
	processed uint64
	h2d, d2h  int64 // link bytes
	transfers int64
}

// replayOnce builds a fresh timing-only context, lets build produce the
// plan and its bound arguments, replays through the selected path, and
// drains the simulation.
func replayOnce(t *testing.T, tape bool, build func(c *Context) (*plan.Plan, []plan.Arg)) replayTrace {
	t.Helper()
	c := newCtx(false)
	p, args := build(c)
	var err error
	if tape {
		_, err = c.exec.RunTape(p.TapeFor(&c.rt.Device().Testbed().GPU), c.target())
	} else {
		_, err = c.exec.Run(p, c.target(), args)
	}
	if err != nil {
		t.Fatal(err)
	}
	end, err := c.rt.Sync()
	if err != nil {
		t.Fatal(err)
	}
	lk := c.rt.Device().Link()
	h2d, d2h := lk.Stats(machine.H2D), lk.Stats(machine.D2H)
	return replayTrace{
		end:       end,
		processed: c.rt.Engine().Processed(),
		h2d:       h2d.Bytes,
		d2h:       d2h.Bytes,
		transfers: h2d.Transfers + d2h.Transfers,
	}
}

func checkTapeMatchesRun(t *testing.T, name string, build func(c *Context) (*plan.Plan, []plan.Arg)) {
	t.Helper()
	ref := replayOnce(t, false, build)
	got := replayOnce(t, true, build)
	if got != ref {
		t.Errorf("%s: tape replay diverged from Executor.Run:\n  run  %+v\n  tape %+v", name, ref, got)
	}
	if ref.processed == 0 {
		t.Errorf("%s: reference replay processed no events", name)
	}
}

func TestTapeReplayMatchesRun(t *testing.T) {
	H, D := model.OnHost, model.OnDevice
	gemm := func(dt kernelmodel.Dtype, transA, transB byte, m, n, k, T int, alpha, beta float64,
		locs [3]model.Loc, dispatch float64) func(c *Context) (*plan.Plan, []plan.Arg) {
		return func(c *Context) (*plan.Plan, []plan.Arg) {
			c.SetDispatchOverhead(dispatch)
			ar, ac := m, k
			if transA == blas.Trans {
				ar, ac = k, m
			}
			br, bc := k, n
			if transB == blas.Trans {
				br, bc = n, k
			}
			opts := GemmOpts{
				Dtype: dt, TransA: transA, TransB: transB,
				M: m, N: n, K: k, Alpha: alpha, Beta: beta, T: T,
				A: timingMat(t, c, ar, ac, locs[0]),
				B: timingMat(t, c, br, bc, locs[1]),
				C: timingMat(t, c, m, n, locs[2]),
			}
			return planArgs(t, c, opts)
		}
	}

	t.Run("gemm-hhh", func(t *testing.T) {
		checkTapeMatchesRun(t, "gemm-hhh",
			gemm(kernelmodel.F64, blas.NoTrans, blas.NoTrans, 96, 64, 80, 32, 1.5, 0.5, [3]model.Loc{H, H, H}, 0))
	})
	t.Run("gemm-dhd-beta0", func(t *testing.T) {
		checkTapeMatchesRun(t, "gemm-dhd-beta0",
			gemm(kernelmodel.F64, blas.NoTrans, blas.NoTrans, 64, 96, 64, 32, 2, 0, [3]model.Loc{D, H, D}, 0))
	})
	t.Run("gemm-f32-trans-dispatch", func(t *testing.T) {
		checkTapeMatchesRun(t, "gemm-f32-trans-dispatch",
			gemm(kernelmodel.F32, blas.Trans, blas.NoTrans, 64, 64, 96, 32, 1, 1, [3]model.Loc{H, H, H}, 1e-5))
	})
	t.Run("gemm-noreuse", func(t *testing.T) {
		checkTapeMatchesRun(t, "gemm-noreuse", func(c *Context) (*plan.Plan, []plan.Arg) {
			opts := GemmOpts{
				Dtype: kernelmodel.F64, M: 96, N: 96, K: 64, Alpha: 1, Beta: 1, T: 32,
				A: timingMat(t, c, 96, 64, H),
				B: timingMat(t, c, 64, 96, H),
				C: timingMat(t, c, 96, 96, H),
			}
			return planArgs(t, c, GemmNoReuseOpts(opts))
		})
	})
	t.Run("gemv", func(t *testing.T) {
		checkTapeMatchesRun(t, "gemv", func(c *Context) (*plan.Plan, []plan.Arg) {
			opts := GemvOpts{
				M: 96, N: 64, Alpha: 1.25, Beta: 0.75, T: 32,
				A: timingMat(t, c, 96, 64, H),
				X: &Vector{N: 64, Loc: model.OnHost},
				Y: &Vector{N: 96, Loc: model.OnHost},
			}
			return planArgs(t, c, opts)
		})
	})
	t.Run("axpy", func(t *testing.T) {
		checkTapeMatchesRun(t, "axpy", func(c *Context) (*plan.Plan, []plan.Arg) {
			opts := AxpyOpts{
				N: 1000, Alpha: 1.1, T: 256,
				X: &Vector{N: 1000, Loc: model.OnHost},
				Y: &Vector{N: 1000, Loc: model.OnHost},
			}
			return planArgs(t, c, opts)
		})
	})
	t.Run("cholesky", func(t *testing.T) {
		checkTapeMatchesRun(t, "cholesky", func(c *Context) (*plan.Plan, []plan.Arg) {
			opts := CholeskyOpts{Dtype: kernelmodel.F64, N: 100, T: 32,
				A: timingMat(t, c, 100, 100, H)}
			return planArgs(t, c, opts)
		})
	})
	t.Run("cholesky-device", func(t *testing.T) {
		checkTapeMatchesRun(t, "cholesky-device", func(c *Context) (*plan.Plan, []plan.Arg) {
			opts := CholeskyOpts{Dtype: kernelmodel.F64, N: 96, T: 32,
				A: timingMat(t, c, 96, 96, D)}
			return planArgs(t, c, opts)
		})
	})
	t.Run("lu", func(t *testing.T) {
		checkTapeMatchesRun(t, "lu", func(c *Context) (*plan.Plan, []plan.Arg) {
			opts := LUOpts{Dtype: kernelmodel.F64, N: 100, T: 32,
				A: timingMat(t, c, 100, 100, H)}
			return planArgs(t, c, opts)
		})
	})
	t.Run("trsm", func(t *testing.T) {
		checkTapeMatchesRun(t, "trsm", func(c *Context) (*plan.Plan, []plan.Arg) {
			opts := TrsmOpts{Dtype: kernelmodel.F64, M: 96, N: 64, Alpha: 0.75, T: 32,
				A: timingMat(t, c, 96, 96, H),
				B: timingMat(t, c, 96, 64, H)}
			return planArgs(t, c, opts)
		})
	})
}

// tapeFixture builds a warm timing-only context with a compiled gemm tape:
// after one replay every free list and scratch buffer is primed.
func tapeFixture(tb testing.TB, m, n, k, T int) (*Context, *plan.Tape) {
	c := newCtx(false)
	opts := GemmOpts{
		Dtype: kernelmodel.F64, M: m, N: n, K: k, Alpha: 1, Beta: 1, T: T,
		A: &Matrix{Rows: m, Cols: k, Loc: model.OnHost, HostLd: m},
		B: &Matrix{Rows: k, Cols: n, Loc: model.OnHost, HostLd: k},
		C: &Matrix{Rows: m, Cols: n, Loc: model.OnHost, HostLd: m},
	}
	p, err := c.Plan(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tape := p.TapeFor(&c.rt.Device().Testbed().GPU)
	replayTapeOnce(tb, c, tape)
	return c, tape
}

// replayTapeOnce replays the tape, drains the engine and releases the
// staging buffers back to the pool.
func replayTapeOnce(tb testing.TB, c *Context, tape *plan.Tape) {
	pooled, err := c.exec.RunTape(tape, c.target())
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := c.rt.Sync(); err != nil {
		tb.Fatal(err)
	}
	for _, b := range pooled {
		c.Release(b)
	}
}

// TestReplayTapeZeroAlloc gates the batched replay loop at zero
// allocations per replay once the context is warm: the tape, the executor
// scratch, the cudart op/event free lists, the link transfer free list and
// the engine event free list must all recycle.
func TestReplayTapeZeroAlloc(t *testing.T) {
	c, tape := tapeFixture(t, 256, 256, 256, 64)
	replayTapeOnce(t, c, tape) // second warm-up: pool buckets at steady state
	allocs := testing.AllocsPerRun(10, func() {
		replayTapeOnce(t, c, tape)
	})
	if allocs != 0 {
		t.Fatalf("tape replay allocates %.1f objects per run, want 0", allocs)
	}
}

// BenchmarkReplay measures one full batched plan replay — tape walk plus
// simulation drain — on a warm context.
func BenchmarkReplay(b *testing.B) {
	c, tape := tapeFixture(b, 1024, 1024, 1024, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayTapeOnce(b, c, tape)
	}
}
