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

// The replay tests pin the two sides of the one replay path to each
// other: a backed run (real operands; every transfer carries its host
// window and every kernel its payload) and a timing-only tape replay of
// the same plan must fire the identical simulation — the same kernels and
// transfers at the same virtual times, the same processed-event count and
// the same end time.

// replayEvent is one kernel or transfer as the hardware models saw it.
type replayEvent struct {
	kernel     string // "" for a transfer
	dir        machine.LinkDir
	bytes      int64
	start, end sim.Time
}

type replayTrace struct {
	end       sim.Time
	processed uint64
	events    []replayEvent
}

// replayOnce builds a fresh backed or timing-only context, lets build
// produce the plan and its bound arguments, replays it and drains the
// simulation, recording every kernel and transfer in completion order. It
// returns the trace, the plan and its arguments.
func replayOnce(t *testing.T, backed bool, build func(c *Context) (*plan.Plan, []plan.Arg)) (replayTrace, *plan.Plan, []plan.Arg) {
	t.Helper()
	c := newCtx(backed)
	var tr replayTrace
	c.rt.Device().SetKernelObserver(func(name string, start, end sim.Time) {
		tr.events = append(tr.events, replayEvent{kernel: name, start: start, end: end})
	})
	c.rt.Device().Link().SetObserver(func(dir machine.LinkDir, start, end sim.Time, bytes int64) {
		tr.events = append(tr.events, replayEvent{dir: dir, bytes: bytes, start: start, end: end})
	})
	p, args := build(c)
	if _, err := c.exec.RunTape(p.TapeFor(&c.rt.Device().Testbed().GPU), c.target(p), args); err != nil {
		t.Fatal(err)
	}
	end, err := c.rt.Sync()
	if err != nil {
		t.Fatal(err)
	}
	tr.end, tr.processed = end, c.rt.Engine().Processed()
	return tr, p, args
}

// checkTapeMatchesRun compares a backed run of the plan build makes with a
// timing-only replay of it.
func checkTapeMatchesRun(t *testing.T, name string, build func(c *Context) (*plan.Plan, []plan.Arg)) {
	t.Helper()
	ref, _, _ := replayOnce(t, true, build)
	got, _, _ := replayOnce(t, false, build)
	checkSameTrace(t, name, ref, got)
}

// checkSameTrace fails unless a timing-only replay fired exactly what the
// backed run did.
func checkSameTrace(t *testing.T, name string, ref, got replayTrace) {
	t.Helper()
	if got.end != ref.end || got.processed != ref.processed || len(got.events) != len(ref.events) {
		t.Fatalf("%s: timing-only replay diverged from the backed run: end %v / %v, %d / %d events processed, %d / %d kernels and transfers",
			name, got.end, ref.end, got.processed, ref.processed, len(got.events), len(ref.events))
	}
	for i := range ref.events {
		if got.events[i] != ref.events[i] {
			t.Fatalf("%s: event %d diverged: backed %+v, timing-only %+v", name, i, ref.events[i], got.events[i])
		}
	}
	if len(ref.events) == 0 {
		t.Errorf("%s: the backed run fired no kernel or transfer", name)
	}
}

// TestTapeReplayMatchesRun runs every schedule family backed and replays
// it timing-only, demanding the identical fired sequence.
func TestTapeReplayMatchesRun(t *testing.T) {
	H, D := model.OnHost, model.OnDevice
	gemm := func(dt kernelmodel.Dtype, transA, transB byte, m, n, k, T int, alpha, beta float64,
		locs [3]model.Loc, dispatch float64) func(c *Context) (*plan.Plan, []plan.Arg) {
		return func(c *Context) (*plan.Plan, []plan.Arg) {
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
				A: testMat(t, c, dt, ar, ac, locs[0], 0),
				B: testMat(t, c, dt, br, bc, locs[1], 0),
				C: testMat(t, c, dt, m, n, locs[2], 0),
			}
			return planArgs(t, c, GemmBlasxOpts{GemmOpts: opts, DispatchS: dispatch})
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
				A: testMat(t, c, kernelmodel.F64, 96, 64, H, 0),
				B: testMat(t, c, kernelmodel.F64, 64, 96, H, 0),
				C: testMat(t, c, kernelmodel.F64, 96, 96, H, 0),
			}
			return planArgs(t, c, GemmNoReuseOpts(opts))
		})
	})
	t.Run("gemm-cublasxt", func(t *testing.T) {
		checkTapeMatchesRun(t, "gemm-cublasxt", func(c *Context) (*plan.Plan, []plan.Arg) {
			opts := GemmOpts{
				Dtype: kernelmodel.F64, M: 100, N: 96, K: 70, Alpha: 1, Beta: 1, T: 32,
				A: testMat(t, c, kernelmodel.F64, 100, 70, D, 0),
				B: testMat(t, c, kernelmodel.F64, 70, 96, H, 0),
				C: testMat(t, c, kernelmodel.F64, 100, 96, H, 0),
			}
			return planArgs(t, c, GemmXtOpts(opts))
		})
	})
	t.Run("axpy-unified", func(t *testing.T) {
		checkTapeMatchesRun(t, "axpy-unified", func(c *Context) (*plan.Plan, []plan.Arg) {
			n := 2*UnifiedPrefetchElems + 1000
			opts := AxpyUnifiedOpts{
				N: n, Alpha: 1.1,
				X: testVec(t, c, n, model.OnHost, 0),
				Y: testVec(t, c, n, model.OnHost, 0),
			}
			return planArgs(t, c, opts)
		})
	})
	t.Run("gemv", func(t *testing.T) {
		checkTapeMatchesRun(t, "gemv", func(c *Context) (*plan.Plan, []plan.Arg) {
			opts := GemvOpts{
				M: 96, N: 64, Alpha: 1.25, Beta: 0.75, T: 32,
				A: testMat(t, c, kernelmodel.F64, 96, 64, H, 0),
				X: testVec(t, c, 64, model.OnHost, 0),
				Y: testVec(t, c, 96, model.OnHost, 0),
			}
			return planArgs(t, c, opts)
		})
	})
	t.Run("axpy", func(t *testing.T) {
		checkTapeMatchesRun(t, "axpy", func(c *Context) (*plan.Plan, []plan.Arg) {
			opts := AxpyOpts{
				N: 1000, Alpha: 1.1, T: 256,
				X: testVec(t, c, 1000, model.OnHost, 0),
				Y: testVec(t, c, 1000, model.OnHost, 0),
			}
			return planArgs(t, c, opts)
		})
	})
	t.Run("cholesky", func(t *testing.T) {
		checkTapeMatchesRun(t, "cholesky", func(c *Context) (*plan.Plan, []plan.Arg) {
			opts := CholeskyOpts{Dtype: kernelmodel.F64, N: 100, T: 32,
				A: testMat(t, c, kernelmodel.F64, 100, 100, H, 0)}
			return planArgs(t, c, opts)
		})
	})
	t.Run("cholesky-device", func(t *testing.T) {
		checkTapeMatchesRun(t, "cholesky-device", func(c *Context) (*plan.Plan, []plan.Arg) {
			opts := CholeskyOpts{Dtype: kernelmodel.F64, N: 96, T: 32,
				A: testMat(t, c, kernelmodel.F64, 96, 96, D, 0)}
			return planArgs(t, c, opts)
		})
	})
	t.Run("lu", func(t *testing.T) {
		checkTapeMatchesRun(t, "lu", func(c *Context) (*plan.Plan, []plan.Arg) {
			opts := LUOpts{Dtype: kernelmodel.F64, N: 100, T: 32,
				A: testMat(t, c, kernelmodel.F64, 100, 100, H, 0)}
			return planArgs(t, c, opts)
		})
	})
	t.Run("trsm", func(t *testing.T) {
		checkTapeMatchesRun(t, "trsm", func(c *Context) (*plan.Plan, []plan.Arg) {
			opts := TrsmOpts{Dtype: kernelmodel.F64, M: 96, N: 64, Alpha: 0.75, T: 32,
				A: testMat(t, c, kernelmodel.F64, 96, 96, H, 0),
				B: testMat(t, c, kernelmodel.F64, 96, 64, H, 0)}
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
	pooled, err := c.exec.RunTape(tape, plan.Target{Streams: c.streams, Alloc: c}, nil)
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
