package sched

import (
	"fmt"
	"math"
	"testing"

	"cocopelia/internal/blas"
	"cocopelia/internal/cudart"
	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/model"
	"cocopelia/internal/plan"
	"cocopelia/internal/sim"
)

// The replay tests pin the two sides of the one replay path to each
// other: a backed replay (real operands, whose transfers and kernels run as
// a job at Sync) and a timing-only replay of the same plan must fire the
// identical simulation — the same kernels and transfers at the same virtual
// times, the same processed-event count and the same end time.

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

// observe appends every kernel and transfer c's device fires from now on
// to tr.events, in completion order.
func observe(c *Context, tr *replayTrace) {
	c.rt.Device().SetKernelObserver(func(name string, start, end sim.Time) {
		tr.events = append(tr.events, replayEvent{kernel: name, start: start, end: end})
	})
	c.rt.Device().Link().SetObserver(func(dir machine.LinkDir, start, end sim.Time, bytes int64) {
		tr.events = append(tr.events, replayEvent{dir: dir, bytes: bytes, start: start, end: end})
	})
}

// replayOnce builds a fresh backed or timing-only context, lets build
// produce the plan and its bound arguments, replays it and drains the
// simulation, recording every kernel and transfer in completion order. It
// returns the trace, the plan and its arguments.
func replayOnce(t *testing.T, backed bool, build func(c *Context) (*plan.Plan, []plan.Arg)) (replayTrace, *plan.Plan, []plan.Arg) {
	t.Helper()
	c := newCtx(backed)
	var tr replayTrace
	observe(c, &tr)
	p, args := build(c)
	if _, err := c.exec.Run(p, &c.rt.Device().Testbed().GPU, c.target(p), args); err != nil {
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
	if got.end != ref.end || got.processed != ref.processed {
		t.Fatalf("%s: timing-only replay diverged from the backed run: end %v / %v, %d / %d events processed",
			name, got.end, ref.end, got.processed, ref.processed)
	}
	checkSameEvents(t, name+" timing-only replay vs backed run", got.events, ref.events)
	if len(ref.events) == 0 {
		t.Errorf("%s: the backed run fired no kernel or transfer", name)
	}
}

// checkSameEvents fails unless got holds exactly the kernels and transfers
// want does, in the same order.
func checkSameEvents(t *testing.T, what string, got, want []replayEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d kernels and transfers fired, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: kernel or transfer %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestTapeReplayMatchesRun runs every schedule family backed and replays
// it timing-only, demanding the identical fired sequence. (The name
// predates the removal of the compiled replay tape; both runs replay the
// plan itself.)
func TestTapeReplayMatchesRun(t *testing.T) {
	H, D := model.OnHost, model.OnDevice
	gemm := func(dt kernelmodel.Dtype, transA, transB byte, m, n, k, T int, alpha, beta float64,
		locs [3]model.Loc, blasx bool) func(c *Context) (*plan.Plan, []plan.Arg) {
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
			if blasx {
				return planArgs(t, c, GemmBlasxOpts(opts))
			}
			return planArgs(t, c, opts)
		}
	}

	t.Run("gemm-hhh", func(t *testing.T) {
		checkTapeMatchesRun(t, "gemm-hhh",
			gemm(kernelmodel.F64, blas.NoTrans, blas.NoTrans, 96, 64, 80, 32, 1.5, 0.5, [3]model.Loc{H, H, H}, false))
	})
	t.Run("gemm-dhd-beta0", func(t *testing.T) {
		checkTapeMatchesRun(t, "gemm-dhd-beta0",
			gemm(kernelmodel.F64, blas.NoTrans, blas.NoTrans, 64, 96, 64, 32, 2, 0, [3]model.Loc{D, H, D}, false))
	})
	t.Run("gemm-f32-trans-dispatch", func(t *testing.T) {
		checkTapeMatchesRun(t, "gemm-f32-trans-dispatch",
			gemm(kernelmodel.F32, blas.Trans, blas.NoTrans, 64, 64, 96, 32, 1, 1, [3]model.Loc{H, H, H}, true))
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

// replayFixture builds a warm timing-only context with a gemm plan: after
// one replay every free list, scratch buffer and memo entry is primed.
func replayFixture(tb testing.TB, m, n, k, T int) (*Context, *plan.Plan) {
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
	replayPlanOnce(tb, c, p)
	return c, p
}

// replayPlanOnce replays the plan, drains the engine and releases the
// staging buffers back to the pool.
func replayPlanOnce(tb testing.TB, c *Context, p *plan.Plan) {
	pooled, err := c.exec.Run(p, &c.rt.Device().Testbed().GPU, plan.Target{Streams: c.streams, Alloc: c}, nil)
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

// TestReplayZeroAlloc gates the batched replay loop at zero allocations
// per replay once the context is warm: the executor scratch and kernel
// memo, the cudart op/event free lists, the link transfer free list and
// the engine event free list must all recycle.
func TestReplayZeroAlloc(t *testing.T) {
	c, p := replayFixture(t, 256, 256, 256, 64)
	replayPlanOnce(t, c, p) // second warm-up: pool buckets at steady state
	allocs := testing.AllocsPerRun(10, func() {
		replayPlanOnce(t, c, p)
	})
	if allocs != 0 {
		t.Fatalf("plan replay allocates %.1f objects per run, want 0", allocs)
	}
}

// TestReplayAcrossGPUModels replays plans on one context whose runtime
// moves from a Testbed I device to a Testbed II device and back: the
// executor's kernel-duration memo must follow the GPU model, so every
// replay's result and fired kernels and transfers equal those of a fresh
// context on that testbed, bit for bit.
func TestReplayAcrossGPUModels(t *testing.T) {
	H := model.OnHost
	reqs := map[string]Request{
		"gemm": GemmOpts{Dtype: kernelmodel.F64, M: 300, N: 200, K: 250, Alpha: 1, Beta: 1, T: 128,
			A: &Matrix{Rows: 300, Cols: 250, Loc: H, HostLd: 300},
			B: &Matrix{Rows: 250, Cols: 200, Loc: H, HostLd: 250},
			C: &Matrix{Rows: 300, Cols: 200, Loc: H, HostLd: 300}},
		"cholesky": CholeskyOpts{Dtype: kernelmodel.F64, N: 300, T: 128,
			A: &Matrix{Rows: 300, Cols: 300, Loc: H, HostLd: 300}},
	}
	onDevice := func(tb *machine.Testbed) *device.Device {
		return device.New(sim.New(), tb, 3, false)
	}
	run := func(c *Context, p *plan.Plan, r Request) (Result, replayTrace) {
		var tr replayTrace
		observe(c, &tr)
		res, err := runWith(c, p, r)
		if err != nil {
			t.Fatal(err)
		}
		return res, tr
	}
	for _, name := range []string{"gemm", "cholesky"} {
		r := reqs[name]
		c := NewContext(cudart.New(onDevice(machine.TestbedI())), false)
		p, err := c.Plan(r)
		if err != nil {
			t.Fatal(err)
		}
		for i, tb := range []*machine.Testbed{machine.TestbedI(), machine.TestbedII(), machine.TestbedI()} {
			if i > 0 {
				// Rebind the runtime to a fresh device; it drops its
				// streams, so the context takes new ones.
				c.rt.Reset(onDevice(tb))
				c.Reset()
				c.streams = c.streams[:0]
				c.growStreams(int(plan.StreamComp) + 1)
			}
			got, gotTr := run(c, p, r)
			want, wantTr := run(NewContext(cudart.New(onDevice(tb)), false), p, r)
			if math.Float64bits(got.Seconds) != math.Float64bits(want.Seconds) || got != want {
				t.Errorf("%s replay %d on %s: result %+v, fresh context %+v", name, i, tb.Name, got, want)
			}
			checkSameEvents(t, fmt.Sprintf("%s replay %d on %s vs a fresh context", name, i, tb.Name), gotTr.events, wantTr.events)
		}
	}
}

// BenchmarkReplay measures one full batched plan replay — the op walk
// plus simulation drain — on a warm context.
func BenchmarkReplay(b *testing.B) {
	c, p := replayFixture(b, 1024, 1024, 1024, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayPlanOnce(b, c, p)
	}
}
