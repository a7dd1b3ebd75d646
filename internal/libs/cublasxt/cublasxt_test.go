// Package cublasxt holds the tests of the cuBLASXt comparator, which runs
// as the scheduler request sched.GemmXtOpts over plan.BuildGemmXt.
package cublasxt

import (
	"math"
	"math/rand"
	"testing"

	"cocopelia/internal/blas"
	"cocopelia/internal/cudart"
	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/model"
	"cocopelia/internal/operand"
	"cocopelia/internal/plan"
	"cocopelia/internal/sched"
	"cocopelia/internal/sim"
)

func newCtx(backed bool) (*sched.Context, *cudart.Runtime) {
	rt := cudart.New(device.New(sim.New(), machine.TestbedI(), 1, true))
	return sched.NewContext(rt, backed), rt
}

func randMat(rng *rand.Rand, rows, cols int) []float64 {
	s := make([]float64, rows*cols)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// hostGemm is the timing-only m x m x m request with host operands.
func hostGemm(m, T int) sched.GemmXtOpts {
	return sched.GemmXtOpts{
		Dtype: kernelmodel.F64, M: m, N: m, K: m, Alpha: 1, Beta: 1,
		A: operand.HostMatrix(m, m, nil),
		B: operand.HostMatrix(m, m, nil),
		C: operand.HostMatrix(m, m, nil),
		T: T,
	}
}

func TestGemmFunctionalAllCombos(t *testing.T) {
	for _, combo := range model.LocCombos(3) {
		ctx, rt := newCtx(true)
		m, n, k, T := 96, 64, 80, 32
		rng := rand.New(rand.NewSource(5))
		hostA := randMat(rng, m, k)
		hostB := randMat(rng, k, n)
		hostC := randMat(rng, m, n)
		ref := append([]float64(nil), hostC...)
		if err := blas.Dgemm(blas.NoTrans, blas.NoTrans, m, n, k, 1.5, hostA, m, hostB, k, 0.5, ref, m); err != nil {
			t.Fatal(err)
		}
		mat := func(rows, cols int, host []float64, loc model.Loc) *operand.Matrix {
			if loc == model.OnHost {
				return operand.HostMatrix(rows, cols, host)
			}
			buf, err := rt.Malloc(kernelmodel.F64, int64(rows*cols), true)
			if err != nil {
				t.Fatal(err)
			}
			s := rt.NewStream()
			if _, err := s.MemcpyH2DAsync(buf, 0, host, nil, int64(rows*cols)); err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Sync(); err != nil {
				t.Fatal(err)
			}
			return &operand.Matrix{Rows: rows, Cols: cols, Loc: model.OnDevice, Dev: buf, DevLd: rows}
		}
		A := mat(m, k, hostA, combo[0])
		B := mat(k, n, hostB, combo[1])
		C := mat(m, n, hostC, combo[2])
		if _, err := ctx.Run(sched.GemmXtOpts{
			Dtype: kernelmodel.F64, M: m, N: n, K: k, Alpha: 1.5, Beta: 0.5,
			A: A, B: B, C: C, T: T,
		}); err != nil {
			t.Fatalf("combo %v: %v", combo, err)
		}
		got := hostC
		if combo[2] == model.OnDevice {
			got = make([]float64, m*n)
			s := rt.NewStream()
			if _, err := s.MemcpyD2HAsync(got, nil, C.Dev, 0, int64(m*n)); err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		var d float64
		for i := range ref {
			d = math.Max(d, math.Abs(got[i]-ref[i]))
		}
		if d > 1e-10 {
			t.Errorf("combo %v: result differs by %g", combo, d)
		}
	}
}

func TestGemmNoReuseTransferVolume(t *testing.T) {
	// cuBLASXt re-fetches inputs per sub-kernel: h2d volume must be
	// A*nt + B*mt + C (full offload), far above the reuse-aware |A|+|B|+|C|.
	ctx, _ := newCtx(false)
	m, T := 512, 128 // mt = nt = kt = 4
	res, err := ctx.Run(hostGemm(m, T))
	if err != nil {
		t.Fatal(err)
	}
	matBytes := int64(m*m) * 8
	want := matBytes*4 + matBytes*4 + matBytes // A*nt + B*mt + C
	if res.BytesH2D != want {
		t.Errorf("h2d bytes = %d, want %d (no reuse)", res.BytesH2D, want)
	}
	if res.BytesD2H != matBytes {
		t.Errorf("d2h bytes = %d, want %d", res.BytesD2H, matBytes)
	}
	if res.Subkernels != 64 {
		t.Errorf("subkernels = %d, want 64", res.Subkernels)
	}
}

func TestStagingMemoryBounded(t *testing.T) {
	// Device memory must stay at the staging-slot footprint, not the
	// transfer volume.
	ctx, rt := newCtx(false)
	m, T := 2048, 512
	if _, err := ctx.Run(hostGemm(m, T)); err != nil {
		t.Fatal(err)
	}
	slotBytes := int64(T*T) * 8
	maxStaging := slotBytes * 3 * plan.XtStreams // 3 slots per worker
	if peak := rt.Device().MemPeak(); peak > maxStaging {
		t.Errorf("staging peak %d exceeds bound %d", peak, maxStaging)
	}
	if err := ctx.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	if used := rt.Device().MemUsed(); used != 0 {
		t.Errorf("ReleaseAll left %d bytes", used)
	}
}

func TestMoreStreamsOverlapBetter(t *testing.T) {
	// A single worker serializes fetch/compute; four workers pipeline. The
	// single-worker plan is the one a device with staging room for only
	// one worker gets.
	m, T := 4096, 1024
	run := func(freeBytes int64) float64 {
		ctx, _ := newCtx(false)
		req := hostGemm(m, T)
		p := plan.BuildGemmXt(plan.GemmSpec{
			Dtype: kernelmodel.F64, TransA: blas.NoTrans, TransB: blas.NoTrans,
			M: m, N: m, K: m, Alpha: 1, Beta: 1, T: T,
		}, freeBytes)
		pend, err := ctx.Enqueue(p, req)
		if err != nil {
			t.Fatal(err)
		}
		end, err := ctx.Runtime().Sync()
		if err != nil {
			t.Fatal(err)
		}
		return pend.Finish(end).Seconds
	}
	group := int64(3*T*T) * 8
	if t4, t1 := run(1<<40), run(group+group/8); t4 >= t1 {
		t.Errorf("4 streams (%g) should beat 1 stream (%g)", t4, t1)
	}
}

func TestValidation(t *testing.T) {
	ctx, _ := newCtx(false)
	ok := operand.HostMatrix(64, 64, nil)
	cases := []sched.GemmXtOpts{
		{Dtype: kernelmodel.F64, M: 0, N: 64, K: 64, A: ok, B: ok, C: ok, T: 32},
		{Dtype: kernelmodel.F64, M: 64, N: 64, K: 64, A: ok, B: ok, C: ok, T: 0},
		{Dtype: kernelmodel.F64, M: 64, N: 64, K: 64, A: nil, B: ok, C: ok, T: 32},
		{Dtype: kernelmodel.F64, M: 32, N: 64, K: 64, A: ok, B: ok, C: ok, T: 32},
		{Dtype: kernelmodel.F64, TransA: blas.Trans, M: 64, N: 64, K: 64, A: ok, B: ok, C: ok, T: 32},
	}
	for i, opts := range cases {
		if _, err := ctx.Run(opts); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestDefaultStreams(t *testing.T) {
	// With room to stage every worker, the plan deals tiles to all
	// plan.XtStreams worker streams, one op stream each.
	ctx, _ := newCtx(false)
	p, err := ctx.Plan(hostGemm(512, 128))
	if err != nil {
		t.Fatal(err)
	}
	if p.Streams != plan.XtStreams {
		t.Errorf("streams = %d, want %d", p.Streams, plan.XtStreams)
	}
	used := map[uint8]bool{}
	for _, o := range p.Ops {
		if o.Kind == plan.OpKernel {
			used[o.Stream] = true
		}
	}
	if len(used) != plan.XtStreams {
		t.Errorf("kernels ran on %d streams, want %d", len(used), plan.XtStreams)
	}
}

func TestHugeTilesClampWorkers(t *testing.T) {
	// A tile near the problem size would need 4 workers x 3 slots of
	// ~1.2 GB each — more than the K40's memory. The plan must shrink
	// its worker set and still run (the regression behind the paper-scale
	// Fig. 1 sweep).
	ctx, rt := newCtx(false)
	res, err := ctx.Run(hostGemm(16384, 12032))
	if err != nil {
		t.Fatalf("huge-tile gemm failed: %v", err)
	}
	if res.Subkernels != 8 { // ceil(16384/12032)^3 = 2^3
		t.Errorf("subkernels = %d, want 8", res.Subkernels)
	}
	dev := rt.Device()
	if dev.MemPeak() > dev.Testbed().GPU.MemBytes {
		t.Errorf("peak %d exceeds device memory", dev.MemPeak())
	}
}

func TestHugeTileSingleTileDegenerate(t *testing.T) {
	// T >= every dimension: one sub-kernel, serial offload, still correct
	// functionally.
	ctx, _ := newCtx(true)
	m := 48
	rng := rand.New(rand.NewSource(71))
	hostA := randMat(rng, m, m)
	hostB := randMat(rng, m, m)
	hostC := make([]float64, m*m)
	ref := make([]float64, m*m)
	if err := blas.Dgemm(blas.NoTrans, blas.NoTrans, m, m, m, 1, hostA, m, hostB, m, 0, ref, m); err != nil {
		t.Fatal(err)
	}
	res, err := ctx.Run(sched.GemmXtOpts{
		Dtype: kernelmodel.F64, M: m, N: m, K: m, Alpha: 1, Beta: 0,
		A: operand.HostMatrix(m, m, hostA),
		B: operand.HostMatrix(m, m, hostB),
		C: operand.HostMatrix(m, m, hostC),
		T: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Subkernels != 1 {
		t.Errorf("subkernels = %d, want 1", res.Subkernels)
	}
	var d float64
	for i := range ref {
		d = math.Max(d, math.Abs(hostC[i]-ref[i]))
	}
	if d > 1e-10 {
		t.Errorf("single-tile result differs by %g", d)
	}
}
