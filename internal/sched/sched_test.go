package sched

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
	"cocopelia/internal/plan"
	"cocopelia/internal/sim"
)

func newCtx(backed bool) *Context {
	eng := sim.New()
	dev := device.New(eng, machine.TestbedI(), 1, true)
	return NewContext(cudart.New(dev), backed)
}

// runReq is Context.Run over one concrete request type, so tables can
// hold it next to the reference schedulers' signatures.
func runReq[R Request](c *Context, r R) (Result, error) { return c.Run(r) }

// runWith replays a prebuilt plan for r, drains the engine and reports
// the run.
func runWith(c *Context, p *plan.Plan, r Request) (Result, error) {
	pend, err := c.Enqueue(p, r)
	if err != nil {
		return Result{}, err
	}
	end, err := c.rt.Sync()
	res := pend.Finish(end)
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// planArgs plans r and returns the plan with its operands in plan
// argument order.
func planArgs(t testing.TB, c *Context, r Request) (*plan.Plan, []plan.Arg) {
	t.Helper()
	cl, err := r.resolve(c)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(cl.key, c.freeBytes())
	if err != nil {
		t.Fatal(err)
	}
	return p, cl.args[:p.NLocs]
}

func randMat(rng *rand.Rand, rows, cols int) []float64 {
	s := make([]float64, rows*cols)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// deviceMatrix uploads host data into a device-resident Matrix.
func deviceMatrix(t *testing.T, c *Context, rows, cols int, host []float64) *Matrix {
	t.Helper()
	buf, err := c.rt.Malloc(kernelmodel.F64, int64(rows*cols), true)
	if err != nil {
		t.Fatal(err)
	}
	s := c.rt.NewStream()
	if _, err := s.MemcpyH2DAsync(buf, 0, host, nil, int64(rows*cols)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.rt.Sync(); err != nil {
		t.Fatal(err)
	}
	return &Matrix{Rows: rows, Cols: cols, Loc: model.OnDevice, Dev: buf, DevLd: rows}
}

func maxDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// runGemmCombo executes a tiled gemm with the given locations and checks
// the result against the reference BLAS.
func runGemmCombo(t *testing.T, m, n, k, T int, alpha, beta float64, locs [3]model.Loc) {
	t.Helper()
	c := newCtx(true)
	rng := rand.New(rand.NewSource(int64(m*n + k + T)))
	hostA := randMat(rng, m, k)
	hostB := randMat(rng, k, n)
	hostC := randMat(rng, m, n)
	ref := append([]float64(nil), hostC...)
	if err := blas.Dgemm(blas.NoTrans, blas.NoTrans, m, n, k, alpha, hostA, m, hostB, k, beta, ref, m); err != nil {
		t.Fatal(err)
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

	res, err := c.Run(GemmOpts{
		Dtype: kernelmodel.F64, M: m, N: n, K: k,
		Alpha: alpha, Beta: beta, A: A, B: B, C: C, T: T,
	})
	if err != nil {
		t.Fatalf("combo %v: %v", locs, err)
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
	if d := maxDiff(got, ref); d > 1e-10 {
		t.Errorf("combo %v: result differs from reference by %g", locs, d)
	}
	if res.Seconds <= 0 || res.Subkernels <= 0 {
		t.Errorf("combo %v: implausible result %+v", locs, res)
	}
}

func TestGemmAllLocationCombos(t *testing.T) {
	for _, combo := range model.LocCombos(3) {
		runGemmCombo(t, 96, 64, 80, 32, 1.0, 1.0, [3]model.Loc{combo[0], combo[1], combo[2]})
	}
}

func TestGemmRaggedTiles(t *testing.T) {
	// Dimensions not divisible by T exercise the edge-tile paths.
	runGemmCombo(t, 70, 45, 53, 32, 2.0, 0.5, [3]model.Loc{model.OnHost, model.OnHost, model.OnHost})
}

func TestGemmBetaZeroSkipsCFetch(t *testing.T) {
	c := newCtx(true)
	m, n, k, T := 64, 64, 64, 32
	rng := rand.New(rand.NewSource(2))
	hostA := randMat(rng, m, k)
	hostB := randMat(rng, k, n)
	hostC := make([]float64, m*n)
	for i := range hostC {
		hostC[i] = math.NaN() // must be fully overwritten, never fetched
	}
	res, err := c.Run(GemmOpts{
		Dtype: kernelmodel.F64, M: m, N: n, K: k, Alpha: 1, Beta: 0,
		A: &Matrix{Rows: m, Cols: k, Loc: model.OnHost, HostF64: hostA, HostLd: m},
		B: &Matrix{Rows: k, Cols: n, Loc: model.OnHost, HostF64: hostB, HostLd: k},
		C: &Matrix{Rows: m, Cols: n, Loc: model.OnHost, HostF64: hostC, HostLd: m},
		T: T,
	})
	if err != nil {
		t.Fatal(err)
	}
	// h2d volume must be A + B only.
	want := int64(m*k+k*n) * 8
	if res.BytesH2D != want {
		t.Errorf("h2d bytes = %d, want %d (no C fetch with beta=0)", res.BytesH2D, want)
	}
	ref := make([]float64, m*n)
	if err := blas.Dgemm(blas.NoTrans, blas.NoTrans, m, n, k, 1, hostA, m, hostB, k, 0, ref, m); err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(hostC, ref); d > 1e-10 {
		t.Errorf("beta=0 result differs by %g", d)
	}
}

func TestGemmSinglePrecision(t *testing.T) {
	c := newCtx(true)
	m, n, k, T := 48, 48, 48, 16
	hostA := make([]float32, m*k)
	hostB := make([]float32, k*n)
	hostC := make([]float32, m*n)
	rng := rand.New(rand.NewSource(3))
	for i := range hostA {
		hostA[i] = float32(rng.NormFloat64())
	}
	for i := range hostB {
		hostB[i] = float32(rng.NormFloat64())
	}
	ref := append([]float32(nil), hostC...)
	if err := blas.Sgemm(blas.NoTrans, blas.NoTrans, m, n, k, 1, hostA, m, hostB, k, 0, ref, m); err != nil {
		t.Fatal(err)
	}
	_, err := c.Run(GemmOpts{
		Dtype: kernelmodel.F32, M: m, N: n, K: k, Alpha: 1, Beta: 0,
		A: &Matrix{Rows: m, Cols: k, Loc: model.OnHost, HostF32: hostA, HostLd: m},
		B: &Matrix{Rows: k, Cols: n, Loc: model.OnHost, HostF32: hostB, HostLd: k},
		C: &Matrix{Rows: m, Cols: n, Loc: model.OnHost, HostF32: hostC, HostLd: m},
		T: T,
	})
	if err != nil {
		t.Fatal(err)
	}
	var d float64
	for i := range ref {
		d = math.Max(d, math.Abs(float64(hostC[i]-ref[i])))
	}
	if d > 1e-4 {
		t.Errorf("sgemm tiled result differs by %g", d)
	}
}

func TestGemmFullReuseTransferVolume(t *testing.T) {
	// Full offload: each input tile crosses the link exactly once, so the
	// h2d volume equals |A| + |B| + |C| regardless of the tile count.
	c := newCtx(false)
	m, n, k, T := 512, 512, 512, 128
	A := &Matrix{Rows: m, Cols: k, Loc: model.OnHost, HostLd: m}
	B := &Matrix{Rows: k, Cols: n, Loc: model.OnHost, HostLd: k}
	C := &Matrix{Rows: m, Cols: n, Loc: model.OnHost, HostLd: m}
	opts := GemmOpts{
		Dtype: kernelmodel.F64, M: m, N: n, K: k, Alpha: 1, Beta: 1,
		A: A, B: B, C: C, T: T,
	}
	res, err := c.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	wantIn := int64(m*k+k*n+m*n) * 8
	wantOut := int64(m*n) * 8
	if res.BytesH2D != wantIn {
		t.Errorf("h2d bytes = %d, want %d (full reuse)", res.BytesH2D, wantIn)
	}
	if res.BytesD2H != wantOut {
		t.Errorf("d2h bytes = %d, want %d", res.BytesD2H, wantOut)
	}
	wantK := int64(4 * 4 * 4)
	if res.Subkernels != wantK {
		t.Errorf("subkernels = %d, want %d", res.Subkernels, wantK)
	}
	// The invariant must hold at plan time too: the plan's annotations and
	// the closed-form volumes both predict the executed traffic.
	p, err := c.Plan(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := plan.Volumes{BytesH2D: wantIn, BytesD2H: wantOut, Subkernels: wantK}
	if v := p.Volumes(); v != want {
		t.Errorf("plan annotations = %+v, want %+v", v, want)
	}
	key := plan.Key{Routine: "gemm", Dtype: kernelmodel.F64, TransA: blas.NoTrans, TransB: blas.NoTrans,
		M: m, N: n, K: k, T: T, Alpha: math.Float64bits(1), Beta: math.Float64bits(1),
		Locs: [3]model.Loc{model.OnHost, model.OnHost, model.OnHost}, NLocs: 3}
	if v := plan.GemmVolumes(key); v != want {
		t.Errorf("closed-form volumes = %+v, want %+v", v, want)
	}
}

func TestGemmOverlapBeatsSerial(t *testing.T) {
	// The pipelined makespan must beat the no-overlap lower bound of
	// transfers + compute executed serially.
	c := newCtx(false)
	m := 4096
	T := 1024
	A := &Matrix{Rows: m, Cols: m, Loc: model.OnHost, HostLd: m}
	B := &Matrix{Rows: m, Cols: m, Loc: model.OnHost, HostLd: m}
	C := &Matrix{Rows: m, Cols: m, Loc: model.OnHost, HostLd: m}
	res, err := c.Run(GemmOpts{
		Dtype: kernelmodel.F64, M: m, N: m, K: m, Alpha: 1, Beta: 1,
		A: A, B: B, C: C, T: T,
	})
	if err != nil {
		t.Fatal(err)
	}
	tb := c.rt.Device().Testbed()
	gpu := &tb.GPU
	bytesIn := float64(3*m*m) * 8
	bytesOut := float64(m*m) * 8
	serial := bytesIn/tb.H2D.BandwidthBps + bytesOut/tb.D2H.BandwidthBps
	perTile := kernelmodel.GemmTime(gpu, kernelmodel.F64, T, T, T)
	serial += perTile * 64
	if res.Seconds >= serial {
		t.Errorf("makespan %g not better than serial bound %g", res.Seconds, serial)
	}
	// And it cannot beat the compute-only lower bound.
	if res.Seconds < perTile*64 {
		t.Errorf("makespan %g below compute bound %g", res.Seconds, perTile*64)
	}
}

func TestGemmValidation(t *testing.T) {
	c := newCtx(false)
	ok := &Matrix{Rows: 64, Cols: 64, Loc: model.OnHost, HostLd: 64}
	cases := []GemmOpts{
		{Dtype: kernelmodel.F64, M: 0, N: 64, K: 64, A: ok, B: ok, C: ok, T: 32},
		{Dtype: kernelmodel.F64, M: 64, N: 64, K: 64, A: ok, B: ok, C: ok, T: 0},
		{Dtype: kernelmodel.F64, M: 64, N: 64, K: 64, A: nil, B: ok, C: ok, T: 32},
		{Dtype: kernelmodel.F64, M: 64, N: 32, K: 64, A: ok, B: ok, C: ok, T: 32}, // shape mismatch
		{Dtype: kernelmodel.F64, M: 64, N: 64, K: 64,
			A: &Matrix{Rows: 64, Cols: 64, Loc: model.OnHost, HostLd: 10}, B: ok, C: ok, T: 32},
		{Dtype: kernelmodel.F64, M: 64, N: 64, K: 64,
			A: &Matrix{Rows: 64, Cols: 64, Loc: model.OnDevice}, B: ok, C: ok, T: 32}, // no dev buffer
	}
	for i, opts := range cases {
		if _, err := c.Run(opts); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestAxpyAllLocationCombos(t *testing.T) {
	for _, combo := range model.LocCombos(2) {
		c := newCtx(true)
		n, T := 1000, 256
		rng := rand.New(rand.NewSource(11))
		hostX := randMat(rng, n, 1)
		hostY := randMat(rng, n, 1)
		ref := append([]float64(nil), hostY...)
		if err := blas.Daxpy(n, 2.5, hostX, 1, ref, 1); err != nil {
			t.Fatal(err)
		}
		vec := func(host []float64, loc model.Loc) *Vector {
			if loc == model.OnHost {
				return &Vector{N: n, Loc: model.OnHost, HostF64: host}
			}
			buf, err := c.rt.Malloc(kernelmodel.F64, int64(n), true)
			if err != nil {
				t.Fatal(err)
			}
			s := c.rt.NewStream()
			if _, err := s.MemcpyH2DAsync(buf, 0, host, nil, int64(n)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.rt.Sync(); err != nil {
				t.Fatal(err)
			}
			return &Vector{N: n, Loc: model.OnDevice, Dev: buf}
		}
		x := vec(hostX, combo[0])
		y := vec(hostY, combo[1])
		res, err := c.Run(AxpyOpts{N: n, Alpha: 2.5, X: x, Y: y, T: T})
		if err != nil {
			t.Fatalf("combo %v: %v", combo, err)
		}
		got := hostY
		if combo[1] == model.OnDevice {
			got = make([]float64, n)
			s := c.rt.NewStream()
			if _, err := s.MemcpyD2HAsync(got, nil, y.Dev, 0, int64(n)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.rt.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if d := maxDiff(got, ref); d > 1e-12 {
			t.Errorf("combo %v: axpy differs by %g", combo, d)
		}
		if res.Subkernels != 4 {
			t.Errorf("combo %v: %d chunks, want 4", combo, res.Subkernels)
		}
	}
}

func TestAxpyValidation(t *testing.T) {
	c := newCtx(false)
	x := &Vector{N: 100, Loc: model.OnHost}
	if _, err := c.Run(AxpyOpts{N: 0, X: x, Y: x, T: 10}); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := c.Run(AxpyOpts{N: 100, X: x, Y: x, T: 0}); err == nil {
		t.Error("T=0 should error")
	}
	if _, err := c.Run(AxpyOpts{N: 100, X: nil, Y: x, T: 10}); err == nil {
		t.Error("nil x should error")
	}
	y := &Vector{N: 50, Loc: model.OnHost}
	if _, err := c.Run(AxpyOpts{N: 100, X: x, Y: y, T: 10}); err == nil {
		t.Error("length mismatch should error")
	}
}

// TestShortDeviceOperandRejected gives a request device-resident operands
// whose buffers are shorter than their shapes address. Timing-only and
// backed contexts alike must refuse them before anything is enqueued, not
// accept them or index past the buffer.
func TestShortDeviceOperandRejected(t *testing.T) {
	for _, backed := range []bool{false, true} {
		c := newCtx(backed)
		host := func(rows, cols int) *Matrix {
			m := &Matrix{Rows: rows, Cols: cols, Loc: model.OnHost, HostLd: rows}
			if backed {
				m.HostF64 = make([]float64, rows*cols)
			}
			return m
		}
		short, err := c.rt.Malloc(kernelmodel.F64, 10, backed)
		if err != nil {
			t.Fatal(err)
		}
		gemm := GemmOpts{Dtype: kernelmodel.F64, M: 64, N: 64, K: 64, Alpha: 1, Beta: 1, T: 32,
			A: &Matrix{Rows: 64, Cols: 64, Loc: model.OnDevice, Dev: short, DevLd: 64},
			B: host(64, 64), C: host(64, 64)}
		if _, err := c.Run(gemm); err == nil {
			t.Errorf("backed=%v: gemm with A on a 10-element buffer accepted", backed)
		}
		x := &Vector{N: 64, Loc: model.OnHost}
		if backed {
			x.HostF64 = make([]float64, 64)
		}
		axpy := AxpyOpts{N: 64, Alpha: 1, T: 32, X: x, Y: &Vector{N: 64, Loc: model.OnDevice, Dev: short}}
		if _, err := c.Run(axpy); err == nil {
			t.Errorf("backed=%v: axpy with y on a 10-element buffer accepted", backed)
		}
	}
}

func TestBufferPoolReuseAcrossCalls(t *testing.T) {
	// The second identical call must reuse pooled buffers: device memory
	// peak should not double.
	c := newCtx(false)
	opts := GemmOpts{
		Dtype: kernelmodel.F64, M: 512, N: 512, K: 512, Alpha: 1, Beta: 1,
		A: &Matrix{Rows: 512, Cols: 512, Loc: model.OnHost, HostLd: 512},
		B: &Matrix{Rows: 512, Cols: 512, Loc: model.OnHost, HostLd: 512},
		C: &Matrix{Rows: 512, Cols: 512, Loc: model.OnHost, HostLd: 512},
		T: 128,
	}
	if _, err := c.Run(opts); err != nil {
		t.Fatal(err)
	}
	peak1 := c.rt.Device().MemPeak()
	if _, err := c.Run(opts); err != nil {
		t.Fatal(err)
	}
	if peak2 := c.rt.Device().MemPeak(); peak2 != peak1 {
		t.Errorf("second call grew the memory peak: %d -> %d", peak1, peak2)
	}
	if err := c.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	if used := c.rt.Device().MemUsed(); used != 0 {
		t.Errorf("ReleaseAll left %d bytes allocated", used)
	}
}

func TestGemmDeterministicTiming(t *testing.T) {
	run := func() float64 {
		c := newCtx(false)
		res, err := c.Run(GemmOpts{
			Dtype: kernelmodel.F64, M: 1024, N: 1024, K: 1024, Alpha: 1, Beta: 1,
			A: &Matrix{Rows: 1024, Cols: 1024, Loc: model.OnHost, HostLd: 1024},
			B: &Matrix{Rows: 1024, Cols: 1024, Loc: model.OnHost, HostLd: 1024},
			C: &Matrix{Rows: 1024, Cols: 1024, Loc: model.OnHost, HostLd: 1024},
			T: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	if run() != run() {
		t.Error("noiseless runs must be deterministic")
	}
}
