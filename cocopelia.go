// Package cocopelia is a Go reproduction of CoCoPeLia — the
// communication-computation overlap prediction framework for efficient
// linear algebra on GPUs (Anastasiadis et al., ISPASS 2021) — built on a
// discrete-event GPU/PCIe simulator so it runs anywhere, no CUDA required.
//
// The library mirrors the paper's end-to-end flow:
//
//  1. Deploy: run the offline micro-benchmarks on a (simulated) testbed to
//     fit the transfer sub-models and kernel lookup tables (Section IV-A).
//  2. Predict: instantiate the 3-way-concurrency models (Section III) and
//     select the tiling size minimizing predicted offload time.
//  3. Execute: run the routine through the reuse-aware tile scheduler with
//     per-operation streams (Section IV-C), overlapping h2d transfers,
//     kernels and d2h transfers on the simulated device.
//
// A minimal session:
//
//	lib, err := cocopelia.Open(cocopelia.TestbedII(), cocopelia.Options{})
//	...
//	res, err := lib.Dgemm(m, n, k, 1.0,
//	    cocopelia.HostMatrix(m, k, a),
//	    cocopelia.HostMatrix(k, n, b),
//	    1.0, cocopelia.HostMatrix(m, n, c))
//	fmt.Println(res.T, res.Seconds)
//
// Everything the paper evaluates is reproducible through the cmd/cocoeval
// tool and the repository-level benchmarks; see EXPERIMENTS.md.
package cocopelia

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"cocopelia/internal/cudart"
	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/microbench"
	"cocopelia/internal/model"
	"cocopelia/internal/operand"
	"cocopelia/internal/plan"
	"cocopelia/internal/predictor"
	"cocopelia/internal/sched"
	"cocopelia/internal/sim"
	"cocopelia/internal/trace"
)

// Re-exported descriptor and result types.
type (
	// Matrix describes a column-major matrix operand and where it lives.
	Matrix = operand.Matrix
	// Vector describes a vector operand for level-1 routines.
	Vector = operand.Vector
	// Result reports one executed routine invocation.
	Result = operand.Result
	// Testbed is a simulated machine description.
	Testbed = machine.Testbed
	// Deployment is the fitted machine database of the deployment phase.
	Deployment = microbench.Deployment
	// Selection is a tile-size choice with its predicted offload time.
	Selection = model.Selection
	// ModelKind names one of the prediction models (CSO, Baseline,
	// DataLoc, BTS, DR).
	ModelKind = model.Kind
	// Trace accumulates engine timelines for inspection.
	Trace = trace.Trace
)

// The prediction models, re-exported in increasing fidelity order.
const (
	ModelCSO      = model.CSO
	ModelBaseline = model.Baseline
	ModelDataLoc  = model.DataLoc
	ModelBTS      = model.BTS
	ModelDR       = model.DR
)

// Operand locations.
const (
	OnHost   = model.OnHost
	OnDevice = model.OnDevice
)

// TestbedI returns the simulated equivalent of the paper's Testbed I
// (Tesla K40, PCIe Gen2 x8).
func TestbedI() *Testbed { return machine.TestbedI() }

// TestbedII returns the simulated equivalent of the paper's Testbed II
// (Tesla V100, PCIe Gen3 x16).
func TestbedII() *Testbed { return machine.TestbedII() }

// HostMatrix builds a host-resident float64 matrix descriptor with packed
// columns. Pass nil data for timing-only runs.
func HostMatrix(rows, cols int, data []float64) *Matrix {
	return operand.HostMatrix(rows, cols, data)
}

// HostMatrixF32 builds a host-resident float32 matrix descriptor.
func HostMatrixF32(rows, cols int, data []float32) *Matrix {
	return &operand.Matrix{Rows: rows, Cols: cols, Loc: model.OnHost, HostF32: data, HostLd: rows}
}

// HostVector builds a host-resident float64 vector descriptor.
func HostVector(n int, data []float64) *Vector { return operand.HostVector(n, data) }

// Options configures a Library session.
type Options struct {
	// Deployment supplies a pre-computed deployment database (e.g. loaded
	// from disk); when nil, Open runs the micro-benchmark campaign.
	Deployment *Deployment
	// Backed selects functional execution: operands carry real storage
	// and kernels perform real arithmetic. Timing-only sessions (the
	// default) move no data.
	Backed bool
	// Seed drives the simulated machine's measurement noise. Zero selects
	// a fixed default.
	Seed int64
	// SelectionModel is the prediction model used for automatic tile
	// selection; it defaults to the DR model for level-3 routines. Level-1
	// routines always use the BTS model, as in the paper.
	SelectionModel ModelKind
	// Traced attaches an engine-timeline trace to the session.
	Traced bool
}

// Library is one CoCoPeLia session on a simulated testbed. It owns the
// device, the deployment database and the reusable scheduler state
// (streams and tile-buffer pools). A Library is not safe for concurrent
// use.
type Library struct {
	tb     *Testbed
	dep    *Deployment
	pred   *predictor.Predictor
	rt     *cudart.Runtime
	ctx    *sched.Context
	selL3  ModelKind
	traced *Trace
	// kt memoizes the kernel durations factorization tile selection sums.
	kt kernelmodel.Memo
	// stage is the stream of the synchronous uploads and readbacks
	// (DeviceMatrix, DeviceVector, ReadDeviceMatrix), created on first use.
	stage *cudart.Stream
}

// Open deploys (or adopts) the machine models for the testbed and returns
// a ready session.
func Open(tb *Testbed, opts Options) (*Library, error) {
	if tb == nil {
		return nil, errors.New("cocopelia: nil testbed")
	}
	if err := tb.Validate(); err != nil {
		return nil, err
	}
	dep := opts.Deployment
	if dep == nil {
		dep = microbench.Run(tb, microbench.DefaultConfig())
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 42
	}
	eng := sim.New()
	dev := device.New(eng, tb, seed, false)
	var tr *Trace
	if opts.Traced {
		tr = trace.Attach(dev)
	}
	rt := cudart.New(dev)
	selL3 := opts.SelectionModel
	if selL3 == "" {
		selL3 = model.DR
	}
	return &Library{
		tb:     tb,
		dep:    dep,
		pred:   predictor.New(dep),
		rt:     rt,
		ctx:    sched.NewContext(rt, opts.Backed),
		selL3:  selL3,
		traced: tr,
	}, nil
}

// Testbed returns the session's machine description.
func (l *Library) Testbed() *Testbed { return l.tb }

// Deployment returns the fitted machine database.
func (l *Library) Deployment() *Deployment { return l.dep }

// Trace returns the engine timeline (nil unless Options.Traced was set).
func (l *Library) Trace() *Trace { return l.traced }

// Now returns the session's virtual clock in seconds.
func (l *Library) Now() float64 { return l.rt.Now() }

// locOf maps operand residency to the model's location flag.
func locOfMatrix(m *Matrix) model.Loc {
	if m == nil {
		return model.OnHost
	}
	return m.Loc
}

func locOfVector(v *Vector) model.Loc {
	if v == nil {
		return model.OnHost
	}
	return v.Loc
}

// SelectGemmTile predicts the best tiling size for a gemm invocation with
// the session's selection model (cached per parameter signature, as in the
// paper's model-reuse scheme).
func (l *Library) SelectGemmTile(routine string, m, n, k int, a, b, c *Matrix) (Selection, error) {
	dt := kernelmodel.F64
	if routine == "sgemm" {
		dt = kernelmodel.F32
	}
	prm := model.GemmParams(routine, dt.Size(), int64(m), int64(n), int64(k),
		locOfMatrix(a), locOfMatrix(b), locOfMatrix(c))
	return l.pred.Select(l.selL3, &prm)
}

// SelectAxpyTile predicts the best chunk length for a daxpy invocation
// using the BTS model.
func (l *Library) SelectAxpyTile(n int, x, y *Vector) (Selection, error) {
	prm := model.AxpyParams("daxpy", 8, int64(n), locOfVector(x), locOfVector(y))
	return l.pred.Select(model.BTS, &prm)
}

// Predict evaluates one prediction model at an explicit tiling size.
func (l *Library) Predict(kind ModelKind, routine string, m, n, k, T int, a, b, c *Matrix) (float64, error) {
	dt := kernelmodel.F64
	if routine == "sgemm" {
		dt = kernelmodel.F32
	}
	prm := model.GemmParams(routine, dt.Size(), int64(m), int64(n), int64(k),
		locOfMatrix(a), locOfMatrix(b), locOfMatrix(c))
	full := kernelmodel.GemmTime(&l.tb.GPU, dt, m, n, k)
	return l.pred.Predict(kind, &prm, T, full)
}

// pickTile settles a tile selection: the selected size, or fallback when
// the problem is smaller than every benchmarked candidate — such problems
// cannot be profitably split, so they run as a single tile.
func pickTile(sel Selection, err error, fallback int) (int, error) {
	switch {
	case err == nil:
		return sel.T, nil
	case errors.Is(err, model.ErrNoCandidates):
		return fallback, nil
	}
	return 0, fmt.Errorf("cocopelia: tile selection: %w", err)
}

// gemm runs the scheduler with an explicit or auto-selected tile.
func (l *Library) gemm(routine string, dt kernelmodel.Dtype, transA, transB byte, m, n, k int, alpha float64, a, b *Matrix, beta float64, c *Matrix, T int) (Result, error) {
	if T == 0 {
		sel, err := l.SelectGemmTile(routine, m, n, k, a, b, c)
		if T, err = pickTile(sel, err, min(m, n, k)); err != nil {
			return Result{}, err
		}
	}
	return l.ctx.Run(sched.GemmOpts{
		Dtype: dt, TransA: transA, TransB: transB, M: m, N: n, K: k,
		Alpha: alpha, Beta: beta, A: a, B: b, C: c, T: T,
	})
}

// Dgemm computes C = alpha*A*B + beta*C in double precision with
// automatic tiling-size selection.
func (l *Library) Dgemm(m, n, k int, alpha float64, a, b *Matrix, beta float64, c *Matrix) (Result, error) {
	return l.gemm("dgemm", kernelmodel.F64, 0, 0, m, n, k, alpha, a, b, beta, c, 0)
}

// DgemmTile is Dgemm with an explicit tiling size (the cuBLASXt-style
// interface the paper's library also provides for validation).
func (l *Library) DgemmTile(m, n, k int, alpha float64, a, b *Matrix, beta float64, c *Matrix, T int) (Result, error) {
	if T <= 0 {
		return Result{}, fmt.Errorf("cocopelia: non-positive tile %d", T)
	}
	return l.gemm("dgemm", kernelmodel.F64, 0, 0, m, n, k, alpha, a, b, beta, c, T)
}

// Sgemm computes C = alpha*A*B + beta*C in single precision with
// automatic tiling-size selection.
func (l *Library) Sgemm(m, n, k int, alpha float64, a, b *Matrix, beta float64, c *Matrix) (Result, error) {
	return l.gemm("sgemm", kernelmodel.F32, 0, 0, m, n, k, alpha, a, b, beta, c, 0)
}

// SgemmTile is Sgemm with an explicit tiling size.
func (l *Library) SgemmTile(m, n, k int, alpha float64, a, b *Matrix, beta float64, c *Matrix, T int) (Result, error) {
	if T <= 0 {
		return Result{}, fmt.Errorf("cocopelia: non-positive tile %d", T)
	}
	return l.gemm("sgemm", kernelmodel.F32, 0, 0, m, n, k, alpha, a, b, beta, c, T)
}

// DgemmTrans computes C = alpha*op(A)*op(B) + beta*C with explicit BLAS
// transpose flags ('N' or 'T') and automatic tiling-size selection. A is
// stored M x K when transA is 'N' (K x M when 'T'); B is stored K x N when
// transB is 'N' (N x K when 'T').
func (l *Library) DgemmTrans(transA, transB byte, m, n, k int, alpha float64, a, b *Matrix, beta float64, c *Matrix) (Result, error) {
	return l.gemm("dgemm", kernelmodel.F64, transA, transB, m, n, k, alpha, a, b, beta, c, 0)
}

// Dsyrk computes C = alpha*A*A^T + beta*C (trans 'N', A stored N x K) or
// C = alpha*A^T*A + beta*C (trans 'T', A stored K x N) through the tile
// scheduler's gemm request path, with automatic tiling-size selection.
func (l *Library) Dsyrk(trans byte, n, k int, alpha float64, a *Matrix, beta float64, c *Matrix) (Result, error) {
	sel, err := l.SelectGemmTile("dgemm", n, n, k, a, a, c)
	T, err := pickTile(sel, err, min(n, k))
	if err != nil {
		return Result{}, err
	}
	return l.ctx.Run(sched.SyrkOpts{
		Dtype: kernelmodel.F64, Trans: trans, N: n, K: k,
		Alpha: alpha, Beta: beta, A: a, C: c, T: T,
	})
}

// SelectGemvTile predicts the best tiling size for a dgemv invocation
// using the BTS model (level-2 BLAS per the paper's Section III-C).
func (l *Library) SelectGemvTile(m, n int, a *Matrix, x, y *Vector) (Selection, error) {
	prm := model.GemvParams("dgemv", 8, int64(m), int64(n),
		locOfMatrix(a), locOfVector(x), locOfVector(y))
	return l.pred.Select(model.BTS, &prm)
}

// Dgemv computes y = alpha*A*x + beta*y in double precision with automatic
// tiling-size selection.
func (l *Library) Dgemv(m, n int, alpha float64, a *Matrix, x *Vector, beta float64, y *Vector) (Result, error) {
	sel, err := l.SelectGemvTile(m, n, a, x, y)
	T, err := pickTile(sel, err, min(m, n))
	if err != nil {
		return Result{}, err
	}
	return l.ctx.Run(sched.GemvOpts{M: m, N: n, Alpha: alpha, Beta: beta, A: a, X: x, Y: y, T: T})
}

// DgemvTile is Dgemv with an explicit tiling size.
func (l *Library) DgemvTile(m, n int, alpha float64, a *Matrix, x *Vector, beta float64, y *Vector, T int) (Result, error) {
	if T <= 0 {
		return Result{}, fmt.Errorf("cocopelia: non-positive tile %d", T)
	}
	return l.ctx.Run(sched.GemvOpts{M: m, N: n, Alpha: alpha, Beta: beta, A: a, X: x, Y: y, T: T})
}

// Daxpy computes y += alpha*x with automatic chunk selection.
func (l *Library) Daxpy(n int, alpha float64, x, y *Vector) (Result, error) {
	sel, err := l.SelectAxpyTile(n, x, y)
	T, err := pickTile(sel, err, n)
	if err != nil {
		return Result{}, err
	}
	return l.ctx.Run(sched.AxpyOpts{N: n, Alpha: alpha, X: x, Y: y, T: T})
}

// DaxpyTile is Daxpy with an explicit chunk length.
func (l *Library) DaxpyTile(n int, alpha float64, x, y *Vector, T int) (Result, error) {
	if T <= 0 {
		return Result{}, fmt.Errorf("cocopelia: non-positive tile %d", T)
	}
	return l.ctx.Run(sched.AxpyOpts{N: n, Alpha: alpha, X: x, Y: y, T: T})
}

// The tiled factorizations below run on the task-graph plan IR: one plan
// whose kernel ops span several BLAS kinds (potrf/getrf/trsm/syrk/gemm
// tiles) with explicit cross-kernel dependency edges, so a factored tile
// forwards directly from the kernel that produced it to the kernels that
// consume it — no intermediate write-back.

// factorTileGrid is the candidate sweep searched by the factorization
// entry points. The factorization kernels are modeled analytically rather
// than on the deployment's benchmarked lookup grid, so the candidates are
// a fixed sweep clipped to the problem size.
var factorTileGrid = []int{256, 512, 768, 1024, 1536, 2048}

// predictPlanOverlap evaluates the Werkhoven-style full-overlap lower
// bound for a task-graph plan: the simulated run can approach but never
// beat max(sum of kernel times, h2d link time, d2h link time), with each
// transfer op paying the link's setup latency once.
func (l *Library) predictPlanOverlap(p *plan.Plan) float64 {
	nIn, nOut := p.TransferOps()
	v := p.Volumes()
	tIn := float64(nIn)*l.tb.H2D.LatencyS + float64(v.BytesH2D)/l.tb.H2D.BandwidthBps
	tOut := float64(nOut)*l.tb.D2H.LatencyS + float64(v.BytesD2H)/l.tb.D2H.BandwidthBps
	return math.Max(p.KernelSeconds(&l.tb.GPU, &l.kt), math.Max(tIn, tOut))
}

// factorPlan builds the task-graph plan for one factorization invocation.
// b is the right-hand side of "dtrsm" and nil otherwise.
func (l *Library) factorPlan(routine string, m, n, T int, diag byte, alpha float64, a, b *Matrix) (*plan.Plan, error) {
	switch routine {
	case "dpotrf":
		return l.ctx.Plan(sched.CholeskyOpts{Dtype: kernelmodel.F64, N: n, A: a, T: T})
	case "dgetrf":
		return l.ctx.Plan(sched.LUOpts{Dtype: kernelmodel.F64, N: n, A: a, T: T})
	case "dtrsm":
		return l.ctx.Plan(sched.TrsmOpts{
			Dtype: kernelmodel.F64, Diag: diag, M: m, N: n,
			Alpha: alpha, A: a, B: b, T: T,
		})
	}
	return nil, fmt.Errorf("cocopelia: unknown factorization routine %q", routine)
}

// SelectFactorTile picks the tiling size minimizing the overlap bound for
// a factorization routine ("dpotrf", "dgetrf" or "dtrsm" — for dpotrf and
// dgetrf pass m == n). Problems smaller than the candidate grid run as a
// single tile; Selection.Predicted is the bound at the chosen tile either
// way. Like SelectGemmTile, the choice is made once per parameter
// signature — routine, m, n and the locations of A (and B for dtrsm) — and
// reused from the session's selection cache by later identical calls,
// which build no plans and leave operand validation to the routine run.
// Errors are not cached.
func (l *Library) SelectFactorTile(routine string, m, n int, a, b *Matrix) (Selection, error) {
	var buf [48]byte
	key := append(buf[:0], "factor|"...)
	key = append(key, routine...)
	key = strconv.AppendInt(append(key, '|'), int64(m), 10)
	key = strconv.AppendInt(append(key, '|'), int64(n), 10)
	key = strconv.AppendInt(append(key, '|'), int64(locOfMatrix(a)), 10)
	if routine == "dtrsm" {
		key = strconv.AppendInt(append(key, '|'), int64(locOfMatrix(b)), 10)
	}
	return l.pred.Cached(string(key), func() (Selection, error) {
		return l.selectFactorTile(routine, m, n, a, b)
	})
}

// selectFactorTile is SelectFactorTile's uncached search: it builds the
// plan of every candidate tile and keeps the arg-min of the overlap bound.
func (l *Library) selectFactorTile(routine string, m, n int, a, b *Matrix) (Selection, error) {
	minDim := min(m, n)
	if routine != "dtrsm" {
		minDim = n
	}
	best := Selection{Predicted: math.Inf(1)}
	for _, T := range factorTileGrid {
		if T > minDim {
			continue
		}
		p, err := l.factorPlan(routine, m, n, T, 0, 1, a, b)
		if err != nil {
			return Selection{}, err
		}
		if t := l.predictPlanOverlap(p); t < best.Predicted {
			best = Selection{T: T, Predicted: t}
		}
	}
	if best.T == 0 {
		p, err := l.factorPlan(routine, m, n, minDim, 0, 1, a, b)
		if err != nil {
			return Selection{}, err
		}
		best = Selection{T: minDim, Predicted: l.predictPlanOverlap(p)}
	}
	return best, nil
}

// Dpotrf computes the in-place lower-triangular Cholesky factorization
// A = L*L^T of the n x n matrix A through the task-graph scheduler, with
// automatic tiling-size selection. On functional sessions A's lower
// triangle is overwritten by L; tiles strictly above the diagonal are
// never touched.
func (l *Library) Dpotrf(n int, a *Matrix) (Result, error) {
	sel, err := l.SelectFactorTile("dpotrf", n, n, a, nil)
	if err != nil {
		return Result{}, fmt.Errorf("cocopelia: tile selection: %w", err)
	}
	return l.DpotrfTile(n, a, sel.T)
}

// DpotrfTile is Dpotrf with an explicit tiling size.
func (l *Library) DpotrfTile(n int, a *Matrix, T int) (Result, error) {
	if T <= 0 {
		return Result{}, fmt.Errorf("cocopelia: non-positive tile %d", T)
	}
	return l.ctx.Run(sched.CholeskyOpts{Dtype: kernelmodel.F64, N: n, A: a, T: T})
}

// Dgetrf computes the in-place unpivoted LU factorization A = L*U of the
// n x n matrix A with automatic tiling-size selection. The schedule models
// no row exchanges; functional callers supply pivot-free (e.g. diagonally
// dominant) matrices.
func (l *Library) Dgetrf(n int, a *Matrix) (Result, error) {
	sel, err := l.SelectFactorTile("dgetrf", n, n, a, nil)
	if err != nil {
		return Result{}, fmt.Errorf("cocopelia: tile selection: %w", err)
	}
	return l.DgetrfTile(n, a, sel.T)
}

// DgetrfTile is Dgetrf with an explicit tiling size.
func (l *Library) DgetrfTile(n int, a *Matrix, T int) (Result, error) {
	if T <= 0 {
		return Result{}, fmt.Errorf("cocopelia: non-positive tile %d", T)
	}
	return l.ctx.Run(sched.LUOpts{Dtype: kernelmodel.F64, N: n, A: a, T: T})
}

// Dtrsm solves the left/lower/no-trans triangular system A*X = alpha*B in
// place (X overwrites the m x n matrix B; diag is 'N' or 'U') with
// automatic tiling-size selection.
func (l *Library) Dtrsm(diag byte, m, n int, alpha float64, a, b *Matrix) (Result, error) {
	sel, err := l.SelectFactorTile("dtrsm", m, n, a, b)
	if err != nil {
		return Result{}, fmt.Errorf("cocopelia: tile selection: %w", err)
	}
	return l.DtrsmTile(diag, m, n, alpha, a, b, sel.T)
}

// DtrsmTile is Dtrsm with an explicit tiling size.
func (l *Library) DtrsmTile(diag byte, m, n int, alpha float64, a, b *Matrix, T int) (Result, error) {
	if T <= 0 {
		return Result{}, fmt.Errorf("cocopelia: non-positive tile %d", T)
	}
	return l.ctx.Run(sched.TrsmOpts{
		Dtype: kernelmodel.F64, Diag: diag, M: m, N: n,
		Alpha: alpha, A: a, B: b, T: T,
	})
}

// DeviceMatrix allocates a device-resident matrix on the session's GPU,
// optionally uploading initial host data (a synchronous transfer outside
// any measured run). Use it to stage the partial-offload scenarios where
// operands already live in GPU memory. An "sgemm" matrix holds float32
// elements, so float64 data is an error: upload float32 data with
// DeviceMatrixF32.
func (l *Library) DeviceMatrix(routine string, rows, cols int, data []float64) (*Matrix, error) {
	dt := kernelmodel.F64
	if routine == "sgemm" {
		dt = kernelmodel.F32
	}
	return l.deviceMatrix(dt, rows, cols, data, nil)
}

// DeviceMatrixF32 allocates a device-resident float32 matrix, the operand
// of Sgemm, optionally uploading initial host data.
func (l *Library) DeviceMatrixF32(rows, cols int, data []float32) (*Matrix, error) {
	return l.deviceMatrix(kernelmodel.F32, rows, cols, nil, data)
}

// deviceMatrix allocates a rows x cols matrix of dt and uploads data64 or
// data32, whichever is given.
func (l *Library) deviceMatrix(dt kernelmodel.Dtype, rows, cols int, data64 []float64, data32 []float32) (*Matrix, error) {
	buf, err := l.rt.Malloc(dt, int64(rows)*int64(cols), data64 != nil || data32 != nil)
	if err != nil {
		return nil, err
	}
	if err := l.upload(buf, data64, data32); err != nil {
		return nil, err
	}
	return &Matrix{Rows: rows, Cols: cols, Loc: model.OnDevice, Dev: buf, DevLd: rows}, nil
}

// DeviceVector allocates a device-resident vector, optionally uploading
// initial host data.
func (l *Library) DeviceVector(n int, data []float64) (*Vector, error) {
	buf, err := l.rt.Malloc(kernelmodel.F64, int64(n), data != nil)
	if err != nil {
		return nil, err
	}
	if err := l.upload(buf, data, nil); err != nil {
		return nil, err
	}
	return &Vector{N: n, Loc: model.OnDevice, Dev: buf}, nil
}

// stageStream returns the session's staging stream, created on first use:
// one stream serves every upload and readback, so they leave the runtime's
// stream set (which every Sync walks) unchanged after the first.
func (l *Library) stageStream() *cudart.Stream {
	if l.stage == nil {
		l.stage = l.rt.NewStream()
	}
	return l.stage
}

// upload copies data64 or data32, when given, into the whole of the fresh
// buffer buf and drains the engine; on failure it frees buf.
func (l *Library) upload(buf *cudart.DevBuffer, data64 []float64, data32 []float32) error {
	if data64 == nil && data32 == nil {
		return nil
	}
	_, err := l.stageStream().MemcpyH2DAsync(buf, 0, data64, data32, buf.Elems())
	if err == nil {
		_, err = l.rt.Sync()
	}
	if err != nil {
		// The copy's error is the one to report; freeing a buffer just
		// allocated cannot fail.
		_ = l.rt.Free(buf)
	}
	return err
}

// ReadDeviceMatrix copies a device-resident float64 matrix back to a host
// slice (synchronously, outside any measured run). It is a test/inspection
// aid for functional sessions.
func (l *Library) ReadDeviceMatrix(m *Matrix, dst []float64) error {
	return l.readDeviceMatrix(m, dst, nil)
}

// ReadDeviceMatrixF32 is ReadDeviceMatrix for a float32 matrix.
func (l *Library) ReadDeviceMatrixF32(m *Matrix, dst []float32) error {
	return l.readDeviceMatrix(m, nil, dst)
}

// readDeviceMatrix copies m into dst64 or dst32, whichever matches its
// dtype, and drains the engine.
func (l *Library) readDeviceMatrix(m *Matrix, dst64 []float64, dst32 []float32) error {
	if m == nil || m.Loc != model.OnDevice || m.Dev == nil {
		return errors.New("cocopelia: not a device matrix")
	}
	if _, err := l.stageStream().MemcpyD2HAsync(dst64, dst32, m.Dev, 0, int64(m.Rows)*int64(m.Cols)); err != nil {
		return err
	}
	_, err := l.rt.Sync()
	return err
}

// Close releases pooled device buffers.
func (l *Library) Close() error { return l.ctx.ReleaseAll() }
