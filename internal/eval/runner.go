package eval

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cocopelia/internal/cudart"
	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/model"
	"cocopelia/internal/operand"
	"cocopelia/internal/parallel"
	"cocopelia/internal/plan"
	"cocopelia/internal/sched"
	"cocopelia/internal/sim"
	"cocopelia/internal/stats"
)

// Lib identifies a measured library implementation.
type Lib string

// The libraries under evaluation.
const (
	LibCoCoPeLia Lib = "CoCoPeLia"
	LibCuBLASXt  Lib = "cuBLASXt"
	LibBLASX     Lib = "BLASX"
	LibUnified   Lib = "UnifiedMem"
	// LibNoReuse is the CoCoPeLia scheduler with stateless sub-kernels
	// (per-sub-kernel operand traffic) — the measured counterpart of the
	// no-reuse models (Eq. 1-4), standing in for the paper's use of
	// cuBLASXt in the Fig. 4 validation.
	LibNoReuse Lib = "NoReuse"
)

// cellKey is the comparable cache key of one measurement cell. It carries
// every field the rendered string key (testbed|lib|problem-name|T) encodes,
// so the cache partition it induces matches the legacy string keys — but a
// lookup is a struct compare with no formatting or allocation on the hit
// path. The testbed is omitted because each Runner serves exactly one.
type cellKey struct {
	lib     Lib
	routine string
	dtype   kernelmodel.Dtype
	m, n, k int
	locs    [3]model.Loc
	nlocs   int
	tag     string
	tile    int
}

// inflightCall is one in-progress measurement that concurrent callers of
// the same cell key wait on.
type inflightCall struct {
	done chan struct{}
	res  operand.Result
	err  error
}

// Runner executes measured library runs on a simulated testbed. Every
// measurement runs on a fresh device seeded deterministically from the run
// parameters — never from execution order — so results are reproducible,
// cacheable, and identical whether cells run serially or concurrently.
//
// Runner is safe for concurrent use: one mutex guards the result cache,
// and concurrent Measure calls for the same (lib, problem, T) cell
// simulate it exactly once (the other callers block until the first
// finishes). It keeps no other cache: a cell's tile plan is built by its
// first repetition, replayed by the rest and dropped with the cell.
//
// A cell's repetitions are independent seeded simulations, each on its own
// pooled bundle, so Measure runs them concurrently through the parallel
// package when cores are free: at most GOMAXPROCS goroutines simulate
// this runner's cells at once, callers included, and with GOMAXPROCS = 1
// repetitions run inline. MeasureBatch on a pool of more than one worker
// keeps each cell's repetitions serial, because fanning out over cells
// already fills the cores. Results are aggregated in repetition order, so
// they are bit-identical either way.
type Runner struct {
	TB *machine.Testbed
	// Reps is the number of averaged repetitions per measurement (the
	// paper uses 100 on hardware; simulator noise is parametric so a small
	// count suffices).
	Reps int
	// SeedBase diversifies the noise streams of independent campaigns.
	SeedBase int64
	// Clock, when set, enables per-phase wall-time attribution
	// (PhaseSeconds). It is injected rather than sampled so the eval layer
	// stays wall-clock free under the determinism analyzer; cmd binaries
	// pass time.Now.
	Clock parallel.Clock

	// mu guards results and inflight. Every miss simulates for at least
	// a tenth of a millisecond and at most one caller per worker contends,
	// so one lock is enough.
	mu sync.Mutex
	// results holds completed measurements by cell key.
	results map[cellKey]operand.Result
	// inflight deduplicates concurrent requests for the same cell: the
	// first caller simulates, later callers wait on the call's done
	// channel (per-key singleflight).
	inflight map[cellKey]*inflightCall

	hits   atomic.Int64
	misses atomic.Int64
	waits  atomic.Int64
	events atomic.Int64

	// simulating counts the goroutines simulating this runner's cells:
	// every caller inside measureCell plus the repetition goroutines it
	// reserved (see reserveHelpers).
	simulating atomic.Int32

	phaseNS [numPhases]atomic.Int64

	// planBuilds counts the plans cells built (one per cell),
	// planReplays the further repetitions that replayed their
	// cell's plan.
	planBuilds  atomic.Int64
	planReplays atomic.Int64

	// bundleFree recycles wired simulation stacks (engine + device +
	// runtime + scheduler context) across this runner's repetitions, so a
	// plan-replaying repetition re-derives nothing: no stream creation, no
	// map growth — only a reseed and counter reset (see simBundle). It is
	// a mutex-guarded free list rather than a sync.Pool deliberately: plan
	// building allocates enough to trigger GC cycles mid-campaign, and
	// sync.Pool drops its contents at every GC — losing the op/event slabs
	// and free lists whose warmth is the entire point of pooling. The list
	// is per-runner because a bundle's device is wired to the runner's
	// testbed; it grows to at most the number of concurrent Measure calls.
	bundleMu   sync.Mutex
	bundleFree []*simBundle
}

// NewRunner creates a runner for a testbed.
func NewRunner(tb *machine.Testbed) *Runner {
	return &Runner{
		TB: tb, Reps: 3, SeedBase: 1,
		results:  map[cellKey]operand.Result{},
		inflight: map[cellKey]*inflightCall{},
	}
}

// cell builds the comparable cache key for a measurement.
func cell(lib Lib, p Problem, T int) cellKey {
	ck := cellKey{
		lib: lib, routine: p.Routine, dtype: p.Dtype,
		m: p.M, n: p.N, k: p.K, nlocs: len(p.Locs), tag: p.Tag, tile: T,
	}
	copy(ck.locs[:], p.Locs)
	return ck
}

// PlanCacheStats reports plan reuse: misses counts the plans built (one
// per cell), hits the repetitions that replayed their
// cell's plan, and evictions is always zero — a plan lives exactly as long
// as its cell. The split is a pure function of the work-list and Reps, so
// it is identical at any worker count.
func (r *Runner) PlanCacheStats() (hits, misses, evictions int) {
	return int(r.planReplays.Load()), int(r.planBuilds.Load()), 0
}

// Phase indices of Runner.phaseNS: where campaign wall time goes.
const (
	phasePlan    = iota // plan builds (first repetition of a cell)
	phaseEnqueue        // replaying plans onto the runtime's streams
	phaseAdvance        // draining the event queue (runtime Sync)
	phaseOther          // operand setup
	numPhases
)

// PhaseSeconds reports the accumulated per-phase wall time of this
// runner's repetitions: plan building, plan replay (enqueue), event-queue
// advance, and everything else (operand setup). Phases are summed over the
// goroutines that run repetitions, so with concurrent repetitions their
// total can exceed the elapsed wall time; the time a repetition spends
// waiting for its cell's plan is charged to no phase. All zero unless
// Clock is set.
func (r *Runner) PhaseSeconds() (planBuild, enqueue, advance, other float64) {
	const s = 1e-9
	return float64(r.phaseNS[phasePlan].Load()) * s,
		float64(r.phaseNS[phaseEnqueue].Load()) * s,
		float64(r.phaseNS[phaseAdvance].Load()) * s,
		float64(r.phaseNS[phaseOther].Load()) * s
}

// phaseLap attributes wall-time intervals to campaign phases through the
// runner's injected clock; the zero value (no clock installed) makes every
// lap a no-op, so default campaigns pay nothing for the instrumentation.
type phaseLap struct {
	r    *Runner
	mark time.Time
}

// startLap begins interval attribution for one repetition.
func (r *Runner) startLap() phaseLap {
	if r.Clock == nil {
		return phaseLap{}
	}
	return phaseLap{r: r, mark: r.Clock()}
}

// skip restarts the interval without charging the time since the
// previous lap to any phase.
func (pc *phaseLap) skip() {
	if pc.r != nil {
		pc.mark = pc.r.Clock()
	}
}

// lap charges the time since the previous lap (or startLap) to phase ph.
func (pc *phaseLap) lap(ph int) {
	if pc.r == nil {
		return
	}
	now := pc.r.Clock()
	pc.r.phaseNS[ph].Add(int64(now.Sub(pc.mark)))
	pc.mark = now
}

// key renders the legacy string cell key; it survives only as the input of
// seedFor, so cached repetitions keep their exact historical noise seeds.
func (r *Runner) key(lib Lib, p Problem, T int) string {
	return fmt.Sprintf("%s|%s|%s|%d", r.TB.Name, lib, p.Name(), T)
}

// seedFor derives a deterministic noise seed for one repetition.
func (r *Runner) seedFor(key string, rep int) int64 {
	h := int64(1469598103934665603)
	for _, c := range key {
		h ^= int64(c)
		h *= 1099511628211
	}
	return h ^ (r.SeedBase * 7919) ^ int64(rep)*104729
}

// operands materializes a problem's timing-only operands on a runtime:
// storage-free descriptors for host-resident operands, unbacked device
// buffers otherwise. Calls allocate in call order and keep the first
// allocation failure in err (later calls then return nil).
type operands struct {
	rt  *cudart.Runtime
	err error
}

// mat materializes one rows x cols matrix operand at loc.
func (o *operands) mat(dt kernelmodel.Dtype, rows, cols int, loc model.Loc) *operand.Matrix {
	if o.err != nil {
		return nil
	}
	if loc == model.OnHost {
		return &operand.Matrix{Rows: rows, Cols: cols, Loc: model.OnHost, HostLd: rows}
	}
	buf, err := o.rt.Malloc(dt, int64(rows)*int64(cols), false)
	if err != nil {
		o.err = err
		return nil
	}
	return &operand.Matrix{Rows: rows, Cols: cols, Loc: model.OnDevice, Dev: buf, DevLd: rows}
}

// vec materializes one float64 vector operand of length n at loc.
func (o *operands) vec(n int, loc model.Loc) *operand.Vector {
	if o.err != nil {
		return nil
	}
	if loc == model.OnHost {
		return &operand.Vector{N: n, Loc: model.OnHost}
	}
	buf, err := o.rt.Malloc(kernelmodel.F64, int64(n), false)
	if err != nil {
		o.err = err
		return nil
	}
	return &operand.Vector{N: n, Loc: model.OnDevice, Dev: buf}
}

// gemm materializes a gemm problem's A (M x K), B (K x N) and C (M x N).
func (o *operands) gemm(p Problem) (a, b, c *operand.Matrix) {
	return o.mat(p.Dtype, p.M, p.K, p.Locs[0]), o.mat(p.Dtype, p.K, p.N, p.Locs[1]), o.mat(p.Dtype, p.M, p.N, p.Locs[2])
}

// Request materializes problem p's operands on rt and maps them to the
// scheduler request lib runs at tiling size T, with the measurement
// campaign's fixed scalars: alpha = beta = 1 for gemm and gemv, alpha =
// 1.1 for daxpy and alpha = 1 for dtrsm. CoCoPeLia has every routine;
// NoReuse, cuBLASXt and BLASX have gemm, and unified memory has daxpy.
// BLASX ignores T for its static tile size and unified memory for its
// prefetch chunk. The operands carry no storage, so the request suits
// timing-only contexts.
func Request(rt *cudart.Runtime, lib Lib, p Problem, T int) (sched.Request, error) {
	gemm := p.Routine != "daxpy" && p.Routine != "dgemv" && !isFactor(p.Routine)
	switch {
	case lib == LibCoCoPeLia,
		gemm && (lib == LibNoReuse || lib == LibCuBLASXt || lib == LibBLASX),
		p.Routine == "daxpy" && lib == LibUnified:
	default:
		return nil, fmt.Errorf("eval: library %s has no %s", lib, p.Routine)
	}
	o := operands{rt: rt}
	var req sched.Request
	switch p.Routine {
	case "daxpy":
		x, y := o.vec(p.N, p.Locs[0]), o.vec(p.N, p.Locs[1])
		req = sched.AxpyOpts{N: p.N, Alpha: 1.1, X: x, Y: y, T: T}
		if lib == LibUnified {
			req = sched.AxpyUnifiedOpts{N: p.N, Alpha: 1.1, X: x, Y: y}
		}
	case "dgemv":
		a, x, y := o.mat(kernelmodel.F64, p.M, p.N, p.Locs[0]), o.vec(p.N, p.Locs[1]), o.vec(p.M, p.Locs[2])
		req = sched.GemvOpts{M: p.M, N: p.N, Alpha: 1, Beta: 1, A: a, X: x, Y: y, T: T}
	case "dpotrf":
		req = sched.CholeskyOpts{Dtype: p.Dtype, N: p.N, A: o.mat(p.Dtype, p.N, p.N, p.Locs[0]), T: T}
	case "dgetrf":
		req = sched.LUOpts{Dtype: p.Dtype, N: p.N, A: o.mat(p.Dtype, p.N, p.N, p.Locs[0]), T: T}
	case "dtrsm":
		// A is the M x M lower triangle, B the M x N right-hand side.
		a, b := o.mat(p.Dtype, p.M, p.M, p.Locs[0]), o.mat(p.Dtype, p.M, p.N, p.Locs[1])
		req = sched.TrsmOpts{Dtype: p.Dtype, M: p.M, N: p.N, Alpha: 1, A: a, B: b, T: T}
	default:
		a, b, c := o.gemm(p)
		g := sched.GemmOpts{Dtype: p.Dtype, M: p.M, N: p.N, K: p.K, Alpha: 1, Beta: 1, A: a, B: b, C: c, T: T}
		switch lib {
		case LibCoCoPeLia:
			req = g
		case LibNoReuse:
			req = sched.GemmNoReuseOpts(g)
		case LibCuBLASXt:
			req = sched.GemmXtOpts(g)
		case LibBLASX:
			g.T = sched.BlasxTile(p.M, p.N, p.K)
			req = sched.GemmBlasxOpts{GemmOpts: g, DispatchS: sched.BlasxDispatchS, BlockingWriteback: true}
		}
	}
	if o.err != nil {
		return nil, o.err
	}
	return req, nil
}

// isFactor reports whether routine is one of the tiled factorizations.
func isFactor(routine string) bool {
	return routine == "dpotrf" || routine == "dgetrf" || routine == "dtrsm"
}

// simBundle is one fully wired simulation stack — engine, device, runtime
// and scheduler context — recycled across a runner's repetitions. Pooling
// the stack as a unit is what makes a plan-replaying repetition allocation-
// free outside the simulation itself: the engine keeps its heap backing
// and event free list, the runtime its op arena, waiter nodes and host
// windows, the context its streams, bucket slice and replay scratch, and
// the device its task free list. Per repetition only the noise streams are
// reseeded and the accounting counters zeroed.
type simBundle struct {
	eng *sim.Engine
	dev *device.Device
	rt  *cudart.Runtime
	ctx *sched.Context
}

// bundle returns a simulation stack ready for one repetition with the
// given noise seed: a pooled stack is reset in place (engine cleared,
// device and link reseeded, tile pool emptied), a fresh one is wired from
// scratch. Either way the stack is
// indistinguishable from a freshly constructed one — the reuse property
// tests in sim, and the campaign identity checks in cocobench, pin it.
func (r *Runner) bundle(seed int64) *simBundle {
	r.bundleMu.Lock()
	var b *simBundle
	if n := len(r.bundleFree); n > 0 {
		b = r.bundleFree[n-1]
		r.bundleFree[n-1] = nil
		r.bundleFree = r.bundleFree[:n-1]
	}
	r.bundleMu.Unlock()
	if b != nil {
		b.eng.Reset()
		b.dev.Reset(seed)
		b.ctx.Reset()
		return b
	}
	eng := sim.New()
	dev := device.New(eng, r.TB, seed, false)
	rt := cudart.New(dev)
	return &simBundle{eng: eng, dev: dev, rt: rt, ctx: sched.NewContext(rt, false)}
}

// putBundle parks a cleanly drained bundle for reuse.
func (r *Runner) putBundle(b *simBundle) {
	r.bundleMu.Lock()
	r.bundleFree = append(r.bundleFree, b)
	r.bundleMu.Unlock()
}

// cellPlan is the tile plan of one cell in flight: repetition 0 builds it,
// compiles its replay tape and publishes it, and the other repetitions
// wait for it.
type cellPlan struct {
	ready chan struct{}
	once  sync.Once
	pl    *plan.Plan
}

// publish records the plan, nil when repetition 0 failed before building
// it, and releases the waiting repetitions. Only the first call counts.
func (c *cellPlan) publish(pl *plan.Plan) {
	c.once.Do(func() {
		c.pl = pl
		close(c.ready)
	})
}

// wait blocks until repetition 0 publishes and returns its plan.
func (c *cellPlan) wait() *plan.Plan {
	<-c.ready
	return c.pl
}

// errNoPlan stops a repetition whose cell's plan was never built; the cell
// reports repetition 0's own error instead.
var errNoPlan = errors.New("eval: repetition 0 failed before building the cell's plan")

// runOnce executes one repetition on bd and returns its result.
// Repetition 0 (first) builds the cell's plan, compiles its replay tape and
// publishes both through cp; the others wait for it and replay it as is
// (Enqueue checks its key against the request on every call). The no-reuse
// and cuBLASXt planners size their staging to free device memory, which is
// the same on every repetition because the pooled bundle's reset restores
// it. The whole simulation stack is pooled as a
// unit (reset-on-reuse is indistinguishable from fresh — pinned by the sim
// package's reuse property test and the campaign identity checks); no
// measurement state leaks because every reset reseeds the noise streams
// and zeroes the accounting. A failed repetition abandons its bundle
// rather than pooling it: the engine, runtime or context may hold
// half-enqueued state whose cleanup is not worth proving correct on an
// error path.
func (r *Runner) runOnce(bd *simBundle, lib Lib, p Problem, T int, cp *cellPlan, first bool) (res operand.Result, err error) {
	rt, ctx := bd.rt, bd.ctx
	if first {
		// However repetition 0 ends, the waiting repetitions are released.
		defer cp.publish(nil)
	}
	defer func() {
		r.events.Add(int64(bd.eng.Processed()))
		if err == nil {
			r.putBundle(bd)
		}
	}()
	pc := r.startLap()
	req, err := Request(rt, lib, p, T)
	if err != nil {
		return operand.Result{}, err
	}
	pc.lap(phaseOther)
	var pl *plan.Plan
	if first {
		if pl, err = ctx.Plan(req); err != nil {
			return operand.Result{}, err
		}
		pl.TapeFor(&rt.Device().Testbed().GPU)
		cp.publish(pl)
		r.planBuilds.Add(1)
	} else {
		if pl = cp.wait(); pl == nil {
			return operand.Result{}, errNoPlan
		}
		pc.skip()
		r.planReplays.Add(1)
	}
	pc.lap(phasePlan)
	pend, err := ctx.Enqueue(pl, req)
	if err != nil {
		return operand.Result{}, err
	}
	pc.lap(phaseEnqueue)
	end, err := rt.Sync()
	pc.lap(phaseAdvance)
	res = pend.Finish(end)
	if err != nil {
		return operand.Result{}, err
	}
	return res, nil
}

// Measure runs the library on the problem with tiling size T (ignored by
// BLASX and UnifiedMem) and returns the aggregated result over Reps
// repetitions: Seconds is the mean over repetitions, while the structural
// fields (T, Subkernels, BytesH2D, BytesD2H) are the per-repetition
// maxima — the repetitions differ only in noise seed, so these are
// normally identical across reps, and taking the maximum makes the
// aggregation explicit rather than silently reporting the last
// repetition's values.
//
// Results are cached by (testbed, lib, problem, T). Measure is safe for
// concurrent use, and concurrent calls for the same cell simulate it
// exactly once; errors are returned to every waiter but never cached.
// The repetitions of a simulated cell run concurrently when cores are
// free (see Runner).
//
//cocolint:hotpath
func (r *Runner) Measure(lib Lib, p Problem, T int) (operand.Result, error) {
	return r.measure(lib, p, T, true)
}

// measure is Measure with the repetition fan-out chosen by the caller:
// campaigns turn it off when they fan out over a multi-worker pool
// themselves.
//
//cocolint:hotpath
func (r *Runner) measure(lib Lib, p Problem, T int, fanOut bool) (operand.Result, error) {
	ck := cell(lib, p, T)
	r.mu.Lock()
	if res, ok := r.results[ck]; ok {
		r.mu.Unlock()
		r.hits.Add(1)
		return res, nil
	}
	if c, ok := r.inflight[ck]; ok {
		r.mu.Unlock()
		r.waits.Add(1)
		<-c.done
		return c.res, c.err
	}
	//lint:ignore hotpath cache miss simulates the cell (entered with r.mu held); each distinct cell pays it once per campaign
	return r.measureMiss(ck, lib, p, T, fanOut)
}

// measureMiss is Measure's uncached path, entered with r.mu held: it
// registers the in-flight call, simulates the cell and publishes the
// result.
func (r *Runner) measureMiss(ck cellKey, lib Lib, p Problem, T int, fanOut bool) (operand.Result, error) {
	c := &inflightCall{done: make(chan struct{})}
	r.inflight[ck] = c
	r.mu.Unlock()
	r.misses.Add(1)

	// The string key is rendered only on this miss path: it feeds the
	// per-repetition seed derivation, which must stay byte-identical.
	c.res, c.err = r.measureCell(r.key(lib, p, T), lib, p, T, fanOut)

	r.mu.Lock()
	delete(r.inflight, ck)
	if c.err == nil {
		r.results[ck] = c.res
	}
	r.mu.Unlock()
	close(c.done)
	return c.res, c.err
}

// reserveHelpers reserves up to want extra repetition goroutines for a
// caller already counted in r.simulating, as many as keep the count at or
// below GOMAXPROCS, and returns how many it got.
func (r *Runner) reserveHelpers(want int) int {
	limit := int32(runtime.GOMAXPROCS(0))
	for {
		cur := r.simulating.Load()
		n := min(int32(want), limit-cur)
		if n <= 0 {
			return 0
		}
		if r.simulating.CompareAndSwap(cur, cur+n) {
			return int(n)
		}
	}
}

// measureCell executes the repetitions of one uncached cell and aggregates
// them (see Measure for the semantics). With fanOut set, the repetitions
// run concurrently on as many goroutines as reserveHelpers grants, each on
// its own pooled bundle; otherwise they run in order on the caller's
// goroutine. Repetition 0's bundle is taken before any other repetition
// starts, and the results and errors are read in repetition order, so the
// result, and the error a failed cell reports, do not depend on which
// goroutine ran what.
func (r *Runner) measureCell(key string, lib Lib, p Problem, T int, fanOut bool) (operand.Result, error) {
	reps := max(r.Reps, 1)
	r.simulating.Add(1)
	defer r.simulating.Add(-1)
	var pool *parallel.Pool
	if fanOut {
		if n := r.reserveHelpers(reps - 1); n > 0 {
			defer r.simulating.Add(int32(-n))
			pool = parallel.NewPool(1 + n)
		}
	}

	cp := &cellPlan{ready: make(chan struct{})}
	first := r.bundle(r.seedFor(key, 0))
	errs := make([]error, reps)
	ones, _ := parallel.Map(pool, make([]struct{}, reps), func(i int, _ struct{}) (operand.Result, error) {
		bd := first
		if i > 0 {
			bd = r.bundle(r.seedFor(key, i))
		}
		one, err := r.runOnce(bd, lib, p, T, cp, i == 0)
		errs[i] = err
		return one, nil
	})
	// Every repetition has returned, so nothing else holds the cell's plan:
	// its arrays go to the next cell's plan.
	if cp.pl != nil {
		cp.pl.Release()
	}
	for _, err := range errs {
		if err != nil {
			return operand.Result{}, fmt.Errorf("eval: %s on %s (T=%d): %w", lib, p.Name(), T, err)
		}
	}
	times := make([]float64, reps)
	res := ones[0]
	for i, one := range ones {
		times[i] = one.Seconds
		res.Subkernels = max(res.Subkernels, one.Subkernels)
		res.BytesH2D = max(res.BytesH2D, one.BytesH2D)
		res.BytesD2H = max(res.BytesD2H, one.BytesD2H)
	}
	res.Seconds = stats.Mean(times)
	return res, nil
}

// MeasureCell names one cell of a campaign's measurement work-list.
type MeasureCell struct {
	Lib Lib
	P   Problem
	T   int
}

// MeasureBatch prefetches a work-list of cells through the pool, warming
// the cache so a subsequent sequential assembly pass hits every cell.
// Duplicate cells are deduplicated before fan-out. The first simulation
// error cancels the batch and is returned. A nil pool prefetches serially
// (the legacy execution order); the cached results are identical either
// way because every cell's noise seed derives from its key alone. On a
// pool of more than one worker the fan-out over cells takes precedence,
// and each cell's repetitions run serially on its worker.
func (r *Runner) MeasureBatch(pool *parallel.Pool, cells []MeasureCell) error {
	seen := make(map[cellKey]bool, len(cells))
	uniq := make([]MeasureCell, 0, len(cells))
	for _, c := range cells {
		k := cell(c.Lib, c.P, c.T)
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, c)
		}
	}
	fanOut := pool.Workers() <= 1
	return parallel.ForEach(pool, uniq, func(_ int, c MeasureCell) error {
		_, err := r.measure(c.Lib, c.P, c.T, fanOut)
		return err
	})
}

// CacheStats reports measurement-cache activity, mirroring
// predictor.CacheStats: hits served from the completed-result cache,
// misses that ran a simulation, and waits deduplicated onto an in-flight
// simulation of the same cell by the singleflight layer.
func (r *Runner) CacheStats() (hits, misses, waits int) {
	return int(r.hits.Load()), int(r.misses.Load()), int(r.waits.Load())
}

// EventsProcessed returns the total number of discrete events the runner's
// simulations have fired so far (across all repetitions and cells). It is
// the denominator-independent throughput counter the campaign benchmark
// reports as events/sec.
func (r *Runner) EventsProcessed() int64 { return r.events.Load() }

// FullKernelTime measures the un-tiled full-problem kernel time on the
// device (the input the CSO comparator model requires).
func (r *Runner) FullKernelTime(p Problem) float64 {
	gpu := &r.TB.GPU
	switch p.Routine {
	case "daxpy":
		return kernelmodel.AxpyTime(gpu, kernelmodel.F64, p.N)
	case "dgemv":
		return kernelmodel.GemvTime(gpu, kernelmodel.F64, p.M, p.N)
	}
	return kernelmodel.GemmTime(gpu, p.Dtype, p.M, p.N, p.K)
}

// SweepTiles returns the measured-performance tile sweep grid for a
// problem: the benchmarked tile sizes filtered by the paper's feasibility
// rule, optionally coarsened (step multiplier) for fast runs.
func SweepTiles(p Problem, grid []int, coarsen int) []int {
	if coarsen < 1 {
		coarsen = 1
	}
	prm := p.Params()
	maxT := prm.MinDim()
	if prm.Level >= 2 {
		maxT = int64(float64(prm.MinDim()) / 1.5)
	}
	var out []int
	for i, T := range grid {
		if i%coarsen != 0 {
			continue
		}
		if int64(T) <= maxT {
			out = append(out, T)
		}
	}
	return out
}
