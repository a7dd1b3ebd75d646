// Package multigpu implements the paper's stated future-work direction —
// "extend the model ... to multi-GPU and host-assisted execution" — on the
// simulated substrate: a cluster of GPUs, each behind its own PCIe link,
// executing one tiled level-3 problem cooperatively.
//
// The workload distribution follows the performance-aware static split the
// paper advocates: the output matrix C is partitioned into column panels,
// one per GPU (so B tiles are never shared across GPUs and A tiles are
// duplicated only as needed — the same layout BLASX uses for multi-GPU
// gemm), and every GPU runs the reuse-aware tile scheduler on its panel
// with its own streams. The DR model extends naturally: each GPU's panel
// is an independent sub-problem, and the predicted multi-GPU makespan is
// the slowest panel's prediction.
package multigpu

import (
	"errors"
	"fmt"
	"math"

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

// Cluster is a set of simulated GPUs of the same testbed type attached to
// one host, each behind an independent link, sharing one virtual clock.
type Cluster struct {
	eng      *sim.Engine
	tb       *machine.Testbed
	runtimes []*cudart.Runtime
	contexts []*sched.Context
	backed   bool
}

// NewCluster creates n identical GPUs of the testbed type. backed selects
// functional execution.
func NewCluster(tb *machine.Testbed, n int, seed int64, backed bool) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("multigpu: need at least one GPU, got %d", n)
	}
	if err := tb.Validate(); err != nil {
		return nil, err
	}
	eng := sim.New()
	c := &Cluster{eng: eng, tb: tb, backed: backed}
	for i := 0; i < n; i++ {
		dev := device.New(eng, tb, seed+int64(i)*7919, false)
		rt := cudart.New(dev)
		c.runtimes = append(c.runtimes, rt)
		c.contexts = append(c.contexts, sched.NewContext(rt, backed))
	}
	return c, nil
}

// Size returns the number of GPUs.
func (c *Cluster) Size() int { return len(c.runtimes) }

// Engine returns the shared simulation engine.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Runtime returns GPU i's runtime (for staging device-resident operands in
// tests).
func (c *Cluster) Runtime(i int) *cudart.Runtime { return c.runtimes[i] }

// GemmOpts parameterizes a multi-GPU gemm. All operands must be
// host-resident: with more than one GPU there is no single "the device"
// for an operand to live on (device-resident operands remain a single-GPU
// feature, as in the paper).
type GemmOpts struct {
	Dtype       kernelmodel.Dtype
	M, N, K     int
	Alpha, Beta float64
	A, B, C     *operand.Matrix
	// T is the square tiling size used by every GPU's scheduler.
	T int
}

// Result reports a multi-GPU execution.
type Result struct {
	// Seconds is the makespan (all GPUs synchronized).
	Seconds float64
	// T is the tiling size used.
	T int
	// PerGPU carries each GPU's own scheduler result (its panel).
	PerGPU []operand.Result
}

// Gflops converts the makespan to GFLOP/s for the full problem.
func (r Result) Gflops(m, n, k int) float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return 2 * float64(m) * float64(n) * float64(k) / r.Seconds / 1e9
}

// PredictDR extends the DR model to the cluster: each GPU's column panel
// is an independent reuse-aware sub-problem on its own link, so the
// predicted makespan is the slowest panel's DR prediction.
func PredictDR(sm model.SubModels, routine string, dtypeSize int64, m, n, k, T, gpus int) (float64, error) {
	if gpus <= 0 {
		return 0, fmt.Errorf("multigpu: non-positive GPU count %d", gpus)
	}
	panels := panelCols(n, gpus, T)
	worst := 0.0
	for _, p := range panels {
		prm := model.GemmParams(routine, dtypeSize, int64(m), int64(p[1]), int64(k),
			model.OnHost, model.OnHost, model.OnHost)
		t, err := model.Predict(model.DR, &prm, sm, T)
		if err != nil {
			return 0, err
		}
		if t > worst {
			worst = t
		}
	}
	return worst, nil
}

// SelectT returns the tiling size minimizing the predicted cluster
// makespan over the sub-model grid's feasible candidates.
func SelectT(sm model.SubModels, routine string, dtypeSize int64, m, n, k, gpus int) (model.Selection, error) {
	prm := model.GemmParams(routine, dtypeSize, int64(m), int64(n), int64(k),
		model.OnHost, model.OnHost, model.OnHost)
	cands := model.Candidates(&prm, sm)
	if len(cands) == 0 {
		return model.Selection{}, model.ErrNoCandidates
	}
	best := model.Selection{Predicted: -1}
	for _, T := range cands {
		t, err := PredictDR(sm, routine, dtypeSize, m, n, k, T, gpus)
		if err != nil {
			return model.Selection{}, err
		}
		if best.Predicted < 0 || t < best.Predicted {
			best = model.Selection{T: T, Predicted: t}
		}
	}
	return best, nil
}

// PanelVolumes sums the plan-level transfer-volume annotations of the
// per-GPU column-panel sub-plans a cluster gemm of this shape would
// replay, using the closed-form planner volumes (all operands
// host-resident, as Gemm requires). Layers that budget traffic against a
// split — the hybrid planner — consume these annotations instead of
// re-deriving transfer math.
func PanelVolumes(dt kernelmodel.Dtype, m, n, k, T, gpus int, beta float64) plan.Volumes {
	var total plan.Volumes
	for _, p := range panelCols(n, gpus, T) {
		v := plan.GemmVolumes(plan.Key{
			Routine: "gemm", Dtype: dt, M: m, N: p[1], K: k, T: T, Beta: math.Float64bits(beta),
			Locs: [3]model.Loc{model.OnHost, model.OnHost, model.OnHost}, NLocs: 3,
		})
		total.BytesH2D += v.BytesH2D
		total.BytesD2H += v.BytesD2H
		total.Subkernels += v.Subkernels
	}
	return total
}

// panelCols splits n columns into g contiguous panels aligned to the tile
// size where possible, returning each panel's starting column and width.
func panelCols(n, g, T int) [][2]int {
	if g > n {
		g = n
	}
	// Align panel boundaries to multiples of T so no tile straddles two
	// GPUs.
	tiles := (n + T - 1) / T
	base := tiles / g
	extra := tiles % g
	var out [][2]int
	col := 0
	for i := 0; i < g; i++ {
		t := base
		if i < extra {
			t++
		}
		w := t * T
		if col+w > n {
			w = n - col
		}
		if w <= 0 {
			continue
		}
		out = append(out, [2]int{col, w})
		col += w
	}
	return out
}

// Gemm executes C = alpha*A*B + beta*C across the cluster: GPU i owns one
// column panel of C (and the matching panel of B), runs the reuse-aware
// scheduler on it, and all panels execute concurrently on the shared
// clock.
func (c *Cluster) Gemm(opts GemmOpts) (Result, error) {
	if opts.M <= 0 || opts.N <= 0 || opts.K <= 0 {
		return Result{}, fmt.Errorf("multigpu: non-positive dims %dx%dx%d", opts.M, opts.N, opts.K)
	}
	if opts.T <= 0 {
		return Result{}, fmt.Errorf("multigpu: non-positive tiling size %d", opts.T)
	}
	for _, m := range []*operand.Matrix{opts.A, opts.B, opts.C} {
		if m == nil {
			return Result{}, errors.New("multigpu: nil operand")
		}
		if m.Loc != model.OnHost {
			return Result{}, errors.New("multigpu: operands must be host-resident")
		}
	}
	if err := opts.A.Validate("A", opts.Dtype, c.backed); err != nil {
		return Result{}, err
	}
	if err := opts.B.Validate("B", opts.Dtype, c.backed); err != nil {
		return Result{}, err
	}
	if err := opts.C.Validate("C", opts.Dtype, c.backed); err != nil {
		return Result{}, err
	}
	if opts.A.Rows != opts.M || opts.A.Cols != opts.K ||
		opts.B.Rows != opts.K || opts.B.Cols != opts.N ||
		opts.C.Rows != opts.M || opts.C.Cols != opts.N {
		return Result{}, errors.New("multigpu: operand shapes inconsistent with m, n, k")
	}

	panels := panelCols(opts.N, len(c.runtimes), opts.T)
	start := c.eng.Now()
	res := Result{T: opts.T, PerGPU: make([]operand.Result, len(panels))}

	// subMatrix views one column block of a host matrix.
	subMatrix := func(m *operand.Matrix, col, width int) *operand.Matrix {
		out := &operand.Matrix{
			Rows: m.Rows, Cols: width, Loc: model.OnHost, HostLd: m.HostLd,
		}
		off := col * m.HostLd
		if m.HostF64 != nil {
			out.HostF64 = m.HostF64[off:]
		}
		if m.HostF32 != nil {
			out.HostF32 = m.HostF32[off:]
		}
		return out
	}

	// Enqueue every panel's full schedule before draining anything: the
	// panels then execute concurrently on the shared virtual clock, each
	// GPU bounded by its own link and compute engine. Each panel is one
	// sub-plan replayed on its GPU's context; panelCols produces at most
	// two distinct widths, consecutively, so memoizing the last width's
	// plan dedupes the planning work across the cluster.
	pending := make([]*sched.PendingGemm, len(panels))
	panelEnd := make([]float64, len(panels))
	var panelPlan *plan.Plan
	for i, p := range panels {
		bPanel := subMatrix(opts.B, p[0], p[1])
		cPanel := subMatrix(opts.C, p[0], p[1])
		sub := sched.GemmOpts{
			Dtype: opts.Dtype, M: opts.M, N: p[1], K: opts.K,
			Alpha: opts.Alpha, Beta: opts.Beta,
			A: opts.A, B: bPanel, C: cPanel, T: opts.T,
		}
		var err error
		if panelPlan == nil || panelPlan.N != p[1] {
			panelPlan, err = c.contexts[i].Plan(sub)
		}
		var pend *sched.PendingGemm
		if err == nil {
			pend, err = c.contexts[i].Enqueue(panelPlan, sub)
		}
		if err != nil {
			// Drain whatever was enqueued so the engine is reusable, then
			// surface the error.
			for _, rt := range c.runtimes {
				_, _ = rt.Sync()
			}
			for j := 0; j < i; j++ {
				pending[j].Finish(c.eng.Now())
			}
			return Result{}, err
		}
		pending[i] = pend
		i := i
		c.contexts[i].OnDrained(func() { panelEnd[i] = c.eng.Now() })
	}

	// One drain executes everything; per-runtime Sync verifies no GPU
	// deadlocked.
	for _, rt := range c.runtimes {
		if _, err := rt.Sync(); err != nil {
			return Result{}, err
		}
	}
	for i, pend := range pending {
		res.PerGPU[i] = pend.Finish(panelEnd[i])
	}
	res.Seconds = c.eng.Now() - start
	return res, nil
}
