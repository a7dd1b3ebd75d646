// Package hybrid implements host-assisted execution — the second half of
// the paper's future-work vision ("multi-GPU and host-assisted execution
// ... a portable auto-tuned heterogeneous BLAS library"): the host CPU
// computes a column panel of the output while the GPU cluster computes the
// rest, with the split chosen by the performance models.
//
// Host-resident operands need no transfers on the host side, so the host
// panel's cost is pure compute (machine.HostSpec); the GPU panels go
// through the reuse-aware tile scheduler as usual. The model-driven split
// picks the largest host panel (aligned to the tiling size) whose
// predicted host time does not exceed the predicted cluster time for the
// remainder — balancing the heterogeneous workers.
package hybrid

import (
	"errors"
	"fmt"

	"cocopelia/internal/blas"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/model"
	"cocopelia/internal/multigpu"
	"cocopelia/internal/operand"
)

// Plan describes a chosen heterogeneous split.
type Plan struct {
	// T is the GPU tiling size.
	T int
	// HostCols is the width of the host's column panel (0 = GPU only).
	HostCols int
	// PredictedSeconds is the predicted hybrid makespan.
	PredictedSeconds float64
	// PredictedHost and PredictedGPU are the per-side predictions.
	PredictedHost, PredictedGPU float64
	// GPUBytesH2D and GPUBytesD2H are the GPU side's transfer volumes for
	// the chosen split, taken from the tile planners' annotations
	// (multigpu.PanelVolumes) rather than re-derived transfer math. They
	// assume the general beta != 0 case (C makes the round trip).
	GPUBytesH2D, GPUBytesD2H int64
}

// PlanSplit chooses the host panel width and tiling size: for each
// feasible T it grows the host panel (in T-column steps) while the host
// remains faster than the cluster's predicted remainder, and returns the
// best (T, split) found.
func PlanSplit(sm model.SubModels, tb *machine.Testbed, routine string, dtypeSize int64, m, n, k, gpus int) (Plan, error) {
	if gpus <= 0 {
		return Plan{}, fmt.Errorf("hybrid: non-positive GPU count %d", gpus)
	}
	prm := model.GemmParams(routine, dtypeSize, int64(m), int64(n), int64(k),
		model.OnHost, model.OnHost, model.OnHost)
	cands := model.Candidates(&prm, sm)
	if len(cands) == 0 {
		return Plan{}, model.ErrNoCandidates
	}
	f64 := dtypeSize == 8
	// The host panel grows in fine-grained column steps, independent of
	// the GPU tile: the host needs no tiling (its data is in place), and
	// a full T-wide panel is usually already more than its fair share.
	const hostStep = 256
	best := Plan{PredictedSeconds: -1}
	for _, T := range cands {
		for hostCols := 0; hostCols <= n/2; hostCols += hostStep {
			gpuCols := n - hostCols
			if gpuCols < T {
				break
			}
			tHost := tb.Host.GemmTime(f64, m, hostCols, k)
			tGPU, err := multigpu.PredictDR(sm, routine, dtypeSize, m, gpuCols, k, T, gpus)
			if err != nil {
				return Plan{}, err
			}
			total := tHost
			if tGPU > total {
				total = tGPU
			}
			if best.PredictedSeconds < 0 || total < best.PredictedSeconds {
				best = Plan{
					T: T, HostCols: hostCols,
					PredictedSeconds: total,
					PredictedHost:    tHost, PredictedGPU: tGPU,
				}
			}
			// Growing the host panel past the balance point only hurts.
			if tHost > tGPU {
				break
			}
		}
	}
	if best.PredictedSeconds >= 0 {
		dt := kernelmodel.F32
		if f64 {
			dt = kernelmodel.F64
		}
		v := multigpu.PanelVolumes(dt, m, n-best.HostCols, k, best.T, gpus, 1)
		best.GPUBytesH2D, best.GPUBytesD2H = v.BytesH2D, v.BytesD2H
	}
	return best, nil
}

// Result reports a hybrid execution.
type Result struct {
	Seconds  float64
	T        int
	HostCols int
	// HostSeconds is the host panel's compute time; GPU holds the
	// cluster's per-GPU results.
	HostSeconds float64
	GPU         []operand.Result
}

// Gflops converts the makespan to GFLOP/s for the full problem.
func (r Result) Gflops(m, n, k int) float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return 2 * float64(m) * float64(n) * float64(k) / r.Seconds / 1e9
}

// GemmOpts parameterizes a hybrid gemm. Operands must be host-resident.
type GemmOpts struct {
	Dtype       kernelmodel.Dtype
	M, N, K     int
	Alpha, Beta float64
	A, B, C     *operand.Matrix
	// Plan is the split to execute (from PlanSplit).
	Plan Plan
}

// Gemm executes the hybrid plan on the cluster: the host computes its
// panel (as a simulated compute interval, with real arithmetic in backed
// runs) while the GPUs run the tiled scheduler on the remainder.
func Gemm(cl *multigpu.Cluster, opts GemmOpts) (Result, error) {
	if opts.Plan.T <= 0 {
		return Result{}, errors.New("hybrid: plan has no tiling size")
	}
	if opts.Plan.HostCols < 0 || opts.Plan.HostCols >= opts.N {
		return Result{}, fmt.Errorf("hybrid: host panel %d outside (0, n)", opts.Plan.HostCols)
	}
	for _, mat := range []*operand.Matrix{opts.A, opts.B, opts.C} {
		if mat == nil || mat.Loc != model.OnHost {
			return Result{}, errors.New("hybrid: operands must be host-resident")
		}
	}

	hostCols := opts.Plan.HostCols
	gpuCols := opts.N - hostCols
	eng := cl.Engine()
	start := eng.Now()
	res := Result{T: opts.Plan.T, HostCols: hostCols}

	// Host panel: the last hostCols columns. Its duration comes from the
	// host spec; the simulation is timing-only, so on backed operands its
	// arithmetic runs once the cluster has drained, like the GPU panels'.
	hostDone := start
	if hostCols > 0 {
		dur := cl.Runtime(0).Device().Testbed().Host.GemmTime(opts.Dtype == kernelmodel.F64, opts.M, hostCols, opts.K)
		eng.After(dur, func() { hostDone = eng.Now() })
	}

	// GPU panels: the first gpuCols columns through the cluster.
	sub := func(mat *operand.Matrix, cols int) *operand.Matrix {
		out := &operand.Matrix{Rows: mat.Rows, Cols: cols, Loc: model.OnHost, HostLd: mat.HostLd}
		out.HostF64, out.HostF32 = mat.HostF64, mat.HostF32
		return out
	}
	gpuRes, err := cl.Gemm(multigpu.GemmOpts{
		Dtype: opts.Dtype, M: opts.M, N: gpuCols, K: opts.K,
		Alpha: opts.Alpha, Beta: opts.Beta,
		A: opts.A, B: sub(opts.B, gpuCols), C: sub(opts.C, gpuCols),
		T: opts.Plan.T,
	})
	if err != nil {
		return Result{}, err
	}
	if hostCols > 0 {
		if err := hostPanel(opts, gpuCols, hostCols); err != nil {
			return Result{}, fmt.Errorf("hybrid: host panel: %w", err)
		}
	}
	res.GPU = gpuRes.PerGPU
	res.HostSeconds = hostDone - start
	res.Seconds = eng.Now() - start
	return res, nil
}

// hostPanel computes the host panel, columns [col, col+cols) of C, on
// backed operands (timing-only operands carry no storage and skip it).
func hostPanel(opts GemmOpts, col, cols int) error {
	if opts.C.HostF64 == nil && opts.C.HostF32 == nil {
		return nil
	}
	if opts.Dtype == kernelmodel.F64 {
		return blas.Dgemm(blas.NoTrans, blas.NoTrans, opts.M, cols, opts.K,
			opts.Alpha, opts.A.HostF64, opts.A.HostLd,
			opts.B.HostF64[col*opts.B.HostLd:], opts.B.HostLd,
			opts.Beta, opts.C.HostF64[col*opts.C.HostLd:], opts.C.HostLd)
	}
	return blas.Sgemm(blas.NoTrans, blas.NoTrans, opts.M, cols, opts.K,
		float32(opts.Alpha), opts.A.HostF32, opts.A.HostLd,
		opts.B.HostF32[col*opts.B.HostLd:], opts.B.HostLd,
		float32(opts.Beta), opts.C.HostF32[col*opts.C.HostLd:], opts.C.HostLd)
}
