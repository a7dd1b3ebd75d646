package sched

import (
	"fmt"

	"cocopelia/internal/blas"
	"cocopelia/internal/plan"
)

// GemmNoReuseOpts is the gemm request of the stateless-sub-kernel
// comparator: C = alpha*A*B + beta*C where every sub-kernel fetches fresh
// tiles of all its host-resident operands and writes its C tile back
// immediately — exactly the per-sub-kernel traffic pattern the paper's
// Eq. 1-4 model (and the behaviour of non-reuse-aware offload libraries).
// It is the measured counterpart for validating the Baseline/DataLoc/BTS
// models on level-3 BLAS (the paper uses cuBLASXt for this role). The
// comparator takes its operands stored NoTrans and rejects any other
// transpose flag.
type GemmNoReuseOpts GemmOpts

func (opts GemmNoReuseOpts) resolve(c *Context) (call, error) {
	if t := opts.TransA; t != 0 && t != blas.NoTrans {
		return call{}, fmt.Errorf("sched: gemm-noreuse takes NoTrans operands only, got TransA %q", t)
	}
	if t := opts.TransB; t != 0 && t != blas.NoTrans {
		return call{}, fmt.Errorf("sched: gemm-noreuse takes NoTrans operands only, got TransB %q", t)
	}
	g := GemmOpts(opts)
	if _, _, err := c.validateGemm(g); err != nil {
		return call{}, err
	}
	// The staging depth is sized to the device memory free at planning
	// time, so the plan embeds the slot-group ring it will replay with.
	spec := gemmSpec(g, blas.NoTrans, blas.NoTrans, 0, false)
	return call{
		key:  gemmKey("gemm-noreuse", g, blas.NoTrans, blas.NoTrans),
		args: [3]plan.Arg{{Mat: opts.A}, {Mat: opts.B}, {Mat: opts.C}},
		build: func() *plan.Plan {
			dev := c.rt.Device()
			return plan.BuildGemmNoReuse(spec, dev.Testbed().GPU.MemBytes-dev.MemUsed())
		},
	}, nil
}
