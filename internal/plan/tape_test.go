package plan

import (
	"math"
	"testing"

	"cocopelia/internal/blas"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/model"
)

// TestKernelSecondsMatchesTape pins the one per-op duration function:
// KernelSeconds must equal the in-order sum of the kernel durations a tape
// compiled for the same GPU carries, bit for bit, whether its memo starts
// empty or arrives warm from other plans.
func TestKernelSecondsMatchesTape(t *testing.T) {
	H := model.OnHost
	plans := map[string]*Plan{
		"potrf-4096": BuildCholesky(CholeskySpec{Dtype: kernelmodel.F64, N: 4096, LocA: H, T: 256}),
		"getrf-4096": BuildLU(LUSpec{Dtype: kernelmodel.F64, N: 4096, LocA: H, T: 256}),
		"trsm-4096": BuildTrsm(TrsmSpec{Dtype: kernelmodel.F64, Diag: blas.NonUnit,
			M: 4096, N: 4096, Alpha: 1, LocA: H, LocB: H, T: 256}),
	}
	names := []string{"potrf-4096", "getrf-4096", "trsm-4096"}
	for _, gc := range goldenCases() {
		plans[gc.name] = gc.p
		names = append(names, gc.name)
	}
	for _, tb := range []*machine.Testbed{machine.TestbedI(), machine.TestbedII()} {
		gpu := &tb.GPU
		var warm kernelmodel.Memo
		for _, name := range names {
			p := plans[name]
			want := 0.0
			kernels := 0
			for _, op := range compileTape(p, gpu).ops {
				if op.code == tKernel {
					want += op.dur
					kernels++
				}
			}
			if kernels == 0 {
				t.Fatalf("%s: tape has no kernels", name)
			}
			var cold kernelmodel.Memo
			for i, memo := range []*kernelmodel.Memo{&cold, &warm} {
				if got := p.KernelSeconds(gpu, memo); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s %s memo %d (0 cold, 1 warm): KernelSeconds %v, tape sum %v", tb.Name, name, i, got, want)
				}
			}
		}
	}
}
