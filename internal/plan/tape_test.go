package plan

import (
	"math"
	"slices"
	"sync"
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

// TestTapeForCompilesOnce pins the tape cache under concurrent first use:
// every caller gets the same tape, the cache holds one tape per GPU model,
// and returning to a GPU model reuses its tape.
func TestTapeForCompilesOnce(t *testing.T) {
	p := BuildCholesky(CholeskySpec{Dtype: kernelmodel.F64, N: 2048, LocA: model.OnHost, T: 256})
	gpuI, gpuII := &machine.TestbedI().GPU, &machine.TestbedII().GPU

	const callers = 16
	tapes := make([]*Tape, callers)
	var ready, done sync.WaitGroup
	ready.Add(1)
	for i := range tapes {
		done.Add(1)
		go func() {
			defer done.Done()
			ready.Wait()
			tapes[i] = p.TapeFor(gpuI)
		}()
	}
	ready.Done()
	done.Wait()
	for i, tp := range tapes {
		if tp != tapes[0] {
			t.Fatalf("caller %d got tape %p, caller 0 got %p", i, tp, tapes[0])
		}
	}
	if n := len(p.tape.tapes); n != 1 {
		t.Errorf("%d concurrent first uses cached %d tapes, want 1", callers, n)
	}

	other := p.TapeFor(gpuII)
	if other == tapes[0] || p.TapeFor(gpuII) != other {
		t.Error("a second GPU model must get its own cached tape")
	}
	if p.TapeFor(gpuI) != tapes[0] {
		t.Error("returning to the first GPU model recompiled its tape")
	}
	if n := len(p.tape.tapes); n != 2 {
		t.Errorf("two GPU models cached %d tapes, want 2", n)
	}
}

// TestReleaseRecyclesArenas builds a plan into the arrays a larger,
// released plan leaves behind: it must take them, and its dump and its
// tape must equal those of the same plan built before.
func TestReleaseRecyclesArenas(t *testing.T) {
	gpu := &machine.TestbedI().GPU
	build := func(locA model.Loc, beta float64) *Plan {
		p := BuildGemmNoReuse(GemmSpec{Dtype: kernelmodel.F64, TransA: blas.NoTrans, TransB: blas.NoTrans,
			M: 130, N: 70, K: 95, Alpha: 1, Beta: beta,
			LocA: locA, LocB: model.OnHost, LocC: model.OnHost, T: 16}, 1<<30)
		p.TapeFor(gpu)
		return p
	}
	want := build(model.OnDevice, 0)
	dirty := build(model.OnHost, 0.5)
	ops := &dirty.Ops[:1][0]
	dirty.Release()
	if dirty.Ops != nil || dirty.tape.tapes != nil {
		t.Fatal("Release kept the plan's arrays")
	}
	got := build(model.OnDevice, 0)
	if &got.Ops[:1][0] != ops {
		t.Error("the plan built after Release did not take the released op array")
	}
	if d, w := got.Dump(), want.Dump(); d != w {
		t.Fatalf("plan rebuilt over released arrays:\n%s\nwant:\n%s", d, w)
	}
	gt, wt := got.TapeFor(gpu), want.TapeFor(gpu)
	if !slices.Equal(gt.ops, wt.ops) || !slices.Equal(gt.deps, wt.deps) {
		t.Fatal("tape rebuilt over released arrays differs")
	}
}
