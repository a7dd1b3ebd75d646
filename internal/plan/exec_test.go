package plan

import (
	"math"
	"testing"

	"cocopelia/internal/blas"
	"cocopelia/internal/cudart"
	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/model"
	"cocopelia/internal/sim"
)

// testAlloc is the staging allocator of the replay tests: every slot gets
// a fresh timing-only buffer from the runtime.
type testAlloc struct{ rt *cudart.Runtime }

func (a testAlloc) Acquire(dt kernelmodel.Dtype, elems int64) (*cudart.DevBuffer, error) {
	return a.rt.Malloc(dt, elems, false)
}

func (a testAlloc) Release(b *cudart.DevBuffer) {
	if err := a.rt.Free(b); err != nil {
		panic(err)
	}
}

// firedKernels replays p timing-only through e on a fresh noiseless device
// of tb and returns every fired kernel's (start, end) in completion order.
func firedKernels(t *testing.T, e *Executor, p *Plan, tb *machine.Testbed) [][2]sim.Time {
	t.Helper()
	dev := device.New(sim.New(), tb, 1, true)
	rt := cudart.New(dev)
	var fired [][2]sim.Time
	dev.SetKernelObserver(func(_ string, start, end sim.Time) {
		fired = append(fired, [2]sim.Time{start, end})
	})
	tgt := Target{Streams: make([]*cudart.Stream, p.Streams), Alloc: testAlloc{rt}}
	for i := range tgt.Streams {
		tgt.Streams[i] = rt.NewStream()
	}
	pooled, err := e.Run(p, &tb.GPU, tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, b := range pooled {
		tgt.Alloc.Release(b)
	}
	return fired
}

// TestKernelSecondsMatchesReplay pins the one per-op duration function:
// every kernel a replay fires on a noiseless device runs for its op's
// duration, and KernelSeconds equals the in-op-order sum of those
// durations bit for bit, whether its memo starts empty or arrives warm
// from other plans. The replays share one executor across plans and GPU
// models, so its memo is warm and changes GPU model too.
func TestKernelSecondsMatchesReplay(t *testing.T) {
	H := model.OnHost
	plans := map[string]*Plan{
		"potrf-4096": mustBuild(factorKey("cholesky", kernelmodel.F64, 4096, 256, H), 0),
		"getrf-4096": mustBuild(factorKey("lu", kernelmodel.F64, 4096, 256, H), 0),
		"trsm-4096":  mustBuild(trsmKey(blas.NonUnit, 4096, 4096, 256, 1, H, H), 0),
	}
	names := []string{"potrf-4096", "getrf-4096", "trsm-4096"}
	for _, gc := range goldenCases() {
		plans[gc.name] = mustBuild(gc.key, gc.free)
		names = append(names, gc.name)
	}
	var e Executor
	for _, tb := range []*machine.Testbed{machine.TestbedI(), machine.TestbedII()} {
		gpu := &tb.GPU
		var warm kernelmodel.Memo
		for _, name := range names {
			p := plans[name]
			fired := firedKernels(t, &e, p, tb)
			// The device runs one kernel at a time in launch order. Match
			// each fired kernel to the first unmatched kernel op whose
			// duration it ran for: ops pinned to several streams (the
			// cuBLASXt schedule) may launch out of op order.
			var durs []float64
			var memo kernelmodel.Memo
			for i := range p.Ops {
				if o := &p.Ops[i]; o.Kind == OpKernel {
					durs = append(durs, p.kernelDur(gpu, &memo, o))
				}
			}
			if len(durs) == 0 || len(fired) != len(durs) {
				t.Fatalf("%s %s: replay fired %d kernels, the plan has %d", tb.Name, name, len(fired), len(durs))
			}
			matched := make([]bool, len(durs))
			for f, iv := range fired {
				k := 0
				for k < len(durs) && (matched[k] || iv[0]+durs[k] != iv[1]) {
					k++
				}
				if k == len(durs) {
					t.Fatalf("%s %s: fired kernel %d ran [%v, %v], no unmatched kernel op has that duration", tb.Name, name, f, iv[0], iv[1])
				}
				matched[k] = true
			}
			want := 0.0
			for _, d := range durs {
				want += d
			}
			var cold kernelmodel.Memo
			for i, m := range []*kernelmodel.Memo{&cold, &warm} {
				if got := p.KernelSeconds(gpu, m); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s %s memo %d (0 cold, 1 warm): KernelSeconds %v, replayed kernels sum %v", tb.Name, name, i, got, want)
				}
			}
		}
	}
}

// TestReleaseRecyclesArenas builds a plan into the arrays a larger,
// released plan leaves behind: it must take them, and its dump must equal
// that of the same plan built before.
func TestReleaseRecyclesArenas(t *testing.T) {
	build := func(locA model.Loc, beta float64) *Plan {
		return mustBuild(gemmKey("gemm-noreuse", 130, 70, 95, 16, 1, beta, locA, model.OnHost, model.OnHost), 1<<30)
	}
	want := build(model.OnDevice, 0)
	dirty := build(model.OnHost, 0.5)
	dirty.Hazards()
	ops := &dirty.Ops[:1][0]
	dirty.Release()
	if dirty.Ops != nil || dirty.hazards.g != nil {
		t.Fatal("Release kept the plan's arrays")
	}
	got := build(model.OnDevice, 0)
	if &got.Ops[:1][0] != ops {
		t.Error("the plan built after Release did not take the released op array")
	}
	if d, w := got.Dump(), want.Dump(); d != w {
		t.Fatalf("plan rebuilt over released arrays:\n%s\nwant:\n%s", d, w)
	}
}
