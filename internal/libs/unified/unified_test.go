// Package unified holds the tests of the unified-memory daxpy comparator,
// which runs as the scheduler request sched.AxpyUnifiedOpts over the
// "axpy-unified" plan.
package unified

import (
	"math"
	"testing"

	"cocopelia/internal/cudart"
	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/model"
	"cocopelia/internal/operand"
	"cocopelia/internal/sched"
	"cocopelia/internal/sim"
)

func newCtx(backed bool) (*sched.Context, *cudart.Runtime) {
	rt := cudart.New(device.New(sim.New(), machine.TestbedII(), 1, true))
	return sched.NewContext(rt, backed), rt
}

func TestDaxpyFunctional(t *testing.T) {
	ctx, rt := newCtx(true)
	n := 3 * sched.UnifiedPrefetchElems / 2 // exercises a ragged final chunk
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 97)
		y[i] = 1
	}
	res, err := ctx.Run(sched.AxpyUnifiedOpts{N: n, Alpha: 3, X: operand.HostVector(n, x), Y: operand.HostVector(n, y)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range y {
		want := 1 + 3*float64(i%97)
		if math.Abs(y[i]-want) > 1e-12 {
			t.Fatalf("y[%d] = %g, want %g", i, y[i], want)
		}
	}
	if res.Subkernels != 2 {
		t.Errorf("chunks = %d, want 2", res.Subkernels)
	}
	if want := int64(2*n) * 8; res.BytesH2D != want {
		t.Errorf("h2d = %d, want %d", res.BytesH2D, want)
	}
	if want := int64(n) * 8; res.BytesD2H != want {
		t.Errorf("d2h = %d, want %d", res.BytesD2H, want)
	}
	// The managed mirrors return to the context's pool after the call.
	if err := ctx.ReleaseAll(); err != nil {
		t.Fatal(err)
	}
	if rt.Device().MemUsed() != 0 {
		t.Error("managed mirrors not freed")
	}
}

func TestDaxpyDeviceResidentNoTraffic(t *testing.T) {
	ctx, rt := newCtx(false)
	n := sched.UnifiedPrefetchElems
	mk := func() *operand.Vector {
		buf, err := rt.Malloc(kernelmodel.F64, int64(n), false)
		if err != nil {
			t.Fatal(err)
		}
		return &operand.Vector{N: n, Loc: model.OnDevice, Dev: buf}
	}
	res, err := ctx.Run(sched.AxpyUnifiedOpts{N: n, Alpha: 2, X: mk(), Y: mk()})
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesH2D != 0 || res.BytesD2H != 0 {
		t.Errorf("device-resident daxpy moved %d/%d bytes", res.BytesH2D, res.BytesD2H)
	}
}

func TestDaxpySlowerThanCoCoPeLia(t *testing.T) {
	// The paper's comparison: explicit tiled 3-way overlap must beat the
	// unified-memory path for the full-offload scenario, because unified
	// memory cannot overlap the write-back with compute and pays far more
	// per-transfer latencies.
	n := 64 << 20
	x, y := operand.HostVector(n, nil), operand.HostVector(n, nil)
	run := func(r sched.Request) float64 {
		ctx, _ := newCtx(false)
		res, err := ctx.Run(r)
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	um := run(sched.AxpyUnifiedOpts{N: n, Alpha: 2, X: x, Y: y})
	coco := run(sched.AxpyOpts{N: n, Alpha: 2, X: x, Y: y, T: 8 << 20})
	if coco >= um {
		t.Errorf("cocopelia daxpy (%g) should beat unified memory (%g)", coco, um)
	}
}

func TestDaxpyValidation(t *testing.T) {
	ctx, _ := newCtx(false)
	v := operand.HostVector(100, nil)
	w := operand.HostVector(50, nil)
	for _, c := range []struct {
		what string
		req  sched.AxpyUnifiedOpts
	}{
		{"n=0", sched.AxpyUnifiedOpts{N: 0, Alpha: 1, X: v, Y: v}},
		{"nil x", sched.AxpyUnifiedOpts{N: 100, Alpha: 1, X: nil, Y: v}},
		{"length mismatch", sched.AxpyUnifiedOpts{N: 100, Alpha: 1, X: v, Y: w}},
	} {
		if _, err := ctx.Run(c.req); err == nil {
			t.Errorf("%s should error", c.what)
		}
	}
}
