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

func newRT() *cudart.Runtime {
	eng := sim.New()
	return cudart.New(device.New(eng, machine.TestbedII(), 1, true))
}

func TestDaxpyFunctional(t *testing.T) {
	rt := newRT()
	n := 3 * PrefetchElems / 2 // exercises a ragged final chunk
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 97)
		y[i] = 1
	}
	res, err := Daxpy(rt, n, 3, operand.HostVector(n, x), operand.HostVector(n, y), true)
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
	if rt.Device().MemUsed() != 0 {
		t.Error("managed mirrors not freed")
	}
}

func TestDaxpyDeviceResidentNoTraffic(t *testing.T) {
	rt := newRT()
	n := PrefetchElems
	mk := func() *operand.Vector {
		buf, err := rt.Malloc(kernelmodel.F64, int64(n), false)
		if err != nil {
			t.Fatal(err)
		}
		return &operand.Vector{N: n, Loc: model.OnDevice, Dev: buf}
	}
	res, err := Daxpy(rt, n, 2, mk(), mk(), false)
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
	runUM := func() float64 {
		rt := newRT()
		res, err := Daxpy(rt, n, 2, operand.HostVector(n, nil), operand.HostVector(n, nil), false)
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	runCoco := func() float64 {
		rt := newRT()
		ctx := sched.NewContext(rt, false)
		res, err := ctx.Run(sched.AxpyOpts{
			N: n, Alpha: 2,
			X: operand.HostVector(n, nil),
			Y: operand.HostVector(n, nil),
			T: 8 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	um, coco := runUM(), runCoco()
	if coco >= um {
		t.Errorf("cocopelia daxpy (%g) should beat unified memory (%g)", coco, um)
	}
}

func TestDaxpyValidation(t *testing.T) {
	rt := newRT()
	v := operand.HostVector(100, nil)
	if _, err := Daxpy(rt, 0, 1, v, v, false); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := Daxpy(rt, 100, 1, nil, v, false); err == nil {
		t.Error("nil x should error")
	}
	w := operand.HostVector(50, nil)
	if _, err := Daxpy(rt, 100, 1, v, w, false); err == nil {
		t.Error("length mismatch should error")
	}
}
