package operand

import (
	"testing"

	"cocopelia/internal/cudart"
	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/model"
	"cocopelia/internal/sim"
)

func devBuffer(t *testing.T, dt kernelmodel.Dtype, elems int64) *cudart.DevBuffer {
	t.Helper()
	eng := sim.New()
	rt := cudart.New(device.New(eng, machine.TestbedI(), 1, true))
	buf, err := rt.Malloc(dt, elems, false)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestHostMatrixConstructor(t *testing.T) {
	data := make([]float64, 12)
	m := HostMatrix(3, 4, data)
	if m.Rows != 3 || m.Cols != 4 || m.HostLd != 3 || m.Loc != model.OnHost {
		t.Errorf("descriptor wrong: %+v", m)
	}
	if err := m.Validate("A", kernelmodel.F64, true); err != nil {
		t.Error(err)
	}
}

func TestMatrixValidate(t *testing.T) {
	cases := []struct {
		name string
		m    *Matrix
		dt   kernelmodel.Dtype
		back bool
		ok   bool
	}{
		{"nil", nil, kernelmodel.F64, false, false},
		{"bad shape", &Matrix{Rows: 0, Cols: 4, Loc: model.OnHost, HostLd: 1}, kernelmodel.F64, false, false},
		{"bad ld", &Matrix{Rows: 4, Cols: 4, Loc: model.OnHost, HostLd: 2}, kernelmodel.F64, false, false},
		{"timing ok", &Matrix{Rows: 4, Cols: 4, Loc: model.OnHost, HostLd: 4}, kernelmodel.F64, false, true},
		{"backed short", &Matrix{Rows: 4, Cols: 4, Loc: model.OnHost, HostLd: 4, HostF64: make([]float64, 5)}, kernelmodel.F64, true, false},
		{"backed ok", &Matrix{Rows: 4, Cols: 4, Loc: model.OnHost, HostLd: 4, HostF64: make([]float64, 16)}, kernelmodel.F64, true, true},
		{"backed f32 short", &Matrix{Rows: 4, Cols: 4, Loc: model.OnHost, HostLd: 4, HostF32: make([]float32, 5)}, kernelmodel.F32, true, false},
		{"device no buffer", &Matrix{Rows: 4, Cols: 4, Loc: model.OnDevice}, kernelmodel.F64, false, false},
	}
	for _, c := range cases {
		err := c.m.Validate("A", c.dt, c.back)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestMatrixValidateDevice(t *testing.T) {
	buf := devBuffer(t, kernelmodel.F64, 16)
	good := &Matrix{Rows: 4, Cols: 4, Loc: model.OnDevice, Dev: buf, DevLd: 4}
	if err := good.Validate("A", kernelmodel.F64, false); err != nil {
		t.Error(err)
	}
	badLd := &Matrix{Rows: 4, Cols: 4, Loc: model.OnDevice, Dev: buf, DevLd: 2}
	if err := badLd.Validate("A", kernelmodel.F64, false); err == nil {
		t.Error("device ld < rows should error")
	}
	wrongDt := &Matrix{Rows: 4, Cols: 4, Loc: model.OnDevice, Dev: buf, DevLd: 4}
	if err := wrongDt.Validate("A", kernelmodel.F32, false); err == nil {
		t.Error("dtype mismatch should error")
	}
	// The last column of a 4x4 matrix at ld 5 ends at element 3*5+4 = 19.
	wideLd := &Matrix{Rows: 4, Cols: 4, Loc: model.OnDevice, Dev: buf, DevLd: 5}
	if err := wideLd.Validate("A", kernelmodel.F64, false); err == nil {
		t.Error("a buffer shorter than (cols-1)*ld+rows should error")
	}
	tall := &Matrix{Rows: 4, Cols: 3, Loc: model.OnDevice, Dev: buf, DevLd: 5}
	if err := tall.Validate("A", kernelmodel.F64, false); err != nil {
		t.Errorf("a buffer of exactly (cols-1)*ld+rows elements: %v", err)
	}
	if err := good.Validate("A", kernelmodel.F64, true); err == nil {
		t.Error("an unbacked device buffer should error on a backed run")
	}
}

func TestHostSlices(t *testing.T) {
	data := make([]float64, 20) // 4x5, ld 4
	for i := range data {
		data[i] = float64(i)
	}
	m := HostMatrix(4, 5, data)
	f64, f32 := m.HostSlices(1, 2)
	if f32 != nil {
		t.Error("f32 view should be nil")
	}
	if f64[0] != float64(1+2*4) {
		t.Errorf("offset wrong: %g", f64[0])
	}
	empty := HostMatrix(4, 5, nil)
	f64, f32 = empty.HostSlices(1, 2)
	if f64 != nil || f32 != nil {
		t.Error("nil storage should give nil views")
	}
}

func TestVectorValidate(t *testing.T) {
	if err := (&Vector{N: 4, Loc: model.OnHost}).Validate("x", false); err != nil {
		t.Error(err)
	}
	if err := (*Vector)(nil).Validate("x", false); err == nil {
		t.Error("nil vector should error")
	}
	if err := (&Vector{N: 0, Loc: model.OnHost}).Validate("x", false); err == nil {
		t.Error("empty vector should error")
	}
	if err := (&Vector{N: 4, Loc: model.OnHost, HostF64: make([]float64, 2)}).Validate("x", true); err == nil {
		t.Error("short backed vector should error")
	}
	if err := (&Vector{N: 4, Loc: model.OnDevice}).Validate("x", false); err == nil {
		t.Error("device vector without buffer should error")
	}
	hv := HostVector(4, make([]float64, 4))
	if err := hv.Validate("x", true); err != nil {
		t.Error(err)
	}
	dev := &Vector{N: 4, Loc: model.OnDevice, Dev: devBuffer(t, kernelmodel.F64, 4)}
	if err := dev.Validate("x", false); err != nil {
		t.Error(err)
	}
	if err := (&Vector{N: 5, Loc: model.OnDevice, Dev: dev.Dev}).Validate("x", false); err == nil {
		t.Error("device vector longer than its buffer should error")
	}
	if err := (&Vector{N: 4, Loc: model.OnDevice, Dev: devBuffer(t, kernelmodel.F32, 4)}).Validate("x", false); err == nil {
		t.Error("float32 device vector should error")
	}
}

func TestResultGflops(t *testing.T) {
	r := Result{Seconds: 2}
	if g := r.Gflops(1000, 1000, 1000); g != 1 {
		t.Errorf("gflops = %g, want 1", g)
	}
	if (Result{}).Gflops(10, 10, 10) != 0 {
		t.Error("zero-time result should give 0")
	}
}
