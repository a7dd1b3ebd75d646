// Package operand defines the operand descriptors and result types shared
// by all GPU BLAS library implementations in this repository (the
// CoCoPeLia tile scheduler and the cuBLASXt-, BLASX- and unified-memory-
// style comparators).
package operand

import (
	"fmt"

	"cocopelia/internal/cudart"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/model"
)

// Matrix describes one column-major matrix operand and where it initially
// resides. Host-resident operands carry host storage (which may be nil in
// timing-only runs); device-resident operands carry a full-matrix device
// buffer.
type Matrix struct {
	Rows, Cols int
	Loc        model.Loc
	// Host storage (Loc == OnHost); exactly one of the two slices is used,
	// matching the routine dtype. Nil slices are legal in timing-only runs.
	HostF64 []float64
	HostF32 []float32
	HostLd  int
	// Device storage (Loc == OnDevice).
	Dev   *cudart.DevBuffer
	DevLd int
}

// HostMatrix returns a host-resident descriptor over float64 storage with
// a packed leading dimension (nil storage for timing-only runs).
func HostMatrix(rows, cols int, data []float64) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Loc: model.OnHost, HostF64: data, HostLd: rows}
}

// Validate checks the descriptor for the routine dtype: host storage, or a
// device buffer of the dtype, holds every element the shape and leading
// dimension address. Timing-only runs may omit host storage; backed runs
// need storage on the host or device side.
func (m *Matrix) Validate(name string, dt kernelmodel.Dtype, backed bool) error {
	if m == nil {
		return fmt.Errorf("operand: %s is nil", name)
	}
	if m.Rows <= 0 || m.Cols <= 0 {
		return fmt.Errorf("operand: %s has non-positive shape %dx%d", name, m.Rows, m.Cols)
	}
	if m.Loc == model.OnHost {
		if m.HostLd < m.Rows {
			return fmt.Errorf("operand: %s host ld %d < rows %d", name, m.HostLd, m.Rows)
		}
		if backed {
			need := (m.Cols-1)*m.HostLd + m.Rows
			if dt == kernelmodel.F64 && len(m.HostF64) < need {
				return fmt.Errorf("operand: %s host storage too short", name)
			}
			if dt == kernelmodel.F32 && len(m.HostF32) < need {
				return fmt.Errorf("operand: %s host storage too short", name)
			}
		}
		return nil
	}
	if m.Dev == nil {
		return fmt.Errorf("operand: %s on device without a buffer", name)
	}
	if m.DevLd < m.Rows {
		return fmt.Errorf("operand: %s device ld %d < rows %d", name, m.DevLd, m.Rows)
	}
	if m.Dev.Dtype() != dt {
		return fmt.Errorf("operand: %s device buffer dtype mismatch", name)
	}
	return checkDev(name, m.Dev, int64(m.Cols-1)*int64(m.DevLd)+int64(m.Rows), backed)
}

// checkDev checks that a device buffer holds need elements and, on backed
// runs, carries storage.
func checkDev(name string, b *cudart.DevBuffer, need int64, backed bool) error {
	if b.Elems() < need {
		return fmt.Errorf("operand: %s device buffer of %d elements, shape needs %d", name, b.Elems(), need)
	}
	if backed && !b.Backed() {
		return fmt.Errorf("operand: %s device buffer has no storage", name)
	}
	return nil
}

// HostSlices returns the host storage slices offset to (row, col), or nil
// slices when storage is absent (timing-only).
func (m *Matrix) HostSlices(row, col int) (f64 []float64, f32 []float32) {
	off := row + col*m.HostLd
	if m.HostF64 != nil {
		f64 = m.HostF64[off:]
	}
	if m.HostF32 != nil {
		f32 = m.HostF32[off:]
	}
	return f64, f32
}

// Vector describes one vector operand for the level-1 routines.
type Vector struct {
	N       int
	Loc     model.Loc
	HostF64 []float64
	Dev     *cudart.DevBuffer
}

// HostVector returns a host-resident float64 vector descriptor.
func HostVector(n int, data []float64) *Vector {
	return &Vector{N: n, Loc: model.OnHost, HostF64: data}
}

// Validate checks the descriptor: host storage, or a float64 device
// buffer, holds all N elements. Timing-only runs may omit host storage;
// backed runs need storage on the host or device side.
func (v *Vector) Validate(name string, backed bool) error {
	if v == nil {
		return fmt.Errorf("operand: %s is nil", name)
	}
	if v.N <= 0 {
		return fmt.Errorf("operand: %s has non-positive length %d", name, v.N)
	}
	if v.Loc == model.OnHost {
		if backed && len(v.HostF64) < v.N {
			return fmt.Errorf("operand: %s host storage too short", name)
		}
		return nil
	}
	if v.Dev == nil {
		return fmt.Errorf("operand: %s on device without a buffer", name)
	}
	if v.Dev.Dtype() != kernelmodel.F64 {
		return fmt.Errorf("operand: %s device buffer dtype mismatch", name)
	}
	return checkDev(name, v.Dev, int64(v.N), backed)
}

// Result reports one routine invocation's execution.
type Result struct {
	// Seconds is the virtual makespan of the call (enqueue to drain).
	Seconds float64
	// T is the tiling size used.
	T int
	// Subkernels is the number of GPU kernels launched.
	Subkernels int64
	// BytesH2D and BytesD2H are the payload bytes moved per direction.
	BytesH2D, BytesD2H int64
}

// Gflops returns the achieved GFLOP/s for a gemm of the given dimensions.
func (r Result) Gflops(m, n, k int) float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return 2 * float64(m) * float64(n) * float64(k) / r.Seconds / 1e9
}
