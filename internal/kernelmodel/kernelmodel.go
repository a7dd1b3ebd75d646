// Package kernelmodel is the ground-truth duration model of BLAS kernels on
// the simulated GPUs. It plays the role that the cuBLAS kernels themselves
// play on real hardware: given a routine and sub-problem dimensions it
// produces the kernel execution time the device will exhibit.
//
// The model deliberately includes the phenomena the paper identifies as the
// reasons simple linear models fail (Section III-A):
//
//   - non-linear execution time: a roofline combining compute throughput
//     with device-memory bandwidth, so small and thin kernels are
//     memory-bound;
//   - GPU underutilization for small sub-problems: a saturating efficiency
//     curve in the problem "dimension" (cube root of M·N·K);
//   - shape sensitivity: fat-by-thin multiplications differ from square
//     ones with the same FLOP count through their byte/FLOP ratio;
//   - fixed kernel launch overhead;
//   - deterministic per-size performance perturbations ("spikes"), with a
//     larger amplitude on the V100-class testbed, as observed in the
//     paper's Section V-C.
//
// Per-invocation measurement noise is NOT applied here; the device layer
// adds it so that repeated invocations of the same kernel differ, which is
// what drives the confidence-interval stopping rule of the deployment
// micro-benchmarks.
package kernelmodel

import (
	"math"

	"cocopelia/internal/machine"
)

// Dtype identifies the floating-point element type of a routine.
type Dtype int

const (
	// F64 is IEEE double precision (the "d" routine prefix).
	F64 Dtype = iota
	// F32 is IEEE single precision (the "s" routine prefix).
	F32
)

// Size returns the element size in bytes.
func (d Dtype) Size() int64 {
	if d == F32 {
		return 4
	}
	return 8
}

// String returns "f64" or "f32".
func (d Dtype) String() string {
	if d == F32 {
		return "f32"
	}
	return "f64"
}

// peak returns the device peak FLOP/s for the dtype.
func peak(g *machine.GPUSpec, dt Dtype) float64 {
	if dt == F32 {
		return g.PeakFlops32
	}
	return g.PeakFlops64
}

// maxEff returns the asymptotic kernel efficiency for the dtype.
func maxEff(g *machine.GPUSpec, dt Dtype) float64 {
	if dt == F32 {
		return g.MaxEff32
	}
	return g.MaxEff64
}

// hash01 maps integers to a deterministic pseudo-uniform value in [0, 1).
// It drives the per-size performance spikes: the same dimensions always get
// the same perturbation, as on real hardware where specific sizes hit
// pathological (or lucky) kernel configurations.
func hash01(vals ...int64) float64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= uint64(v) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
	}
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}

// spikeFactor returns the multiplicative per-size perturbation of kernel
// efficiency. Sizes are bucketed at 128-element granularity so neighbouring
// dimensions share a spike, mimicking kernel-selection boundaries.
func spikeFactor(g *machine.GPUSpec, dt Dtype, dims ...int) float64 {
	if g.SpikeAmp == 0 {
		return 1
	}
	buckets := make([]int64, 0, len(dims)+1)
	buckets = append(buckets, int64(dt))
	for _, d := range dims {
		buckets = append(buckets, int64(d/128))
	}
	return 1 + g.SpikeAmp*(2*hash01(buckets...)-1)
}

// gemmEff returns the achieved fraction of peak for an MxNxK gemm. It
// saturates toward the device maximum with the characteristic dimension
// d = cbrt(M·N·K) and carries a mild penalty for extreme aspect ratios.
func gemmEff(g *machine.GPUSpec, dt Dtype, m, n, k int) float64 {
	d := math.Cbrt(float64(m) * float64(n) * float64(k))
	eff := maxEff(g, dt) / (1 + math.Pow(g.EffHalfDim/d, g.EffSharpness))
	minDim := math.Min(float64(m), math.Min(float64(n), float64(k)))
	if minDim > 0 && minDim < d {
		// Extreme aspect ratios (fat-by-thin) schedule less efficiently.
		eff *= math.Pow(minDim/d, 0.08)
	}
	return eff * spikeFactor(g, dt, m, n, k)
}

// memEff returns the achieved fraction of device-memory bandwidth for a
// streaming kernel touching the given number of bytes. Short vectors cannot
// saturate the memory system.
func memEff(g *machine.GPUSpec, bytes int64) float64 {
	// Half of peak bandwidth at ~2 MiB working sets, saturating above.
	const halfBytes = 2 << 20
	return 0.92 / (1 + math.Pow(halfBytes/float64(bytes+1), 0.9))
}

// GemmTime returns the execution time of an MxNxK gemm sub-kernel
// (C[MxN] += A[MxK]·B[KxN]) on the device.
func GemmTime(g *machine.GPUSpec, dt Dtype, m, n, k int) float64 {
	if m <= 0 || n <= 0 || k <= 0 {
		return g.KernelLaunchS
	}
	flops := 2 * float64(m) * float64(n) * float64(k)
	bytes := (int64(m)*int64(k) + int64(k)*int64(n) + 2*int64(m)*int64(n)) * dt.Size()
	tCompute := flops / (peak(g, dt) * gemmEff(g, dt, m, n, k))
	tMemory := float64(bytes) / (g.MemBandwidthBps * memEff(g, bytes))
	return g.KernelLaunchS + math.Max(tCompute, tMemory)
}

// AxpyTime returns the execution time of y += alpha*x for vectors of length
// n. axpy is purely bandwidth-bound: it reads x and y and writes y.
func AxpyTime(g *machine.GPUSpec, dt Dtype, n int) float64 {
	if n <= 0 {
		return g.KernelLaunchS
	}
	bytes := 3 * int64(n) * dt.Size()
	return g.KernelLaunchS + float64(bytes)/(g.MemBandwidthBps*memEff(g, bytes))
}

// GemvTime returns the execution time of y = alpha*A*x + beta*y for an
// MxN matrix: bandwidth-bound on the matrix traffic with a small compute
// component.
func GemvTime(g *machine.GPUSpec, dt Dtype, m, n int) float64 {
	if m <= 0 || n <= 0 {
		return g.KernelLaunchS
	}
	bytes := (int64(m)*int64(n) + 2*int64(m) + int64(n)) * dt.Size()
	flops := 2 * float64(m) * float64(n)
	tMemory := float64(bytes) / (g.MemBandwidthBps * memEff(g, bytes))
	tCompute := flops / (peak(g, dt) * 0.5)
	return g.KernelLaunchS + math.Max(tCompute, tMemory)
}

// PotrfTime returns the execution time of the in-place Cholesky
// factorization of an n x n tile (n³/3 flops over n² elements). The
// panel's sequential dependency chain keeps the kernel well below gemm
// efficiency at equal volume, which is why blocked factorizations push
// their flops into TRSM/SYRK/GEMM updates.
func PotrfTime(g *machine.GPUSpec, dt Dtype, n int) float64 {
	if n <= 0 {
		return g.KernelLaunchS
	}
	flops := float64(n) * float64(n) * float64(n) / 3
	bytes := int64(n) * int64(n) * dt.Size()
	tCompute := flops / (peak(g, dt) * 0.40 * gemmEff(g, dt, n, n, n))
	tMemory := float64(bytes) / (g.MemBandwidthBps * memEff(g, bytes))
	return g.KernelLaunchS + math.Max(tCompute, tMemory)
}

// GetrfTime returns the execution time of the in-place unpivoted LU
// factorization of an n x n tile (2n³/3 flops over n² elements).
func GetrfTime(g *machine.GPUSpec, dt Dtype, n int) float64 {
	if n <= 0 {
		return g.KernelLaunchS
	}
	flops := 2 * float64(n) * float64(n) * float64(n) / 3
	bytes := int64(n) * int64(n) * dt.Size()
	tCompute := flops / (peak(g, dt) * 0.45 * gemmEff(g, dt, n, n, n))
	tMemory := float64(bytes) / (g.MemBandwidthBps * memEff(g, bytes))
	return g.KernelLaunchS + math.Max(tCompute, tMemory)
}

// TrsmTime returns the execution time of a triangular tile solve with an
// m x n right-hand side: side 'L' solves op(A)X = B with A m x m (m²n
// flops), any other side solves Xop(A) = B with A n x n (mn² flops). The
// per-column back-substitution chain costs roughly half of the equivalent
// gemm's efficiency.
func TrsmTime(g *machine.GPUSpec, dt Dtype, side byte, m, n int) float64 {
	if m <= 0 || n <= 0 {
		return g.KernelLaunchS
	}
	var flops float64
	var bytes int64
	if side == 'L' {
		flops = float64(m) * float64(m) * float64(n)
		bytes = (int64(m)*int64(m) + 2*int64(m)*int64(n)) * dt.Size()
	} else {
		flops = float64(m) * float64(n) * float64(n)
		bytes = (int64(n)*int64(n) + 2*int64(m)*int64(n)) * dt.Size()
	}
	tCompute := flops / (peak(g, dt) * 0.50 * gemmEff(g, dt, m, n, min(m, n)))
	tMemory := float64(bytes) / (g.MemBandwidthBps * memEff(g, bytes))
	return g.KernelLaunchS + math.Max(tCompute, tMemory)
}

// SyrkTime returns the execution time of a symmetric rank-k tile update of
// an n x n output (n²k flops — the triangle halves the multiply count of
// the equivalent gemm, and cuBLAS syrk tracks gemm efficiency closely).
func SyrkTime(g *machine.GPUSpec, dt Dtype, n, k int) float64 {
	if n <= 0 || k <= 0 {
		return g.KernelLaunchS
	}
	flops := float64(n) * float64(n) * float64(k)
	bytes := (int64(n)*int64(k) + int64(n)*int64(n)) * dt.Size()
	tCompute := flops / (peak(g, dt) * gemmEff(g, dt, n, n, k))
	tMemory := float64(bytes) / (g.MemBandwidthBps * memEff(g, bytes))
	return g.KernelLaunchS + math.Max(tCompute, tMemory)
}
