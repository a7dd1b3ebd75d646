package blas

// Micro-kernel selection.
//
// Every GEMM call runs one micro-kernel, and every kernel is bitwise
// identical to the GemmNaive oracle: one IEEE multiply and one ordered add
// per term, in increasing k, never a fused multiply-add. The choice of
// kernel therefore changes speed, never bits. Each C element's operation
// sequence does not depend on the register tile, so a kernel may use any
// tile: the portable and AVX kernels are 4x4, the AVX-512 one 16x4.
//
// float64 runs the native kernel the arch init installed (gemm_amd64.go),
// or the portable Go kernel where there is none; float32 and named float
// types always run the portable kernel. Results are bitwise identical
// across worker counts too: the blocking schedule is a pure function of
// (m, n, k, kernel), never of the partition (see gemm_blocked.go).

import "fmt"

// kernelSel is one micro-kernel configuration: the register tile geometry
// the packing layer must match, and the native float64 function (nil for
// the portable Go kernels).
type kernelSel struct {
	name   string // "generic", "avx" or "avx512"
	mr, nr int
	f64    func(kc int, a, b, c *float64, ldc int)
}

// generic is the portable configuration: the 4x4 Go micro-kernel that
// every platform and every element type other than float64 runs on.
var generic = kernelSel{name: "generic", mr: gemmMR, nr: gemmNR}

// kernel64 is the float64 micro-kernel: generic until an arch init
// installs a native one with setKernel64.
var kernel64 = generic

// setKernel64 installs the native float64 micro-kernel (called from arch
// init functions, before any GEMM can run).
func setKernel64(name string, mr, nr int, fn func(kc int, a, b, c *float64, ldc int)) {
	// The tile is bounded by what the shared packing and tail machinery
	// supports: maxMR/maxNR size the tail accumulator, and gemmMC/gemmNC
	// must stay multiples of the tile.
	if mr <= 0 || nr <= 0 || mr > maxMR || nr > maxNR || gemmMC%mr != 0 || gemmNC%nr != 0 {
		panic(fmt.Sprintf("blas: kernel %q tile %dx%d outside supported bounds (max %dx%d, must divide MC=%d/NC=%d)",
			name, mr, nr, maxMR, maxNR, gemmMC, gemmNC))
	}
	kernel64 = kernelSel{name: name, mr: mr, nr: nr, f64: fn}
}

// kernelFor returns the micro-kernel for element type F.
func kernelFor[F Float]() kernelSel {
	if _, ok := any((*F)(nil)).(*float64); ok {
		return kernel64
	}
	return generic
}

// SelectedKernel reports the name of the micro-kernel variant Gemm runs
// for element type F in this process: "avx512", "avx" or "generic".
func SelectedKernel[F Float]() string {
	return kernelFor[F]().name
}
