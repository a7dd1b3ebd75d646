package blas

// Micro-kernel registry with explicitly versioned numerics.
//
// Every GEMM call routes through one registered kernel variant, selected
// by (element type, KernelPolicy) and overridable process-wide with the
// COCOPELIA_BLAS_KERNEL environment variable. The registry exists so the
// engine can grow faster kernels without silently changing bits:
//
//   - KernelExact variants are bitwise identical to the GemmNaive oracle
//     (one IEEE multiply + one ordered add per term, no fused
//     multiply-add). They are the default, and everything that pins
//     byte-identical output — the campaign runs, the Float64bits
//     differential tests — runs on them. Each C element's operation
//     sequence does not depend on the register tile, so exact variants
//     may use any tile: the portable and AVX kernels are 4x4, the
//     AVX-512 one 16x4.
//   - KernelFMA variants contract each multiply-add pair into a single
//     rounding (VFMADD231 on amd64, FMLA on arm64) and may use a wider
//     register tile. They are opt-in, strictly faster, and validated by
//     ULP-bounded differential tests instead of bitwise ones.
//
// Whatever the variant, results remain bitwise identical across worker
// counts: the blocking schedule is a pure function of (m, n, k, kernel),
// never of the partition (see gemm_blocked.go).

import (
	"fmt"
	"sync"
)

// KernelPolicy selects the rounding-mode contract of the micro-kernel a
// GEMM call runs on.
type KernelPolicy uint8

const (
	// KernelExact selects the bitwise oracle numerics: one IEEE multiply
	// and one ordered add per term, bit-for-bit equal to GemmNaive. This
	// is the default policy everywhere.
	KernelExact KernelPolicy = iota
	// KernelFMA selects fused-multiply-add numerics: each multiply-add
	// pair rounds once, so results differ from the oracle by a k-scaled
	// ULP bound (but stay bitwise reproducible for a fixed kernel and
	// geometry, at any worker count). Falls back to the exact kernel when
	// the host has no fused variant.
	KernelFMA
)

// String returns the policy's env-override spelling.
func (p KernelPolicy) String() string {
	switch p {
	case KernelExact:
		return "exact"
	case KernelFMA:
		return "fma"
	}
	return fmt.Sprintf("KernelPolicy(%d)", uint8(p))
}

// kernelSel is one resolved micro-kernel configuration: the register tile
// geometry the packing layer must match, and at most one native function
// (nil means the portable Go kernels). Exactly one of f64/f32 is non-nil
// for a native variant; both are nil for "generic".
type kernelSel struct {
	name   string // e.g. "generic", "avx", "avx512", "fma-avx2", "neon"
	policy KernelPolicy
	mr, nr int
	f64    func(kc int, a, b, c *float64, ldc int)
	f32    func(kc int, a, b, c *float32, ldc int)
}

// registered64/registered32 hold the native kernels the arch init
// installed, in preference order within a policy (first match wins).
// The portable generic kernel is always available as the fallback and is
// not listed here.
var (
	registered64 []kernelSel
	registered32 []kernelSel
)

// registerKernel64 installs a native float64 micro-kernel (called from
// arch init functions, before any resolution can have happened).
func registerKernel64(name string, policy KernelPolicy, mr, nr int, fn func(kc int, a, b, c *float64, ldc int)) {
	checkTile(name, mr, nr)
	registered64 = append(registered64, kernelSel{name: name, policy: policy, mr: mr, nr: nr, f64: fn})
}

// registerKernel32 installs a native float32 micro-kernel.
func registerKernel32(name string, policy KernelPolicy, mr, nr int, fn func(kc int, a, b, c *float32, ldc int)) {
	checkTile(name, mr, nr)
	registered32 = append(registered32, kernelSel{name: name, policy: policy, mr: mr, nr: nr, f32: fn})
}

// checkTile bounds a kernel's register tile by what the shared packing
// and tail machinery supports (maxMR/maxNR size the tail accumulator and
// gemmMC/gemmNC must stay multiples of the tile).
func checkTile(name string, mr, nr int) {
	if mr <= 0 || nr <= 0 || mr > maxMR || nr > maxNR || gemmMC%mr != 0 || gemmNC%nr != 0 {
		panic(fmt.Sprintf("blas: kernel %q tile %dx%d outside supported bounds (max %dx%d, must divide MC=%d/NC=%d)",
			name, mr, nr, maxMR, maxNR, gemmMC, gemmNC))
	}
}

// genericSel is the portable exact configuration: the 4x4 Go micro-kernel
// that every platform and every exotic Float instantiation runs on.
func genericSel() kernelSel {
	return kernelSel{name: "generic", policy: KernelExact, mr: gemmMR, nr: gemmNR}
}

// Resolution state: computed once, on the first kernel lookup, from the
// registered kernels and the COCOPELIA_BLAS_KERNEL override (cpu.go).
// Slots are (dtype, policy) pairs.
const (
	slotF64Exact = iota
	slotF64FMA
	slotF32Exact
	slotF32FMA
	numKernelSlots
)

var (
	kernelOnce sync.Once
	kernelTab  [numKernelSlots]kernelSel
	kernelErr  error
)

// kernelForSlot returns the resolved kernel for a (dtype, policy) slot.
// After the one-time resolution this is an array load, so the dispatch
// path of every Gemm call stays allocation-free.
//
//cocolint:hotpath
func kernelForSlot(slot uint8) (kernelSel, error) {
	// One-time env-override resolution; steady-state calls take Once's
	// atomic fast path and an array load.
	kernelOnce.Do(resolveKernels)
	if kernelErr != nil {
		return kernelSel{}, kernelErr
	}
	return kernelTab[slot], nil
}

// kernelFor resolves the micro-kernel for element type F under policy.
// Exotic named float types always run the portable generic kernel.
func kernelFor[F Float](policy KernelPolicy) (kernelSel, error) {
	if policy > KernelFMA {
		return kernelSel{}, fmt.Errorf("blas: unknown kernel policy %d", uint8(policy))
	}
	slot := uint8(policy)
	switch any((*F)(nil)).(type) {
	case *float64:
	case *float32:
		slot += slotF32Exact
	default:
		return genericSel(), nil
	}
	return kernelForSlot(slot)
}

// SelectedKernel reports the micro-kernel variant name that policy
// resolves to for element type F in this process, after the
// COCOPELIA_BLAS_KERNEL override. It errors exactly when Gemm calls
// under the same policy would (unknown override value, or an override
// pinning a kernel this host does not have).
func SelectedKernel[F Float](policy KernelPolicy) (string, error) {
	sel, err := kernelFor[F](policy)
	if err != nil {
		return "", err
	}
	return sel.name, nil
}
