//go:build amd64

package blas

// Native micro-kernel registration for amd64. init installs, in
// preference order within each policy:
//
//   - KernelExact: the 16x4 AVX-512 exact kernel
//     (gemm_avx512_exact_amd64.s) where ZMM state exists, then the 4x4
//     AVX kernel (gemm_amd64.s). Both are bitwise identical to the oracle,
//     so the choice changes speed, never bits.
//   - KernelFMA: the 16x4 AVX-512 fused kernel (gemm_avx512_amd64.s),
//     then the AVX2+FMA3 wide-tile kernels (gemm_fma_amd64.s).
//
// Pre-AVX CPUs, non-float element types and edge tiles run the portable
// Go micro-kernels.

// dgemmKernel4x4AVX is the exact float64 kernel: VMULPD + ordered
// VADDPD per k step, bitwise identical to the oracle.
//
//go:noescape
func dgemmKernel4x4AVX(kc int, a, b, c *float64, ldc int)

// dgemmKernel16x4AVX512Exact is the exact float64 kernel on the 512-bit
// datapath: the 16x4 ZMM register tile of dgemmKernel16x4AVX512 with each
// fused multiply-add split into VMULPD + ordered VADDPD, so it is bitwise
// identical to the oracle.
//
//go:noescape
func dgemmKernel16x4AVX512Exact(kc int, a, b, c *float64, ldc int)

// dgemmKernel8x4FMA is the fused float64 kernel: an 8x4 register tile
// accumulated with VFMADD231PD (one rounding per term).
//
//go:noescape
func dgemmKernel8x4FMA(kc int, a, b, c *float64, ldc int)

// sgemmKernel16x4FMA is the fused float32 kernel: a 16x4 register tile
// accumulated with VFMADD231PS.
//
//go:noescape
func sgemmKernel16x4FMA(kc int, a, b, c *float32, ldc int)

// dgemmKernel16x4AVX512 is the fused float64 kernel on the 512-bit
// datapath: a 16x4 register tile accumulated with EVEX VFMADD231PD.
//
//go:noescape
func dgemmKernel16x4AVX512(kc int, a, b, c *float64, ldc int)

func init() {
	// Registration order is preference order within a policy
	// (resolveFromEnv picks the first match): the AVX-512 kernels beat
	// the 256-bit ones wherever ZMM state exists, so they register first.
	if hasAVX512() {
		registerKernel64("avx512", KernelExact, 16, 4, dgemmKernel16x4AVX512Exact)
		registerKernel64("fma-avx512", KernelFMA, 16, 4, dgemmKernel16x4AVX512)
	}
	if hasAVX() {
		registerKernel64("avx", KernelExact, 4, 4, dgemmKernel4x4AVX)
	}
	if hasAVX2FMA() {
		registerKernel64("fma-avx2", KernelFMA, 8, 4, dgemmKernel8x4FMA)
		registerKernel32("fma-avx2", KernelFMA, 16, 4, sgemmKernel16x4FMA)
	}
}
