// AVX-512 exact micro-kernel of the blocked GEMM engine, installed
// (gemm_amd64.go) ahead of the 4x4 AVX kernel when ZMM state is available.
//
// A 16x4 register tile, two ZMM accumulators per C column. Each term is a
// VMULPD into a spare ZMM (Z20..Z27) and an ordered VADDPD into the
// accumulator, never a fused multiply-add: each C element receives
// round(a*b), then round(c + .), one term at a time in increasing k
// order — the oracle's exact operation sequence, so the kernel is bitwise
// identical to GemmNaive and to the 4x4 AVX kernel.

#include "textflag.h"

// EXACT_KSTEP runs one k step: loads 16 A values into A0/A1 and
// broadcasts 4 B values into B0..B3, then adds the 32 rounded products
// into the accumulators Z0..Z7 (two ZMM per C column).
#define EXACT_KSTEP(aoff, boff, A0, A1, B0, B1, B2, B3) \
	VMOVUPD aoff(SI), A0; \
	VMOVUPD (aoff+64)(SI), A1; \
	VBROADCASTSD boff(DI), B0; \
	VMULPD A0, B0, Z20; \
	VADDPD Z20, Z0, Z0; \
	VMULPD A1, B0, Z21; \
	VADDPD Z21, Z1, Z1; \
	VBROADCASTSD (boff+8)(DI), B1; \
	VMULPD A0, B1, Z22; \
	VADDPD Z22, Z2, Z2; \
	VMULPD A1, B1, Z23; \
	VADDPD Z23, Z3, Z3; \
	VBROADCASTSD (boff+16)(DI), B2; \
	VMULPD A0, B2, Z24; \
	VADDPD Z24, Z4, Z4; \
	VMULPD A1, B2, Z25; \
	VADDPD Z25, Z5, Z5; \
	VBROADCASTSD (boff+24)(DI), B3; \
	VMULPD A0, B3, Z26; \
	VADDPD Z26, Z6, Z6; \
	VMULPD A1, B3, Z27; \
	VADDPD Z27, Z7, Z7

// func dgemmKernel16x4AVX512Exact(kc int, a, b, c *float64, ldc int)
//
// a: packed A micro-panel, 16 doubles per k step (unit stride).
// b: packed B micro-panel, 4 doubles per k step, alpha folded in.
// c: 16x4 column-major block of C, leading dimension ldc (elements).
TEXT ·dgemmKernel16x4AVX512Exact(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R8
	SHLQ $3, R8              // ldc in bytes

	// Column pointers of the C block.
	MOVQ DX, R9              // &c[0, 0]
	LEAQ (DX)(R8*1), R10     // &c[0, 1]
	LEAQ (R10)(R8*1), R11    // &c[0, 2]
	LEAQ (R11)(R8*1), R12    // &c[0, 3]

	// Accumulators, loaded from C so every k-step add continues the
	// caller's running sums (register round-trips are exact).
	VMOVUPD (R9), Z0
	VMOVUPD 64(R9), Z1
	VMOVUPD (R10), Z2
	VMOVUPD 64(R10), Z3
	VMOVUPD (R11), Z4
	VMOVUPD 64(R11), Z5
	VMOVUPD (R12), Z6
	VMOVUPD 64(R12), Z7

	MOVQ CX, BX
	SHRQ $1, BX              // unrolled-by-2 iteration count
	ANDQ $1, CX              // remainder k step
	TESTQ BX, BX
	JZ   tail

loop2:
	EXACT_KSTEP(0, 0, Z8, Z9, Z10, Z11, Z12, Z13)
	EXACT_KSTEP(128, 32, Z14, Z15, Z16, Z17, Z18, Z19)
	ADDQ $256, SI
	ADDQ $64, DI
	DECQ BX
	JNZ  loop2

tail:
	TESTQ CX, CX
	JZ   done
	EXACT_KSTEP(0, 0, Z8, Z9, Z10, Z11, Z12, Z13)

done:
	VMOVUPD Z0, (R9)
	VMOVUPD Z1, 64(R9)
	VMOVUPD Z2, (R10)
	VMOVUPD Z3, 64(R10)
	VMOVUPD Z4, (R11)
	VMOVUPD Z5, 64(R11)
	VMOVUPD Z6, (R12)
	VMOVUPD Z7, 64(R12)
	VZEROUPPER
	RET
