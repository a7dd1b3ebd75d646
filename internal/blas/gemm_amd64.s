// AVX micro-kernel of the blocked GEMM engine (float64, 4x4 micro-tile).
//
// Arithmetic contract (see microkernel.go): per-lane IEEE-754 double
// multiply (VMULPD) followed by an ordered add (VADDPD) per k step —
// deliberately not a fused multiply-add, whose single rounding would
// break the bitwise equality of the engine with the GemmNaive oracle and
// with the portable Go micro-kernel used for tails and other element
// types.

#include "textflag.h"

// func dgemmKernel4x4AVX(kc int, a, b, c *float64, ldc int)
//
// a: packed A micro-panel, 4 doubles per k step (unit stride).
// b: packed B micro-panel, 4 doubles per k step, alpha folded in.
// c: 4x4 column-major block of C, leading dimension ldc (elements).
TEXT ·dgemmKernel4x4AVX(SB), NOSPLIT, $0-40
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

	// Accumulators: one YMM column each, loaded from C so every k-step add
	// continues the caller's running sums (bitwise identical to the
	// oracle's store-per-term loop: register round-trips are exact).
	VMOVUPD (R9), Y0
	VMOVUPD (R10), Y1
	VMOVUPD (R11), Y2
	VMOVUPD (R12), Y3

	MOVQ CX, BX
	SHRQ $2, BX              // unrolled-by-4 iteration count
	ANDQ $3, CX              // remainder k steps
	TESTQ BX, BX
	JZ   tail

loop4:
	// k step 0
	VMOVUPD (SI), Y4
	VBROADCASTSD (DI), Y5
	VMULPD Y4, Y5, Y5
	VADDPD Y5, Y0, Y0
	VBROADCASTSD 8(DI), Y6
	VMULPD Y4, Y6, Y6
	VADDPD Y6, Y1, Y1
	VBROADCASTSD 16(DI), Y7
	VMULPD Y4, Y7, Y7
	VADDPD Y7, Y2, Y2
	VBROADCASTSD 24(DI), Y8
	VMULPD Y4, Y8, Y8
	VADDPD Y8, Y3, Y3

	// k step 1
	VMOVUPD 32(SI), Y9
	VBROADCASTSD 32(DI), Y5
	VMULPD Y9, Y5, Y5
	VADDPD Y5, Y0, Y0
	VBROADCASTSD 40(DI), Y6
	VMULPD Y9, Y6, Y6
	VADDPD Y6, Y1, Y1
	VBROADCASTSD 48(DI), Y7
	VMULPD Y9, Y7, Y7
	VADDPD Y7, Y2, Y2
	VBROADCASTSD 56(DI), Y8
	VMULPD Y9, Y8, Y8
	VADDPD Y8, Y3, Y3

	// k step 2
	VMOVUPD 64(SI), Y4
	VBROADCASTSD 64(DI), Y5
	VMULPD Y4, Y5, Y5
	VADDPD Y5, Y0, Y0
	VBROADCASTSD 72(DI), Y6
	VMULPD Y4, Y6, Y6
	VADDPD Y6, Y1, Y1
	VBROADCASTSD 80(DI), Y7
	VMULPD Y4, Y7, Y7
	VADDPD Y7, Y2, Y2
	VBROADCASTSD 88(DI), Y8
	VMULPD Y4, Y8, Y8
	VADDPD Y8, Y3, Y3

	// k step 3
	VMOVUPD 96(SI), Y9
	VBROADCASTSD 96(DI), Y5
	VMULPD Y9, Y5, Y5
	VADDPD Y5, Y0, Y0
	VBROADCASTSD 104(DI), Y6
	VMULPD Y9, Y6, Y6
	VADDPD Y6, Y1, Y1
	VBROADCASTSD 112(DI), Y7
	VMULPD Y9, Y7, Y7
	VADDPD Y7, Y2, Y2
	VBROADCASTSD 120(DI), Y8
	VMULPD Y9, Y8, Y8
	VADDPD Y8, Y3, Y3

	ADDQ $128, SI
	ADDQ $128, DI
	DECQ BX
	JNZ  loop4

tail:
	TESTQ CX, CX
	JZ   done

tailloop:
	VMOVUPD (SI), Y4
	VBROADCASTSD (DI), Y5
	VMULPD Y4, Y5, Y5
	VADDPD Y5, Y0, Y0
	VBROADCASTSD 8(DI), Y6
	VMULPD Y4, Y6, Y6
	VADDPD Y6, Y1, Y1
	VBROADCASTSD 16(DI), Y7
	VMULPD Y4, Y7, Y7
	VADDPD Y7, Y2, Y2
	VBROADCASTSD 24(DI), Y8
	VMULPD Y4, Y8, Y8
	VADDPD Y8, Y3, Y3
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  tailloop

done:
	VMOVUPD Y0, (R9)
	VMOVUPD Y1, (R10)
	VMOVUPD Y2, (R11)
	VMOVUPD Y3, (R12)
	VZEROUPPER
	RET
