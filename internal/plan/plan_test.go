package plan

import (
	"testing"

	"cocopelia/internal/blas"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/model"
)

// The golden tests pin the exact op sequence — ids, kinds, dependency
// edges, slot assignments and byte volumes — of each planner on small
// shapes, via the deterministic Dump format. Any change to emission order
// is a change to the simulated event order and must show up here.

const goldenGemmHHH = `plan gemm dtype=f64 trans=nn m=4 n=2 k=4 T=2 alpha=1 beta=1 locs=HHH
slots 8
  s0 f64 elems=4
  s1 f64 elems=4
  s2 f64 elems=4
  s3 f64 elems=4
  s4 f64 elems=4
  s5 f64 elems=4
  s6 f64 elems=4
  s7 f64 elems=4
ops 22
  o0 alloc s0
  o1 fetch C[0,0 2x2] -> s0 bytes=32
  o2 alloc s1
  o3 fetch A[0,0 2x2] -> s1 bytes=32
  o4 alloc s2
  o5 fetch B[0,0 2x2] -> s2 bytes=32
  o6 gemm nn m=2 n=2 k=2 alpha=1 beta=1 A=s1(ld=2) B=s2(ld=2) C=s0(ld=2) deps=[o3 o5 o1]
  o7 alloc s3
  o8 fetch A[0,2 2x2] -> s3 bytes=32
  o9 alloc s4
  o10 fetch B[2,0 2x2] -> s4 bytes=32
  o11 gemm nn m=2 n=2 k=2 alpha=1 beta=1 A=s3(ld=2) B=s4(ld=2) C=s0(ld=2) deps=[o8 o10]
  o12 writeback s0 -> C[0,0 2x2] bytes=32 deps=[o11]
  o13 alloc s5
  o14 fetch C[2,0 2x2] -> s5 bytes=32
  o15 alloc s6
  o16 fetch A[2,0 2x2] -> s6 bytes=32
  o17 gemm nn m=2 n=2 k=2 alpha=1 beta=1 A=s6(ld=2) B=s2(ld=2) C=s5(ld=2) deps=[o16 o5 o14]
  o18 alloc s7
  o19 fetch A[2,2 2x2] -> s7 bytes=32
  o20 gemm nn m=2 n=2 k=2 alpha=1 beta=1 A=s7(ld=2) B=s4(ld=2) C=s5(ld=2) deps=[o19 o10]
  o21 writeback s5 -> C[2,0 2x2] bytes=32 deps=[o20]
volumes h2d=256 d2h=64 subkernels=4
`

const goldenGemmDHDBeta0 = `plan gemm dtype=f64 trans=nn m=4 n=2 k=2 T=2 alpha=2 beta=0 locs=DHD
slots 1
  s0 f64 elems=4
ops 4
  o0 alloc s0
  o1 fetch B[0,0 2x2] -> s0 bytes=32
  o2 gemm nn m=2 n=2 k=2 alpha=2 beta=0 A=A[0,0] B=s0(ld=2) C=C[0,0] deps=[o1]
  o3 gemm nn m=2 n=2 k=2 alpha=2 beta=0 A=A[2,0] B=s0(ld=2) C=C[2,0] deps=[o1]
volumes h2d=32 d2h=0 subkernels=2
`

const goldenGemmBlasx = `plan gemm dtype=f64 trans=tn m=2 n=2 k=2 T=2 alpha=1 beta=1 locs=HHH
slots 3
  s0 f64 elems=4
  s1 f64 elems=4
  s2 f64 elems=4
ops 9
  o0 alloc s0
  o1 fetch C[0,0 2x2] -> s0 bytes=32
  o2 alloc s1
  o3 fetch A[0,0 2x2] -> s1 bytes=32
  o4 alloc s2
  o5 fetch B[0,0 2x2] -> s2 bytes=32
  o6 dispatch dur=1e-05s deps=[o3 o5 o1]
  o7 gemm tn m=2 n=2 k=2 alpha=1 beta=1 A=s1(ld=2) B=s2(ld=2) C=s0(ld=2)
  o8 writeback s0 -> C[0,0 2x2] bytes=32 deps=[o7]
tail h2d=[] comp=[o8]
volumes h2d=96 d2h=32 subkernels=1
`

const goldenNoReuseHHH = `plan gemm-noreuse dtype=f64 trans=nn m=4 n=2 k=4 T=2 alpha=1 beta=1 locs=HHH
slots 6
  s0 f64 elems=4
  s1 f64 elems=4
  s2 f64 elems=4
  s3 f64 elems=4
  s4 f64 elems=4
  s5 f64 elems=4
ops 26
  o0 alloc s0
  o1 alloc s1
  o2 alloc s2
  o3 alloc s3
  o4 alloc s4
  o5 alloc s5
  o6 fetch A[0,0 2x2] -> s0 bytes=32
  o7 fetch B[0,0 2x2] -> s1 bytes=32
  o8 fetch C[0,0 2x2] -> s2 bytes=32
  o9 gemm nn m=2 n=2 k=2 alpha=1 beta=1 A=s0(ld=2) B=s1(ld=2) C=s2(ld=2) deps=[o8]
  o10 writeback s2 -> C[0,0 2x2] bytes=32 deps=[o9]
  o11 fetch A[2,0 2x2] -> s3 bytes=32
  o12 fetch B[0,0 2x2] -> s4 bytes=32
  o13 fetch C[2,0 2x2] -> s5 bytes=32
  o14 gemm nn m=2 n=2 k=2 alpha=1 beta=1 A=s3(ld=2) B=s4(ld=2) C=s5(ld=2) deps=[o13]
  o15 writeback s5 -> C[2,0 2x2] bytes=32 deps=[o14]
  o16 fetch A[0,2 2x2] -> s0 bytes=32 deps=[o9 o10]
  o17 fetch B[2,0 2x2] -> s1 bytes=32
  o18 fetch C[0,0 2x2] -> s2 bytes=32 deps=[o10]
  o19 gemm nn m=2 n=2 k=2 alpha=1 beta=1 A=s0(ld=2) B=s1(ld=2) C=s2(ld=2) deps=[o18]
  o20 writeback s2 -> C[0,0 2x2] bytes=32 deps=[o19]
  o21 fetch A[2,2 2x2] -> s3 bytes=32 deps=[o14 o15]
  o22 fetch B[2,0 2x2] -> s4 bytes=32
  o23 fetch C[2,0 2x2] -> s5 bytes=32 deps=[o15]
  o24 gemm nn m=2 n=2 k=2 alpha=1 beta=1 A=s3(ld=2) B=s4(ld=2) C=s5(ld=2) deps=[o23]
  o25 writeback s5 -> C[2,0 2x2] bytes=32 deps=[o24]
volumes h2d=384 d2h=128 subkernels=4
`

const goldenGemv = `plan gemv dtype=f64 trans=nn m=4 n=4 k=0 T=2 alpha=1 beta=1 locs=HHH
slots 8
  s0 f64 elems=2
  s1 f64 elems=2
  s2 f64 elems=4
  s3 f64 elems=2
  s4 f64 elems=4
  s5 f64 elems=2
  s6 f64 elems=4
  s7 f64 elems=4
ops 22
  o0 alloc s0
  o1 fetch y[0:+2] -> s0 bytes=16
  o2 alloc s1
  o3 fetch x[0:+2] -> s1 bytes=16
  o4 alloc s2
  o5 fetch A[0,0 2x2] -> s2 bytes=32
  o6 gemv m=2 n=2 alpha=1 beta=1 A=s2(ld=2) x=s1 y=s0 deps=[o5 o3 o1]
  o7 alloc s3
  o8 fetch x[2:+2] -> s3 bytes=16
  o9 alloc s4
  o10 fetch A[0,2 2x2] -> s4 bytes=32
  o11 gemv m=2 n=2 alpha=1 beta=1 A=s4(ld=2) x=s3 y=s0 deps=[o10 o8]
  o12 writeback s0 -> y[0:+2] bytes=16 deps=[o11]
  o13 alloc s5
  o14 fetch y[2:+2] -> s5 bytes=16
  o15 alloc s6
  o16 fetch A[2,0 2x2] -> s6 bytes=32
  o17 gemv m=2 n=2 alpha=1 beta=1 A=s6(ld=2) x=s1 y=s5 deps=[o16 o3 o14]
  o18 alloc s7
  o19 fetch A[2,2 2x2] -> s7 bytes=32
  o20 gemv m=2 n=2 alpha=1 beta=1 A=s7(ld=2) x=s3 y=s5 deps=[o19 o8]
  o21 writeback s5 -> y[2:+2] bytes=16 deps=[o20]
volumes h2d=192 d2h=32 subkernels=4
`

const goldenAxpy = `plan axpy dtype=f64 trans=nn m=0 n=5 k=0 T=2 alpha=1.1 beta=0 locs=HH
slots 6
  s0 f64 elems=2
  s1 f64 elems=2
  s2 f64 elems=2
  s3 f64 elems=2
  s4 f64 elems=1
  s5 f64 elems=1
ops 18
  o0 alloc s0
  o1 fetch x[0:+2] -> s0 bytes=16
  o2 alloc s1
  o3 fetch y[0:+2] -> s1 bytes=16
  o4 axpy n=2 alpha=1.1 x=s0 y=s1 deps=[o1 o3]
  o5 writeback s1 -> y[0:+2] bytes=16 deps=[o4]
  o6 alloc s2
  o7 fetch x[2:+2] -> s2 bytes=16
  o8 alloc s3
  o9 fetch y[2:+2] -> s3 bytes=16
  o10 axpy n=2 alpha=1.1 x=s2 y=s3 deps=[o7 o9]
  o11 writeback s3 -> y[2:+2] bytes=16 deps=[o10]
  o12 alloc s4
  o13 fetch x[4:+1] -> s4 bytes=8
  o14 alloc s5
  o15 fetch y[4:+1] -> s5 bytes=8
  o16 axpy n=1 alpha=1.1 x=s4 y=s5 deps=[o13 o15]
  o17 writeback s5 -> y[4:+1] bytes=8 deps=[o16]
volumes h2d=80 d2h=40 subkernels=3
`

// goldenCholesky pins the task-graph schedule of a 3x3-tile right-
// looking Cholesky: POTRF/TRSM/SYRK/GEMM tile kernels with cross-kernel
// dependency edges, factored tiles forwarding device-side (no
// write-back/refetch between producer and consumer kernels).
const goldenCholesky = `plan cholesky dtype=f64 trans=nn m=6 n=6 k=0 T=2 alpha=1 beta=0 locs=H
slots 6
  s0 f64 elems=4
  s1 f64 elems=4
  s2 f64 elems=4
  s3 f64 elems=4
  s4 f64 elems=4
  s5 f64 elems=4
ops 28
  o0 alloc s0
  o1 fetch A[0,0 2x2] -> s0 bytes=32
  o2 potrf uplo=L n=2 A=s0(ld=2) deps=[o1]
  o3 writeback s0 -> A[0,0 2x2] bytes=32 deps=[o2]
  o4 alloc s1
  o5 fetch A[2,0 2x2] -> s1 bytes=32
  o6 trsm side=R uplo=L trans=t diag=N m=2 n=2 alpha=1 A=s0(ld=2) B=s1(ld=2) deps=[o2 o5]
  o7 writeback s1 -> A[2,0 2x2] bytes=32 deps=[o6]
  o8 alloc s2
  o9 fetch A[4,0 2x2] -> s2 bytes=32
  o10 trsm side=R uplo=L trans=t diag=N m=2 n=2 alpha=1 A=s0(ld=2) B=s2(ld=2) deps=[o2 o9]
  o11 writeback s2 -> A[4,0 2x2] bytes=32 deps=[o10]
  o12 alloc s3
  o13 fetch A[2,2 2x2] -> s3 bytes=32
  o14 syrk uplo=L trans=n n=2 k=2 alpha=-1 beta=1 A=s1(ld=2) C=s3(ld=2) deps=[o6 o13]
  o15 alloc s4
  o16 fetch A[4,2 2x2] -> s4 bytes=32
  o17 gemm nt m=2 n=2 k=2 alpha=-1 beta=1 A=s2(ld=2) B=s1(ld=2) C=s4(ld=2) deps=[o10 o6 o16]
  o18 alloc s5
  o19 fetch A[4,4 2x2] -> s5 bytes=32
  o20 syrk uplo=L trans=n n=2 k=2 alpha=-1 beta=1 A=s2(ld=2) C=s5(ld=2) deps=[o10 o19]
  o21 potrf uplo=L n=2 A=s3(ld=2) deps=[o14]
  o22 writeback s3 -> A[2,2 2x2] bytes=32 deps=[o21]
  o23 trsm side=R uplo=L trans=t diag=N m=2 n=2 alpha=1 A=s3(ld=2) B=s4(ld=2) deps=[o21 o17]
  o24 writeback s4 -> A[4,2 2x2] bytes=32 deps=[o23]
  o25 syrk uplo=L trans=n n=2 k=2 alpha=-1 beta=1 A=s4(ld=2) C=s5(ld=2) deps=[o23 o20]
  o26 potrf uplo=L n=2 A=s5(ld=2) deps=[o25]
  o27 writeback s5 -> A[4,4 2x2] bytes=32 deps=[o26]
volumes h2d=192 d2h=192 subkernels=10
`

// goldenLU pins the 3x3-tile right-looking unpivoted LU task graph:
// GETRF diagonals, upper/non-unit column-panel solves, lower/unit
// row-panel solves and the trailing GEMM updates.
const goldenLU = `plan lu dtype=f64 trans=nn m=6 n=6 k=0 T=2 alpha=1 beta=0 locs=H
slots 9
  s0 f64 elems=4
  s1 f64 elems=4
  s2 f64 elems=4
  s3 f64 elems=4
  s4 f64 elems=4
  s5 f64 elems=4
  s6 f64 elems=4
  s7 f64 elems=4
  s8 f64 elems=4
ops 41
  o0 alloc s0
  o1 fetch A[0,0 2x2] -> s0 bytes=32
  o2 getrf n=2 A=s0(ld=2) deps=[o1]
  o3 writeback s0 -> A[0,0 2x2] bytes=32 deps=[o2]
  o4 alloc s1
  o5 fetch A[2,0 2x2] -> s1 bytes=32
  o6 trsm side=R uplo=U trans=n diag=N m=2 n=2 alpha=1 A=s0(ld=2) B=s1(ld=2) deps=[o2 o5]
  o7 writeback s1 -> A[2,0 2x2] bytes=32 deps=[o6]
  o8 alloc s2
  o9 fetch A[4,0 2x2] -> s2 bytes=32
  o10 trsm side=R uplo=U trans=n diag=N m=2 n=2 alpha=1 A=s0(ld=2) B=s2(ld=2) deps=[o2 o9]
  o11 writeback s2 -> A[4,0 2x2] bytes=32 deps=[o10]
  o12 alloc s3
  o13 fetch A[0,2 2x2] -> s3 bytes=32
  o14 trsm side=L uplo=L trans=n diag=U m=2 n=2 alpha=1 A=s0(ld=2) B=s3(ld=2) deps=[o2 o13]
  o15 writeback s3 -> A[0,2 2x2] bytes=32 deps=[o14]
  o16 alloc s4
  o17 fetch A[0,4 2x2] -> s4 bytes=32
  o18 trsm side=L uplo=L trans=n diag=U m=2 n=2 alpha=1 A=s0(ld=2) B=s4(ld=2) deps=[o2 o17]
  o19 writeback s4 -> A[0,4 2x2] bytes=32 deps=[o18]
  o20 alloc s5
  o21 fetch A[2,2 2x2] -> s5 bytes=32
  o22 gemm nn m=2 n=2 k=2 alpha=-1 beta=1 A=s1(ld=2) B=s3(ld=2) C=s5(ld=2) deps=[o6 o14 o21]
  o23 alloc s6
  o24 fetch A[4,2 2x2] -> s6 bytes=32
  o25 gemm nn m=2 n=2 k=2 alpha=-1 beta=1 A=s2(ld=2) B=s3(ld=2) C=s6(ld=2) deps=[o10 o14 o24]
  o26 alloc s7
  o27 fetch A[2,4 2x2] -> s7 bytes=32
  o28 gemm nn m=2 n=2 k=2 alpha=-1 beta=1 A=s1(ld=2) B=s4(ld=2) C=s7(ld=2) deps=[o6 o18 o27]
  o29 alloc s8
  o30 fetch A[4,4 2x2] -> s8 bytes=32
  o31 gemm nn m=2 n=2 k=2 alpha=-1 beta=1 A=s2(ld=2) B=s4(ld=2) C=s8(ld=2) deps=[o10 o18 o30]
  o32 getrf n=2 A=s5(ld=2) deps=[o22]
  o33 writeback s5 -> A[2,2 2x2] bytes=32 deps=[o32]
  o34 trsm side=R uplo=U trans=n diag=N m=2 n=2 alpha=1 A=s5(ld=2) B=s6(ld=2) deps=[o32 o25]
  o35 writeback s6 -> A[4,2 2x2] bytes=32 deps=[o34]
  o36 trsm side=L uplo=L trans=n diag=U m=2 n=2 alpha=1 A=s5(ld=2) B=s7(ld=2) deps=[o32 o28]
  o37 writeback s7 -> A[2,4 2x2] bytes=32 deps=[o36]
  o38 gemm nn m=2 n=2 k=2 alpha=-1 beta=1 A=s6(ld=2) B=s7(ld=2) C=s8(ld=2) deps=[o34 o36 o31]
  o39 getrf n=2 A=s8(ld=2) deps=[o38]
  o40 writeback s8 -> A[4,4 2x2] bytes=32 deps=[o39]
volumes h2d=288 d2h=288 subkernels=14
`

// goldenTrsm pins the 2x2-tile left/lower/no-trans triangular solve:
// the first GEMM of each tile carries the alpha scale through BetaPlan
// (header beta equals alpha), row-block-0 TRSMs scale by AlphaPlan, and
// solved X tiles forward straight into the GEMMs below them.
const goldenTrsm = `plan trsm dtype=f64 trans=nn m=4 n=4 k=0 T=2 alpha=1 beta=1 locs=HH
slots 7
  s0 f64 elems=4
  s1 f64 elems=4
  s2 f64 elems=4
  s3 f64 elems=4
  s4 f64 elems=4
  s5 f64 elems=4
  s6 f64 elems=4
ops 24
  o0 alloc s0
  o1 fetch B[0,0 2x2] -> s0 bytes=32
  o2 alloc s1
  o3 fetch A[0,0 2x2] -> s1 bytes=32
  o4 trsm side=L uplo=L trans=n diag=N m=2 n=2 alpha=1 A=s1(ld=2) B=s0(ld=2) deps=[o3 o1]
  o5 writeback s0 -> B[0,0 2x2] bytes=32 deps=[o4]
  o6 alloc s2
  o7 fetch B[2,0 2x2] -> s2 bytes=32
  o8 alloc s3
  o9 fetch A[2,0 2x2] -> s3 bytes=32
  o10 gemm nn m=2 n=2 k=2 alpha=-1 beta=1 A=s3(ld=2) B=s0(ld=2) C=s2(ld=2) deps=[o9 o4 o7]
  o11 alloc s4
  o12 fetch A[2,2 2x2] -> s4 bytes=32
  o13 trsm side=L uplo=L trans=n diag=N m=2 n=2 alpha=1 A=s4(ld=2) B=s2(ld=2) deps=[o12 o10]
  o14 writeback s2 -> B[2,0 2x2] bytes=32 deps=[o13]
  o15 alloc s5
  o16 fetch B[0,2 2x2] -> s5 bytes=32
  o17 trsm side=L uplo=L trans=n diag=N m=2 n=2 alpha=1 A=s1(ld=2) B=s5(ld=2) deps=[o3 o16]
  o18 writeback s5 -> B[0,2 2x2] bytes=32 deps=[o17]
  o19 alloc s6
  o20 fetch B[2,2 2x2] -> s6 bytes=32
  o21 gemm nn m=2 n=2 k=2 alpha=-1 beta=1 A=s3(ld=2) B=s5(ld=2) C=s6(ld=2) deps=[o9 o17 o20]
  o22 trsm side=L uplo=L trans=n diag=N m=2 n=2 alpha=1 A=s4(ld=2) B=s6(ld=2) deps=[o12 o21]
  o23 writeback s6 -> B[2,2 2x2] bytes=32 deps=[o22]
volumes h2d=224 d2h=128 subkernels=6
`

// goldenXtRagged pins the cuBLASXt schedule: six output tiles, ragged in m
// and n, dealt round-robin to the four worker streams (tiles 4 and 5 wrap
// to workers 0 and 1), each worker fetching its inputs again into its own
// three slots, with no dependency edges.
const goldenXtRagged = `plan gemm-cublasxt dtype=f64 trans=nn m=3 n=5 k=2 T=2 alpha=1 beta=1 locs=HHH
slots 12
  s0 f64 elems=4
  s1 f64 elems=4
  s2 f64 elems=4
  s3 f64 elems=4
  s4 f64 elems=4
  s5 f64 elems=4
  s6 f64 elems=4
  s7 f64 elems=4
  s8 f64 elems=4
  s9 f64 elems=4
  s10 f64 elems=4
  s11 f64 elems=4
ops 42
  o0 alloc s0
  o1 alloc s1
  o2 alloc s2
  o3 alloc s3
  o4 alloc s4
  o5 alloc s5
  o6 alloc s6
  o7 alloc s7
  o8 alloc s8
  o9 alloc s9
  o10 alloc s10
  o11 alloc s11
  o12 fetch C[0,0 2x2] -> s2 bytes=32 stream=0
  o13 fetch A[0,0 2x2] -> s0 bytes=32 stream=0
  o14 fetch B[0,0 2x2] -> s1 bytes=32 stream=0
  o15 gemm nn m=2 n=2 k=2 alpha=1 beta=1 A=s0(ld=2) B=s1(ld=2) C=s2(ld=2) stream=0
  o16 writeback s2 -> C[0,0 2x2] bytes=32 stream=0
  o17 fetch C[2,0 1x2] -> s5 bytes=16 stream=1
  o18 fetch A[2,0 1x2] -> s3 bytes=16 stream=1
  o19 fetch B[0,0 2x2] -> s4 bytes=32 stream=1
  o20 gemm nn m=1 n=2 k=2 alpha=1 beta=1 A=s3(ld=1) B=s4(ld=2) C=s5(ld=1) stream=1
  o21 writeback s5 -> C[2,0 1x2] bytes=16 stream=1
  o22 fetch C[0,2 2x2] -> s8 bytes=32 stream=2
  o23 fetch A[0,0 2x2] -> s6 bytes=32 stream=2
  o24 fetch B[0,2 2x2] -> s7 bytes=32 stream=2
  o25 gemm nn m=2 n=2 k=2 alpha=1 beta=1 A=s6(ld=2) B=s7(ld=2) C=s8(ld=2) stream=2
  o26 writeback s8 -> C[0,2 2x2] bytes=32 stream=2
  o27 fetch C[2,2 1x2] -> s11 bytes=16 stream=3
  o28 fetch A[2,0 1x2] -> s9 bytes=16 stream=3
  o29 fetch B[0,2 2x2] -> s10 bytes=32 stream=3
  o30 gemm nn m=1 n=2 k=2 alpha=1 beta=1 A=s9(ld=1) B=s10(ld=2) C=s11(ld=1) stream=3
  o31 writeback s11 -> C[2,2 1x2] bytes=16 stream=3
  o32 fetch C[0,4 2x1] -> s2 bytes=16 stream=0
  o33 fetch A[0,0 2x2] -> s0 bytes=32 stream=0
  o34 fetch B[0,4 2x1] -> s1 bytes=16 stream=0
  o35 gemm nn m=2 n=1 k=2 alpha=1 beta=1 A=s0(ld=2) B=s1(ld=2) C=s2(ld=2) stream=0
  o36 writeback s2 -> C[0,4 2x1] bytes=16 stream=0
  o37 fetch C[2,4 1x1] -> s5 bytes=8 stream=1
  o38 fetch A[2,0 1x2] -> s3 bytes=16 stream=1
  o39 fetch B[0,4 2x1] -> s4 bytes=16 stream=1
  o40 gemm nn m=1 n=1 k=2 alpha=1 beta=1 A=s3(ld=1) B=s4(ld=2) C=s5(ld=1) stream=1
  o41 writeback s5 -> C[2,4 1x1] bytes=8 stream=1
volumes h2d=424 d2h=120 subkernels=6
`

// goldenXtDevA pins a cuBLASXt plan with A on the device: A is read in
// place, and each worker stages only B and C.
const goldenXtDevA = `plan gemm-cublasxt dtype=f64 trans=nn m=4 n=2 k=4 T=2 alpha=1 beta=1 locs=DHH
slots 8
  s0 f64 elems=4
  s1 f64 elems=4
  s2 f64 elems=4
  s3 f64 elems=4
  s4 f64 elems=4
  s5 f64 elems=4
  s6 f64 elems=4
  s7 f64 elems=4
ops 20
  o0 alloc s0
  o1 alloc s1
  o2 alloc s2
  o3 alloc s3
  o4 alloc s4
  o5 alloc s5
  o6 alloc s6
  o7 alloc s7
  o8 fetch C[0,0 2x2] -> s1 bytes=32 stream=0
  o9 fetch B[0,0 2x2] -> s0 bytes=32 stream=0
  o10 gemm nn m=2 n=2 k=2 alpha=1 beta=1 A=A[0,0] B=s0(ld=2) C=s1(ld=2) stream=0
  o11 fetch B[2,0 2x2] -> s0 bytes=32 stream=0
  o12 gemm nn m=2 n=2 k=2 alpha=1 beta=1 A=A[0,2] B=s0(ld=2) C=s1(ld=2) stream=0
  o13 writeback s1 -> C[0,0 2x2] bytes=32 stream=0
  o14 fetch C[2,0 2x2] -> s3 bytes=32 stream=1
  o15 fetch B[0,0 2x2] -> s2 bytes=32 stream=1
  o16 gemm nn m=2 n=2 k=2 alpha=1 beta=1 A=A[2,0] B=s2(ld=2) C=s3(ld=2) stream=1
  o17 fetch B[2,0 2x2] -> s2 bytes=32 stream=1
  o18 gemm nn m=2 n=2 k=2 alpha=1 beta=1 A=A[2,2] B=s2(ld=2) C=s3(ld=2) stream=1
  o19 writeback s3 -> C[2,0 2x2] bytes=32 stream=1
volumes h2d=192 d2h=64 subkernels=4
`

// goldenXtTight pins a cuBLASXt plan whose free device memory (250 bytes)
// stages only two workers.
const goldenXtTight = `plan gemm-cublasxt dtype=f64 trans=nn m=4 n=4 k=2 T=2 alpha=1 beta=1 locs=HHH
slots 6
  s0 f64 elems=4
  s1 f64 elems=4
  s2 f64 elems=4
  s3 f64 elems=4
  s4 f64 elems=4
  s5 f64 elems=4
ops 26
  o0 alloc s0
  o1 alloc s1
  o2 alloc s2
  o3 alloc s3
  o4 alloc s4
  o5 alloc s5
  o6 fetch C[0,0 2x2] -> s2 bytes=32 stream=0
  o7 fetch A[0,0 2x2] -> s0 bytes=32 stream=0
  o8 fetch B[0,0 2x2] -> s1 bytes=32 stream=0
  o9 gemm nn m=2 n=2 k=2 alpha=1 beta=1 A=s0(ld=2) B=s1(ld=2) C=s2(ld=2) stream=0
  o10 writeback s2 -> C[0,0 2x2] bytes=32 stream=0
  o11 fetch C[2,0 2x2] -> s5 bytes=32 stream=1
  o12 fetch A[2,0 2x2] -> s3 bytes=32 stream=1
  o13 fetch B[0,0 2x2] -> s4 bytes=32 stream=1
  o14 gemm nn m=2 n=2 k=2 alpha=1 beta=1 A=s3(ld=2) B=s4(ld=2) C=s5(ld=2) stream=1
  o15 writeback s5 -> C[2,0 2x2] bytes=32 stream=1
  o16 fetch C[0,2 2x2] -> s2 bytes=32 stream=0
  o17 fetch A[0,0 2x2] -> s0 bytes=32 stream=0
  o18 fetch B[0,2 2x2] -> s1 bytes=32 stream=0
  o19 gemm nn m=2 n=2 k=2 alpha=1 beta=1 A=s0(ld=2) B=s1(ld=2) C=s2(ld=2) stream=0
  o20 writeback s2 -> C[0,2 2x2] bytes=32 stream=0
  o21 fetch C[2,2 2x2] -> s5 bytes=32 stream=1
  o22 fetch A[2,0 2x2] -> s3 bytes=32 stream=1
  o23 fetch B[0,2 2x2] -> s4 bytes=32 stream=1
  o24 gemm nn m=2 n=2 k=2 alpha=1 beta=1 A=s3(ld=2) B=s4(ld=2) C=s5(ld=2) stream=1
  o25 writeback s5 -> C[2,2 2x2] bytes=32 stream=1
volumes h2d=384 d2h=128 subkernels=4
`

// goldenUnifiedHH pins the unified-memory daxpy: whole-vector mirrors,
// chunk prefetches each kernel waits on, and y's migration back queued
// behind the last kernel.
const goldenUnifiedHH = `plan axpy-unified dtype=f64 trans=nn m=0 n=5 k=0 T=2 alpha=1.1 beta=0 locs=HH
slots 2
  s0 f64 elems=5
  s1 f64 elems=5
ops 14
  o0 alloc s0
  o1 alloc s1
  o2 fetch x[0:+2] -> s0 bytes=16
  o3 fetch y[0:+2] -> s1 bytes=16
  o4 axpy n=2 alpha=1.1 x=s0 y=s1 deps=[o3]
  o5 fetch x[2:+2] -> s0+2 bytes=16
  o6 fetch y[2:+2] -> s1+2 bytes=16
  o7 axpy n=2 alpha=1.1 x=s0+2 y=s1+2 deps=[o6]
  o8 fetch x[4:+1] -> s0+4 bytes=8
  o9 fetch y[4:+1] -> s1+4 bytes=8
  o10 axpy n=1 alpha=1.1 x=s0+4 y=s1+4 deps=[o9]
  o11 writeback s1 -> y[0:+2] bytes=16 deps=[o10]
  o12 writeback s1+2 -> y[2:+2] bytes=16
  o13 writeback s1+4 -> y[4:+1] bytes=8
volumes h2d=80 d2h=40 subkernels=3
`

// goldenUnifiedDH pins the unified-memory daxpy with x on the device: x is
// read in place and only y migrates.
const goldenUnifiedDH = `plan axpy-unified dtype=f64 trans=nn m=0 n=5 k=0 T=2 alpha=1.1 beta=0 locs=DH
slots 1
  s0 f64 elems=5
ops 10
  o0 alloc s0
  o1 fetch y[0:+2] -> s0 bytes=16
  o2 axpy n=2 alpha=1.1 x=x[0,0] y=s0 deps=[o1]
  o3 fetch y[2:+2] -> s0+2 bytes=16
  o4 axpy n=2 alpha=1.1 x=x[2,0] y=s0+2 deps=[o3]
  o5 fetch y[4:+1] -> s0+4 bytes=8
  o6 axpy n=1 alpha=1.1 x=x[4,0] y=s0+4 deps=[o5]
  o7 writeback s0 -> y[0:+2] bytes=16 deps=[o6]
  o8 writeback s0+2 -> y[2:+2] bytes=16
  o9 writeback s0+4 -> y[4:+1] bytes=8
volumes h2d=40 d2h=40 subkernels=3
`

// goldenCase is one golden plan and its pinned dump.
type goldenCase struct {
	name string
	p    *Plan
	want string
}

// goldenCases builds the golden plans.
func goldenCases() []goldenCase {
	H, D := model.OnHost, model.OnDevice
	return []goldenCase{
		{"gemm-hhh", BuildGemm(GemmSpec{Dtype: kernelmodel.F64,
			TransA: blas.NoTrans, TransB: blas.NoTrans,
			M: 4, N: 2, K: 4, Alpha: 1, Beta: 1,
			LocA: H, LocB: H, LocC: H, T: 2}), goldenGemmHHH},
		{"gemm-dhd-beta0", BuildGemm(GemmSpec{Dtype: kernelmodel.F64,
			TransA: blas.NoTrans, TransB: blas.NoTrans,
			M: 4, N: 2, K: 2, Alpha: 2, Beta: 0,
			LocA: D, LocB: H, LocC: D, T: 2}), goldenGemmDHDBeta0},
		{"gemm-blasx", BuildGemm(GemmSpec{Dtype: kernelmodel.F64,
			TransA: blas.Trans, TransB: blas.NoTrans,
			M: 2, N: 2, K: 2, Alpha: 1, Beta: 1,
			LocA: H, LocB: H, LocC: H, T: 2,
			DispatchOverheadS: 1e-5, BlockingWriteback: true}), goldenGemmBlasx},
		{"noreuse-hhh", BuildGemmNoReuse(GemmSpec{Dtype: kernelmodel.F64,
			TransA: blas.NoTrans, TransB: blas.NoTrans,
			M: 4, N: 2, K: 4, Alpha: 1, Beta: 1,
			LocA: H, LocB: H, LocC: H, T: 2}, 300), goldenNoReuseHHH},
		{"gemv", BuildGemv(GemvSpec{M: 4, N: 4, Alpha: 1, Beta: 1,
			LocA: H, LocX: H, LocY: H, T: 2}), goldenGemv},
		{"axpy", BuildAxpy(AxpySpec{N: 5, Alpha: 1.1, LocX: H, LocY: H, T: 2}), goldenAxpy},
		{"cholesky", BuildCholesky(CholeskySpec{Dtype: kernelmodel.F64,
			N: 6, LocA: H, T: 2}), goldenCholesky},
		{"lu", BuildLU(LUSpec{Dtype: kernelmodel.F64,
			N: 6, LocA: H, T: 2}), goldenLU},
		{"trsm", BuildTrsm(TrsmSpec{Dtype: kernelmodel.F64, Diag: blas.NonUnit,
			M: 4, N: 4, Alpha: 1, LocA: H, LocB: H, T: 2}), goldenTrsm},
		{"cublasxt-ragged", BuildGemmXt(GemmSpec{Dtype: kernelmodel.F64,
			TransA: blas.NoTrans, TransB: blas.NoTrans,
			M: 3, N: 5, K: 2, Alpha: 1, Beta: 1,
			LocA: H, LocB: H, LocC: H, T: 2}, 1<<30), goldenXtRagged},
		{"cublasxt-devA", BuildGemmXt(GemmSpec{Dtype: kernelmodel.F64,
			TransA: blas.NoTrans, TransB: blas.NoTrans,
			M: 4, N: 2, K: 4, Alpha: 1, Beta: 1,
			LocA: D, LocB: H, LocC: H, T: 2}, 1<<30), goldenXtDevA},
		{"cublasxt-tight", BuildGemmXt(GemmSpec{Dtype: kernelmodel.F64,
			TransA: blas.NoTrans, TransB: blas.NoTrans,
			M: 4, N: 4, K: 2, Alpha: 1, Beta: 1,
			LocA: H, LocB: H, LocC: H, T: 2}, 250), goldenXtTight},
		{"unified-hh", BuildAxpyUnified(AxpySpec{N: 5, Alpha: 1.1, LocX: H, LocY: H, T: 2}), goldenUnifiedHH},
		{"unified-dh", BuildAxpyUnified(AxpySpec{N: 5, Alpha: 1.1, LocX: D, LocY: H, T: 2}), goldenUnifiedDH},
	}
}

func TestGoldenPlans(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.Dump(); got != tc.want {
				t.Errorf("plan dump diverged from golden.\ngot:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}

// planBattery builds a diverse set of plans for the structural-invariant
// and volume tests: ragged shapes, transposes, beta = 0 and every
// location extreme.
func planBattery() map[string]*Plan {
	H, D := model.OnHost, model.OnDevice
	gemm := func(ta, tb byte, m, n, k int, beta float64, la, lb, lc model.Loc, t int) GemmSpec {
		return GemmSpec{Dtype: kernelmodel.F64, TransA: ta, TransB: tb,
			M: m, N: n, K: k, Alpha: 1.5, Beta: beta, LocA: la, LocB: lb, LocC: lc, T: t}
	}
	nn := blas.NoTrans
	tt := blas.Trans
	return map[string]*Plan{
		"gemm-ragged":   BuildGemm(gemm(nn, nn, 130, 70, 95, 0.5, H, H, H, 64)),
		"gemm-trans":    BuildGemm(gemm(tt, tt, 90, 110, 70, 1, H, H, H, 64)),
		"gemm-beta0":    BuildGemm(gemm(nn, nn, 128, 64, 64, 0, H, H, H, 64)),
		"gemm-device":   BuildGemm(gemm(nn, nn, 128, 128, 128, 1, D, D, D, 64)),
		"gemm-mixed":    BuildGemm(gemm(nn, tt, 100, 60, 81, 1, D, H, H, 32)),
		"noreuse":       BuildGemmNoReuse(gemm(nn, nn, 130, 70, 95, 0.5, H, H, H, 64), 1<<30),
		"noreuse-beta0": BuildGemmNoReuse(gemm(nn, nn, 128, 64, 64, 0, H, H, H, 64), 1<<30),
		"noreuse-tight": BuildGemmNoReuse(gemm(nn, nn, 256, 256, 256, 1, H, H, H, 128), 500000),
		"gemv":          BuildGemv(GemvSpec{M: 190, N: 140, Alpha: 1, Beta: 0.25, LocA: H, LocX: H, LocY: H, T: 64}),
		"gemv-dev":      BuildGemv(GemvSpec{M: 150, N: 130, Alpha: 1, Beta: 0, LocA: D, LocX: D, LocY: H, T: 64}),
		"axpy":          BuildAxpy(AxpySpec{N: 1000, Alpha: 1.1, LocX: H, LocY: H, T: 384}),
		"axpy-dev":      BuildAxpy(AxpySpec{N: 777, Alpha: 0.75, LocX: D, LocY: D, T: 256}),
		"cholesky":      BuildCholesky(CholeskySpec{Dtype: kernelmodel.F64, N: 130, LocA: H, T: 64}),
		"cholesky-dev":  BuildCholesky(CholeskySpec{Dtype: kernelmodel.F64, N: 128, LocA: D, T: 64}),
		"lu":            BuildLU(LUSpec{Dtype: kernelmodel.F64, N: 130, LocA: H, T: 64}),
		"trsm":          BuildTrsm(TrsmSpec{Dtype: kernelmodel.F64, Diag: blas.NonUnit, M: 130, N: 70, Alpha: 0.5, LocA: H, LocB: H, T: 64}),
		"trsm-unit":     BuildTrsm(TrsmSpec{Dtype: kernelmodel.F64, Diag: blas.Unit, M: 96, N: 64, Alpha: 1, LocA: D, LocB: H, T: 32}),
		"cublasxt":      BuildGemmXt(gemm(nn, nn, 130, 70, 95, 0.5, H, H, H, 64), 1<<30),
		"cublasxt-dev":  BuildGemmXt(gemm(nn, nn, 128, 64, 64, 0, D, H, D, 32), 1<<30),
		"unified":       BuildAxpyUnified(AxpySpec{N: 1000, Alpha: 1.1, LocX: H, LocY: H, T: 384}),
		"unified-dev":   BuildAxpyUnified(AxpySpec{N: 777, Alpha: 0.75, LocX: D, LocY: H, T: 256}),
	}
}

// TestPlanDepInvariants checks the structural guarantees replay relies on:
// every dependency points at an earlier, event-producing op, and tail
// waits reference real ops.
func TestPlanDepInvariants(t *testing.T) {
	for name, p := range planBattery() {
		t.Run(name, func(t *testing.T) {
			for i := range p.Ops {
				for _, d := range p.Deps(i) {
					if d < 0 || int(d) >= i {
						t.Fatalf("op %d has non-causal dep %d", i, d)
					}
					if p.Ops[d].Kind == OpAlloc {
						t.Fatalf("op %d depends on alloc op %d (no event)", i, d)
					}
				}
				if o := &p.Ops[i]; o.Kind == OpAlloc {
					if o.Slot < 0 || int(o.Slot) >= len(p.Slots) {
						t.Fatalf("alloc op %d references bad slot %d", i, o.Slot)
					}
				}
			}
			for _, id := range append(append([]int32(nil), p.TailH2D...), p.TailComp...) {
				if id < 0 || int(id) >= len(p.Ops) || p.Ops[id].Kind == OpAlloc {
					t.Fatalf("bad tail wait id %d", id)
				}
			}
		})
	}
}

// TestPlanVolumesMatchClosedForm checks that the annotations accumulated
// op-by-op during planning equal the closed-form predictions, across
// raggedness, transposes and beta handling.
func TestPlanVolumesMatchClosedForm(t *testing.T) {
	H, D := model.OnHost, model.OnDevice
	specs := []GemmSpec{
		{Dtype: kernelmodel.F64, TransA: blas.NoTrans, TransB: blas.NoTrans,
			M: 130, N: 70, K: 95, Alpha: 1, Beta: 0.5, LocA: H, LocB: H, LocC: H, T: 64},
		{Dtype: kernelmodel.F64, TransA: blas.Trans, TransB: blas.Trans,
			M: 90, N: 110, K: 70, Alpha: 1, Beta: 1, LocA: H, LocB: H, LocC: H, T: 64},
		{Dtype: kernelmodel.F32, TransA: blas.NoTrans, TransB: blas.NoTrans,
			M: 128, N: 64, K: 64, Alpha: 1, Beta: 0, LocA: H, LocB: H, LocC: H, T: 32},
		{Dtype: kernelmodel.F64, TransA: blas.NoTrans, TransB: blas.NoTrans,
			M: 128, N: 128, K: 128, Alpha: 1, Beta: 1, LocA: D, LocB: D, LocC: D, T: 64},
		{Dtype: kernelmodel.F64, TransA: blas.NoTrans, TransB: blas.Trans,
			M: 100, N: 60, K: 81, Alpha: 1, Beta: 1, LocA: D, LocB: H, LocC: H, T: 32},
	}
	for _, spec := range specs {
		if got, want := BuildGemm(spec).Volumes(), GemmVolumes(spec); got != want {
			t.Errorf("gemm %+v: built %+v, closed form %+v", spec, got, want)
		}
		if spec.TransA != blas.NoTrans || spec.TransB != blas.NoTrans {
			continue // no-reuse path is NoTrans-only
		}
		if got, want := BuildGemmNoReuse(spec, 1<<30).Volumes(), GemmNoReuseVolumes(spec); got != want {
			t.Errorf("noreuse %+v: built %+v, closed form %+v", spec, got, want)
		}
	}

	// Factorization planners: ragged and exact grids, host and device
	// residency, both TRSM diagonals.
	for _, spec := range []CholeskySpec{
		{Dtype: kernelmodel.F64, N: 130, LocA: H, T: 64},
		{Dtype: kernelmodel.F64, N: 128, LocA: D, T: 32},
		{Dtype: kernelmodel.F32, N: 96, LocA: H, T: 32},
	} {
		if got, want := BuildCholesky(spec).Volumes(), CholeskyVolumes(spec); got != want {
			t.Errorf("cholesky %+v: built %+v, closed form %+v", spec, got, want)
		}
	}
	for _, spec := range []LUSpec{
		{Dtype: kernelmodel.F64, N: 130, LocA: H, T: 64},
		{Dtype: kernelmodel.F64, N: 128, LocA: D, T: 32},
	} {
		if got, want := BuildLU(spec).Volumes(), LUVolumes(spec); got != want {
			t.Errorf("lu %+v: built %+v, closed form %+v", spec, got, want)
		}
	}
	for _, spec := range []TrsmSpec{
		{Dtype: kernelmodel.F64, Diag: blas.NonUnit, M: 130, N: 70, Alpha: 0.5, LocA: H, LocB: H, T: 64},
		{Dtype: kernelmodel.F64, Diag: blas.Unit, M: 96, N: 64, Alpha: 1, LocA: D, LocB: H, T: 32},
	} {
		if got, want := BuildTrsm(spec).Volumes(), TrsmVolumes(spec); got != want {
			t.Errorf("trsm %+v: built %+v, closed form %+v", spec, got, want)
		}
	}
}
