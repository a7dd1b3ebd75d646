package blas

import "sync"

// Blocking parameters of the packed GEMM engine (see DESIGN.md "Blocked
// GEMM payload engine"). They are fixed constants on purpose: the
// determinism contract of the engine — bitwise-identical results at any
// worker count, and bitwise equality with the GemmNaive oracle — relies on
// every C element receiving its k-dimension terms in the same order no
// matter how the work is partitioned. Fixed blocking keeps the per-element
// accumulation schedule a pure function of (m, n, k), never of the worker
// count or the machine.
const (
	// gemmMR x gemmNR is the register micro-tile of the portable exact
	// kernel: the micro-kernel keeps an MRxNR block of C in registers
	// while streaming one packed A micro-panel against one packed B
	// micro-panel. A native kernel may use a wider tile (registry.go);
	// the packing layer follows the selected tile.
	gemmMR = 4
	gemmNR = 4
	// maxMR/maxNR bound any native kernel tile: they size the tail
	// kernel's stack accumulator, and setKernel64 rejects tiles past
	// them (or tiles that do not divide gemmMC/gemmNC).
	maxMR = 16
	maxNR = 4
	// gemmKC is the k-extent of a packed panel pair: one B micro-panel
	// (gemmKC x gemmNR values) stays resident in L1 while a whole A block
	// streams against it.
	gemmKC = 256
	// gemmMC is the row extent of a packed A block (gemmMC x gemmKC values
	// sized for L2 residency).
	gemmMC = 128
	// gemmNC is the column extent of a packed B panel.
	gemmNC = 2048
	// gemmSmallCutoff routes tiny problems (m*n*k at or below it) to the
	// reference loop, which beats the engine's packing overhead there.
	// Both paths produce the same bits, so the cutoff is invisible to
	// callers.
	gemmSmallCutoff = 24 * 24 * 24
)

// gemmBuffers is one worker's pair of packing buffers. The engine recycles
// them through a sync.Pool so steady-state Gemm calls allocate nothing; the
// float64 and float32 views share the slot because a worker only ever uses
// the pair matching its element type.
type gemmBuffers struct {
	a64, b64 []float64
	a32, b32 []float32
}

var gemmBufPool = sync.Pool{New: func() any { return new(gemmBuffers) }}

// triBufPool recycles the workspaces of the triangular kernels (Trsm's
// packed triangle, seed rows and panel, Potrf's row mirror and seed rows).
// It is apart from gemmBufPool because those kernels hold a workspace
// while their GEMM steps take packing buffers: drawn from one pool, the
// two roles would swap objects from call to call and each would regrow
// the other's slices.
var triBufPool = sync.Pool{New: func() any { return new(gemmBuffers) }}

// asTyped reinterprets *[]E as []F when F and E are the same type (the
// alloc-free pointer form of the conversion: a pointer always fits an
// interface word, so boxing it never heap-allocates).
func asTyped[F Float, E Float](p *[]E) ([]F, bool) {
	if q, ok := any(p).(*[]F); ok {
		return *q, true
	}
	return nil, false
}

// packSlices returns the worker's A- and B-packing buffers with at least
// na and nb elements. Exotic Float instantiations (named float types) are
// not pooled and simply allocate.
func packSlices[F Float](bufs *gemmBuffers, na, nb int) (ap, bp []F) {
	var probe *[]F
	switch any(probe).(type) {
	case *[]float64:
		if cap(bufs.a64) < na {
			bufs.a64 = make([]float64, na)
		}
		if cap(bufs.b64) < nb {
			bufs.b64 = make([]float64, nb)
		}
		bufs.a64, bufs.b64 = bufs.a64[:na], bufs.b64[:nb]
		ap, _ = asTyped[F](&bufs.a64)
		bp, _ = asTyped[F](&bufs.b64)
	case *[]float32:
		if cap(bufs.a32) < na {
			bufs.a32 = make([]float32, na)
		}
		if cap(bufs.b32) < nb {
			bufs.b32 = make([]float32, nb)
		}
		bufs.a32, bufs.b32 = bufs.a32[:na], bufs.b32[:nb]
		ap, _ = asTyped[F](&bufs.a32)
		bp, _ = asTyped[F](&bufs.b32)
	default:
		ap, bp = make([]F, na), make([]F, nb)
	}
	return ap, bp
}

func roundUp(x, to int) int { return (x + to - 1) / to * to }
