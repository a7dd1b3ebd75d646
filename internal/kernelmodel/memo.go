package kernelmodel

import "cocopelia/internal/machine"

// Kind names the kernel of a Shape. The zero Kind names no kernel, so the
// zero Shape never equals a real launch.
type Kind uint8

// The kernels a Shape can name.
const (
	KindGemm Kind = iota + 1
	KindGemv
	KindAxpy
	KindPotrf
	KindGetrf
	KindTrsm
	KindSyrk
)

// Shape is one kernel launch as the duration model sees it: the kernel, its
// element type, the side of a triangular solve, and the dimensions — (M, N,
// K) for gemm, (M, N) for gemv and trsm, (N, K) for syrk and N alone for
// axpy, potrf and getrf. Fields a kernel does not use stay zero.
type Shape struct {
	Kind    Kind
	Side    byte
	Dtype   Dtype
	M, N, K int
}

// Time evaluates the kernel model for the shape on gpu.
func (s Shape) Time(gpu *machine.GPUSpec) float64 {
	switch s.Kind {
	case KindGemm:
		return GemmTime(gpu, s.Dtype, s.M, s.N, s.K)
	case KindGemv:
		return GemvTime(gpu, s.Dtype, s.M, s.N)
	case KindAxpy:
		return AxpyTime(gpu, s.Dtype, s.N)
	case KindPotrf:
		return PotrfTime(gpu, s.Dtype, s.N)
	case KindGetrf:
		return GetrfTime(gpu, s.Dtype, s.N)
	case KindTrsm:
		return TrsmTime(gpu, s.Dtype, s.Side, s.M, s.N)
	case KindSyrk:
		return SyrkTime(gpu, s.Dtype, s.N, s.K)
	}
	panic("kernelmodel: shape names no kernel")
}

// Memo memoizes kernel durations. A tiled run launches thousands of
// kernels with a handful of distinct shapes (full tiles plus edge tiles),
// and the model's pow/cbrt evaluation would otherwise dominate plan
// replay and plan prediction alike. The zero value is ready to
// use. A Memo belongs to its caller: it holds no shared state and is not
// safe for concurrent use.
type Memo struct {
	gpu  *machine.GPUSpec
	durs map[Shape]float64
	// last short-circuits the map for back-to-back launches of one shape.
	last    Shape
	lastDur float64
}

// Time returns s.Time(gpu), evaluating the model only for a shape the memo
// has not seen on gpu. A query for another GPU model than the previous one
// drops every entry.
func (m *Memo) Time(gpu *machine.GPUSpec, s Shape) float64 {
	if gpu != m.gpu {
		m.gpu, m.last = gpu, Shape{}
		clear(m.durs)
	}
	if s == m.last {
		return m.lastDur
	}
	d, ok := m.durs[s]
	if !ok {
		d = s.Time(gpu)
		if m.durs == nil {
			m.durs = make(map[Shape]float64)
		}
		m.durs[s] = d
	}
	m.last, m.lastDur = s, d
	return d
}
