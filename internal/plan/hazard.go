package plan

import (
	"fmt"
	"slices"
	"sync"

	"cocopelia/internal/blas"
	"cocopelia/internal/parallel"
)

// Extent is one operand window of a kernel op: the reference, the
// rows x cols window it addresses, and whether the kernel writes it.
type Extent struct {
	Ref        Ref
	Rows, Cols int32
	Write      bool
}

// KernelExtents lists kernel op o's operand windows in operand order (none
// for a dispatch op). It is the one description of a kernel's operand
// extents: the hazard graph and the window checks both read it.
func KernelExtents(o *Op) []Extent {
	type e = Extent
	flip := func(trans byte, r, c int32) (int32, int32) {
		if trans == blas.Trans {
			return c, r
		}
		return r, c
	}
	switch o.Kernel {
	case KGemm:
		ar, ac := flip(o.TransA, o.M, o.K)
		br, bc := flip(o.TransB, o.K, o.N)
		return []e{{o.A, ar, ac, false}, {o.B, br, bc, false}, {o.C, o.M, o.N, true}}
	case KGemv:
		return []e{{o.A, o.M, o.N, false}, {o.B, o.N, 1, false}, {o.C, o.M, 1, true}}
	case KAxpy:
		return []e{{o.A, o.N, 1, false}, {o.C, o.N, 1, true}}
	case KPotrf, KGetrf:
		return []e{{o.A, o.N, o.N, true}}
	case KTrsm:
		an := o.M
		if o.Side == blas.Right {
			an = o.N
		}
		return []e{{o.A, an, an, false}, {o.B, o.M, o.N, true}}
	case KSyrk:
		ar, ac := flip(o.TransA, o.N, o.K)
		return []e{{o.A, ar, ac, false}, {o.C, o.N, o.N, true}}
	}
	return nil // dispatch
}

// region is the element set one op reads or writes in one storage space: a
// staging slot (an element range, as rows [r0, r1) of column 0) or a bound
// operand (rows [r0, r1) x columns [c0, c1) in its coordinates).
type region struct {
	space          int
	r0, r1, c0, c1 int64
	write          bool
	op             int32
}

// overlaps reports whether two regions of one space share an element.
func (a *region) overlaps(b *region) bool {
	return a.r0 < b.r1 && b.r0 < a.r1 && a.c0 < b.c1 && b.c0 < a.c1
}

// covers reports whether a holds every element of b.
func (a *region) covers(b *region) bool {
	return a.r0 <= b.r0 && b.r1 <= a.r1 && a.c0 <= b.c0 && b.c1 <= a.c1
}

// accesses appends the regions op i of p reads and writes to dst: a
// transfer reads its source window and writes its destination window, and a
// kernel accesses its extents. An operand a kernel both reads and writes is
// one write. Allocations and dispatch ops access nothing.
func (p *Plan) accesses(dst []region, i int32) []region {
	o := &p.Ops[i]
	arg := func(a Ref, rows, cols int32, write bool) region {
		return region{space: len(p.Slots) + int(a.Arg), r0: int64(a.Row), r1: int64(a.Row) + int64(rows),
			c0: int64(a.Col), c1: int64(a.Col) + int64(cols), write: write, op: i}
	}
	slot := func(s int32, off, n int64, write bool) region {
		return region{space: int(s), r0: off, r1: off + n, c1: 1, write: write, op: i}
	}
	switch o.Kind {
	case OpFetch, OpWriteback:
		host, dev := arg(o.A, o.M, 1, o.Kind == OpWriteback), slot(o.Slot, int64(o.K), int64(o.M), o.Kind == OpFetch)
		if o.N != 0 { // a 2-D window, packed at the start of the slot
			host, dev = arg(o.A, o.M, o.N, o.Kind == OpWriteback), slot(o.Slot, 0, int64(o.M)*int64(o.N), o.Kind == OpFetch)
		}
		return append(dst, host, dev)
	case OpKernel:
		for _, x := range KernelExtents(o) {
			if x.Ref.Slot < 0 {
				dst = append(dst, arg(x.Ref, x.Rows, x.Cols, x.Write))
				continue
			}
			// A slot ref's Row is its leading dimension (0 for a vector)
			// and its Col the element offset.
			n := int64(x.Rows) * int64(x.Cols)
			if ld := int64(x.Ref.Row); ld > 0 {
				n = int64(x.Cols-1)*ld + int64(x.Rows)
			}
			dst = append(dst, slot(x.Ref.Slot, int64(x.Ref.Col), n, x.Write))
		}
	}
	return dst
}

// Hazards returns the plan's data-hazard graph over its op ids, building
// and caching it on first use: op j waits for an earlier op i when both
// access a common element of a staging slot or bound operand and at least
// one of them writes it (read after write, write after read, write after
// write). Operands bound to different arguments are assumed not to overlap
// unless both are only read.
//
// Running the ops in any order the graph allows computes what running them
// in op-id order does, and so what the timing DAG's completion order did
// when the simulation moved data itself, provided every edge follows from
// the timing DAG (CheckHazards).
func (p *Plan) Hazards() *parallel.DAG {
	c := &p.hazards
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.g == nil {
		c.g = buildHazards(p)
	}
	return c.g
}

// hazardCache is the Plan field backing Hazards: the data-hazard graph,
// which only backed replays build, guarded by mu because concurrent
// replays of one plan may ask for it first together.
type hazardCache struct {
	mu sync.Mutex
	g  *parallel.DAG
}

// buildHazards derives the hazard graph. Each space keeps the regions of
// its live readers and writers; a read is checked against the writers
// only, a write against both, and a write drops every region it covers,
// because a later access that overlaps a dropped region overlaps the
// write too and so is ordered after the dropped access through it.
func buildHazards(p *Plan) *parallel.DAG {
	n := len(p.Ops)
	spaces := len(p.Slots) + p.NLocs
	readers, writers := make([][]region, spaces), make([][]region, spaces)
	g := &parallel.DAG{NPred: make([]int32, n), SuccOff: make([]int32, n+1)}
	var preds []int32     // every op's predecessors, op after op
	predOff := []int32{0} // op i's are preds[predOff[i]:predOff[i+1]]
	var regs []region
	for i := range p.Ops {
		regs = p.accesses(regs[:0], int32(i))
		start := len(preds)
		for k := range regs {
			a := &regs[k]
			for j := range writers[a.space] {
				if a.overlaps(&writers[a.space][j]) {
					preds = append(preds, writers[a.space][j].op)
				}
			}
			if !a.write {
				continue
			}
			for j := range readers[a.space] {
				if a.overlaps(&readers[a.space][j]) {
					preds = append(preds, readers[a.space][j].op)
				}
			}
		}
		slices.Sort(preds[start:])
		preds = preds[:start+len(slices.Compact(preds[start:]))]
		predOff = append(predOff, int32(len(preds)))
		g.NPred[i] = int32(len(preds) - start)
		for k := range regs {
			a := &regs[k]
			if !a.write {
				readers[a.space] = append(readers[a.space], *a)
				continue
			}
			drop := func(b region) bool { return a.covers(&b) }
			readers[a.space] = slices.DeleteFunc(readers[a.space], drop)
			writers[a.space] = append(slices.DeleteFunc(writers[a.space], drop), *a)
		}
	}
	for _, d := range preds {
		g.SuccOff[d+1]++
	}
	for i := 0; i < n; i++ {
		g.SuccOff[i+1] += g.SuccOff[i]
	}
	g.Succ = make([]int32, len(preds))
	fill := slices.Clone(g.SuccOff[:n])
	for i := 0; i < n; i++ {
		for _, d := range preds[predOff[i]:predOff[i+1]] {
			g.Succ[fill[d]] = int32(i)
			fill[d]++
		}
	}
	return g
}

// CheckHazards reports the first hazard edge that the plan's timing DAG
// does not imply, or nil when the timing DAG implies every edge. The
// timing DAG orders op j after op i when j depends on i (Deps) or follows
// it on the same stream, transitively; only then is the order in which the
// hazard graph runs two conflicting ops the order in which the simulation
// completes them.
//
// Reachability uses one vector clock per op over the plan's streams: since
// each stream is a chain, op i reaches op j exactly when j's clock for i's
// stream is at least i's position on that stream.
func (p *Plan) CheckHazards() error {
	ns := p.Streams
	pos := make([]int32, len(p.Ops))
	clock := make([]int32, len(p.Ops)*ns)
	tail := make([]int32, ns) // last op on each stream, -1 when none
	for s := range tail {
		tail[s] = -1
	}
	count := make([]int32, ns)
	for i := range p.Ops {
		o := &p.Ops[i]
		if o.Kind == OpAlloc {
			continue
		}
		c := clock[i*ns : (i+1)*ns]
		merge := func(j int32) {
			for s, v := range clock[int(j)*ns : (int(j)+1)*ns] {
				c[s] = max(c[s], v)
			}
		}
		if t := tail[o.Stream]; t >= 0 {
			merge(t)
		}
		for _, d := range p.Deps(i) {
			merge(d)
		}
		count[o.Stream]++
		pos[i], c[o.Stream], tail[o.Stream] = count[o.Stream], count[o.Stream], int32(i)
	}
	g := p.Hazards()
	for i := range p.Ops {
		for _, j := range g.Succs(i) {
			if p.Ops[i].Kind == OpAlloc || clock[int(j)*ns+int(p.Ops[i].Stream)] < pos[i] {
				return fmt.Errorf("plan %s: hazard edge o%d -> o%d is not implied by the timing DAG", p.Routine, i, j)
			}
		}
	}
	return nil
}
