package plan

import (
	"fmt"

	"cocopelia/internal/blas"
	"cocopelia/internal/cudart"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/operand"
)

// Allocator is the staging-buffer pool a plan replays against (implemented
// by sched.Context).
type Allocator interface {
	Acquire(dt kernelmodel.Dtype, elems int64) (*cudart.DevBuffer, error)
	Release(b *cudart.DevBuffer)
}

// Target is the execution surface a plan replays onto: the streams and the
// staging allocator of one scheduler context. Streams must hold at least
// the plan's Streams entries; op o runs on Streams[o.Stream].
type Target struct {
	Streams []*cudart.Stream
	Alloc   Allocator
}

// Arg binds one plan operand at replay time: exactly one of Mat/Vec is set,
// per the plan routine's argument list.
type Arg struct {
	Mat *operand.Matrix
	Vec *operand.Vector
}

// Executor replays plans onto a target. It owns reusable scratch (the
// op-id -> event table, the slot bindings and the acquired-buffer list), so
// replay allocates nothing once warm; like the scheduler context whose
// scratch it replaces, one executor supports one in-flight replay at a
// time.
type Executor struct {
	events []*cudart.Event
	slots  []*cudart.DevBuffer
	pooled []*cudart.DevBuffer
}

// resolve maps a kernel operand reference to (buffer, offset, ld).
func (e *Executor) resolve(args []Arg, r Ref) (*cudart.DevBuffer, int64, int) {
	if r.Slot >= 0 {
		// A slot ref's Row carries the ld and its Col the element offset.
		return e.slots[r.Slot], int64(r.Col), int(r.Row)
	}
	a := args[r.Arg]
	if a.Mat != nil {
		return a.Mat.Dev, int64(r.Row) + int64(r.Col)*int64(a.Mat.DevLd), a.Mat.DevLd
	}
	return a.Vec.Dev, int64(r.Row), 0
}

// Run replays p onto tgt with the operands bound by args. It issues the
// plan's stream calls in op order — each op's dependency waits first, in
// their recorded order, then the matching asynchronous call — which is
// exactly the call sequence the direct scheduler produced, so the
// simulation's event order is preserved.
//
// Run returns the staging buffers acquired from the allocator; the caller
// releases them after the engine drains. On error every acquired buffer
// has already been released.
func (e *Executor) Run(p *Plan, tgt Target, args []Arg) ([]*cudart.DevBuffer, error) {
	if len(args) != p.NumArgs() {
		return nil, fmt.Errorf("plan: %s plan wants %d operands, got %d",
			p.Routine, p.NumArgs(), len(args))
	}
	// The event table is dense over referenced ops only (Op.Ev), so the
	// pointer scratch — allocated, zeroed and GC-scanned per fresh context —
	// stays proportional to the dependency structure, not the op count.
	if cap(e.events) < p.EvSlots {
		e.events = make([]*cudart.Event, p.EvSlots)
	}
	e.events = e.events[:p.EvSlots]
	for i := range e.events {
		e.events[i] = nil
	}
	if cap(e.slots) < len(p.Slots) {
		e.slots = make([]*cudart.DevBuffer, len(p.Slots))
	}
	e.slots = e.slots[:len(p.Slots)]
	e.pooled = e.pooled[:0]

	fail := func(err error) ([]*cudart.DevBuffer, error) {
		for _, b := range e.pooled {
			tgt.Alloc.Release(b)
		}
		e.pooled = e.pooled[:0]
		return nil, err
	}

	for i := range p.Ops {
		o := &p.Ops[i]
		deps := p.deps[o.depOff : o.depOff+o.depN]
		s := tgt.Streams[o.Stream]
		for _, d := range deps { // allocations have none
			s.WaitEvent(e.events[p.Ops[d].Ev])
		}
		var ev *cudart.Event
		var err error
		switch o.Kind {
		case OpAlloc:
			sl := p.Slots[o.Slot]
			buf, err := tgt.Alloc.Acquire(sl.Dtype, sl.Elems)
			if err != nil {
				return fail(err)
			}
			e.slots[o.Slot] = buf
			e.pooled = append(e.pooled, buf)
			continue

		case OpFetch:
			dst := e.slots[o.Slot]
			if o.N == 0 {
				v := args[o.A.Arg].Vec
				var host []float64
				if v.HostF64 != nil {
					host = v.HostF64[o.A.Row:]
				}
				ev, err = s.MemcpyH2DAsync(dst, int64(o.K), host, nil, int64(o.M))
			} else {
				m := args[o.A.Arg].Mat
				h64, h32 := m.HostSlices(int(o.A.Row), int(o.A.Col))
				ev, err = s.SetMatrixAsync(int(o.M), int(o.N),
					h64, h32, m.HostLd, dst, 0, int(o.M))
			}

		case OpKernel:
			switch o.Kernel {
			case KDispatch:
				ev, err = s.KernelAsync("dispatch", p.DispatchS, nil)
			case KGemm:
				aBuf, aOff, aLd := e.resolve(args, o.A)
				bBuf, bOff, bLd := e.resolve(args, o.B)
				cBuf, cOff, cLd := e.resolve(args, o.C)
				ev, err = s.GemmAsync(o.TransA, o.TransB,
					int(o.M), int(o.N), int(o.K), p.opAlpha(o),
					aBuf, aOff, aLd, bBuf, bOff, bLd,
					p.opBeta(o), cBuf, cOff, cLd)
			case KGemv:
				aBuf, aOff, aLd := e.resolve(args, o.A)
				xBuf, xOff, _ := e.resolve(args, o.B)
				yBuf, yOff, _ := e.resolve(args, o.C)
				ev, err = s.GemvAsync(blas.NoTrans,
					int(o.M), int(o.N), p.Alpha,
					aBuf, aOff, aLd, xBuf, xOff, p.opBeta(o), yBuf, yOff)
			case KAxpy:
				xBuf, xOff, _ := e.resolve(args, o.A)
				yBuf, yOff, _ := e.resolve(args, o.C)
				ev, err = s.AxpyAsync(int(o.N), p.Alpha, xBuf, xOff, yBuf, yOff)
			case KPotrf:
				aBuf, aOff, aLd := e.resolve(args, o.A)
				ev, err = s.PotrfAsync(o.Uplo, int(o.N), aBuf, aOff, aLd)
			case KGetrf:
				aBuf, aOff, aLd := e.resolve(args, o.A)
				ev, err = s.GetrfAsync(int(o.N), aBuf, aOff, aLd)
			case KTrsm:
				aBuf, aOff, aLd := e.resolve(args, o.A)
				bBuf, bOff, bLd := e.resolve(args, o.B)
				ev, err = s.TrsmAsync(o.Side, o.Uplo, o.TransA, o.Diag,
					int(o.M), int(o.N), p.opAlpha(o),
					aBuf, aOff, aLd, bBuf, bOff, bLd)
			case KSyrk:
				aBuf, aOff, aLd := e.resolve(args, o.A)
				cBuf, cOff, cLd := e.resolve(args, o.C)
				ev, err = s.SyrkAsync(o.Uplo, o.TransA, int(o.N), int(o.K),
					p.opAlpha(o), aBuf, aOff, aLd,
					p.opBeta(o), cBuf, cOff, cLd)
			}

		case OpWriteback:
			src := e.slots[o.Slot]
			if o.N == 0 {
				v := args[o.A.Arg].Vec
				var host []float64
				if v.HostF64 != nil {
					host = v.HostF64[o.A.Row:]
				}
				ev, err = s.MemcpyD2HAsync(host, nil, src, int64(o.K), int64(o.M))
			} else {
				m := args[o.A.Arg].Mat
				h64, h32 := m.HostSlices(int(o.A.Row), int(o.A.Col))
				ev, err = s.GetMatrixAsync(int(o.M), int(o.N),
					src, 0, int(o.M), h64, h32, m.HostLd)
			}
		}
		if err != nil {
			return fail(err)
		}
		if o.Ev >= 0 {
			e.events[o.Ev] = ev
		}
	}

	// Leave the streams in the exact state direct scheduling left them:
	// waits the schedule registered but never consumed stay pending.
	for _, id := range p.TailH2D {
		tgt.Streams[StreamH2D].WaitEvent(e.events[p.Ops[id].Ev])
	}
	for _, id := range p.TailComp {
		tgt.Streams[StreamComp].WaitEvent(e.events[p.Ops[id].Ev])
	}
	return e.pooled, nil
}
