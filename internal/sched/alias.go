package sched

import (
	"errors"
	"fmt"
	"unsafe"

	"cocopelia/internal/cudart"
	"cocopelia/internal/model"
	"cocopelia/internal/plan"
)

// ErrAliasedOperands reports a backed request whose written operand shares
// storage with another operand it binds. A plan's hazard graph treats
// different operands as disjoint storage, so such a call's result could
// depend on the order its tile jobs run in.
var ErrAliasedOperands = errors.New("sched: aliased operands")

// span is the storage an operand's addressed elements occupy: a byte
// address range of host memory (dev nil), or an element range of one
// device buffer.
type span struct {
	dev        *cudart.DevBuffer
	start, end uintptr
}

// argSpan returns the span of a bound operand, or false when it has no
// storage (a host operand of a timing-only run).
func argSpan(a plan.Arg) (span, bool) {
	if m := a.Mat; m != nil {
		if m.Loc == model.OnDevice {
			return span{dev: m.Dev, end: uintptr((m.Cols-1)*m.DevLd + m.Rows)}, true
		}
		elems := (m.Cols-1)*m.HostLd + m.Rows
		switch {
		case m.HostF64 != nil:
			return hostSpan(unsafe.Pointer(unsafe.SliceData(m.HostF64)), elems*8), true
		case m.HostF32 != nil:
			return hostSpan(unsafe.Pointer(unsafe.SliceData(m.HostF32)), elems*4), true
		}
		return span{}, false
	}
	v := a.Vec
	if v.Loc == model.OnDevice {
		return span{dev: v.Dev, end: uintptr(v.N)}, true
	}
	if v.HostF64 == nil {
		return span{}, false
	}
	return hostSpan(unsafe.Pointer(unsafe.SliceData(v.HostF64)), v.N*8), true
}

// hostSpan is the span of n bytes of host memory at p.
func hostSpan(p unsafe.Pointer, n int) span {
	start := uintptr(p)
	return span{start: start, end: start + uintptr(n)}
}

// checkAliases rejects a call whose written operand — every routine's last
// bound argument (gemm's C, gemv's y, axpy's y, trsm's B; the
// factorizations bind only their matrix) — overlaps another bound operand.
// Read-only operands may share storage: syrk binds A twice.
func (cl *call) checkAliases() error {
	args := cl.args[:cl.key.NLocs]
	w := len(args) - 1
	ws, ok := argSpan(args[w])
	if !ok {
		return nil
	}
	for i, a := range args[:w] {
		if s, ok := argSpan(a); ok && s.dev == ws.dev && s.start < ws.end && ws.start < s.end {
			names := plan.ArgNames(cl.key.Routine)
			return fmt.Errorf("%w: %s %s overlaps %s", ErrAliasedOperands, cl.key.Routine, names[w], names[i])
		}
	}
	return nil
}
