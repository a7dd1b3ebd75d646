package sched

import (
	"errors"
	"strings"
	"testing"

	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/model"
)

// TestDeviceAliasRejected pins the device half of the aliasing check: on a
// backed context, a written operand whose element range overlaps another
// operand's in the same device buffer is rejected with ErrAliasedOperands,
// while disjoint ranges of one buffer, and any aliasing on a timing-only
// context, pass.
func TestDeviceAliasRejected(t *testing.T) {
	const n = 32
	for _, backed := range []bool{true, false} {
		c := newCtx(backed)
		buf, err := c.rt.Malloc(kernelmodel.F64, 3*n, backed)
		if err != nil {
			t.Fatal(err)
		}
		// x is the buffer's first n elements; y starts at element 0 too
		// (overlapping) or lies in another buffer (disjoint).
		x := &Vector{N: n, Loc: model.OnDevice, Dev: buf}
		y := &Vector{N: n, Loc: model.OnDevice, Dev: buf}
		_, err = c.Run(AxpyOpts{N: n, Alpha: 1, X: x, Y: y, T: 16})
		switch {
		case backed && !errors.Is(err, ErrAliasedOperands):
			t.Fatalf("axpy with y over x: err = %v, want ErrAliasedOperands", err)
		case backed && !strings.Contains(err.Error(), "y overlaps x"):
			t.Errorf("error %q does not name both operands", err)
		case !backed && err != nil:
			t.Errorf("timing-only axpy with y over x: %v", err)
		}

		a := testMat(t, c, kernelmodel.F64, n, n, model.OnDevice, 1)
		cm := &Matrix{Rows: n / 2, Cols: n, Loc: model.OnDevice, Dev: a.Dev, DevLd: n}
		b := testMat(t, c, kernelmodel.F64, n, n, model.OnHost, 2)
		_, err = c.Run(GemmOpts{Dtype: kernelmodel.F64, M: n / 2, N: n, K: n, Alpha: 1, Beta: 1,
			A: &Matrix{Rows: n / 2, Cols: n, Loc: model.OnHost, HostF64: b.HostF64, HostLd: n}, B: a, C: cm, T: 16})
		if backed != errors.Is(err, ErrAliasedOperands) {
			t.Errorf("backed=%v gemm with C in B's device buffer: err = %v", backed, err)
		}
	}
}
