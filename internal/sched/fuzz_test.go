package sched

import (
	"math"
	"testing"

	"cocopelia/internal/blas"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/model"
	"cocopelia/internal/plan"
)

// fuzzFlags decodes the fuzzer's flag byte: two bits each pick TransA,
// TransB and Diag from {unset, valid, valid, invalid}, and the top bit
// selects float32.
func fuzzFlags(s *reqShape, flags uint8) {
	s.transA = []byte{0, blas.NoTrans, blas.Trans, 'X'}[flags&3]
	s.transB = []byte{0, blas.NoTrans, blas.Trans, 'X'}[flags>>2&3]
	s.diag = []byte{0, blas.NonUnit, blas.Unit, 'Q'}[flags>>4&3]
	if flags&0x80 != 0 {
		s.dt = kernelmodel.F32
	}
}

// validShape reports whether the routine's request accepts the shape (its
// operands come from buildReq, so they always match the dimensions).
func validShape(routine string, s reqShape) bool {
	trans := func(b byte, allowT bool) bool { return b == 0 || b == blas.NoTrans || (allowT && b == blas.Trans) }
	if s.n <= 0 || s.T <= 0 {
		return false
	}
	switch routine {
	case "gemm":
		return s.m > 0 && s.k > 0 && trans(s.transA, true) && trans(s.transB, true)
	case "gemm-noreuse":
		return s.m > 0 && s.k > 0 && trans(s.transA, false) && trans(s.transB, false)
	case "gemv":
		return s.m > 0
	case "syrk":
		return s.k > 0 && trans(s.transA, true)
	case "trsm":
		return s.m > 0 && trans(s.transA, false) && (s.diag == 0 || s.diag == blas.NonUnit || s.diag == blas.Unit)
	}
	return true // axpy, cholesky, lu
}

// closedForm returns the closed-form volume annotations of the plan key's
// routine, where one exists.
func closedForm(k plan.Key) (plan.Volumes, bool) {
	gemm := plan.GemmSpec{
		Dtype: k.Dtype, TransA: k.TransA, TransB: k.TransB, M: k.M, N: k.N, K: k.K,
		Beta: math.Float64frombits(k.Beta), LocA: k.Locs[0], LocB: k.Locs[1], LocC: k.Locs[2], T: k.T,
	}
	switch k.Routine {
	case "gemm":
		return plan.GemmVolumes(gemm), true
	case "gemm-noreuse":
		return plan.GemmNoReuseVolumes(gemm), true
	case "cholesky":
		return plan.CholeskyVolumes(plan.CholeskySpec{Dtype: k.Dtype, N: k.N, LocA: k.Locs[0], T: k.T}), true
	case "lu":
		return plan.LUVolumes(plan.LUSpec{Dtype: k.Dtype, N: k.N, LocA: k.Locs[0], T: k.T}), true
	case "trsm":
		return plan.TrsmVolumes(plan.TrsmSpec{Dtype: k.Dtype, Diag: k.Diag, M: k.M, N: k.N,
			Alpha: math.Float64frombits(k.Alpha), LocA: k.Locs[0], LocB: k.Locs[1], T: k.T}), true
	}
	return plan.Volumes{}, false
}

// FuzzPlan drives every request type through Plan and Enqueue on fresh
// timing-only contexts. Invalid requests must fail without panicking;
// valid ones must build a causal plan whose key is the request's, whose
// volumes match the closed form (where one exists), and whose replay
// moves and launches exactly what the plan annotates.
func FuzzPlan(f *testing.F) {
	dims := [][4]int8{
		{1, 1, 1, 1},    // n = 1
		{37, 23, 19, 8}, // ragged edges
		{5, 7, 3, 16},   // T > every dimension
		{0, 9, 9, 4},    // invalid m
		{9, 9, 9, 0},    // invalid T
	}
	scalars := [][2]float64{{1, 1}, {0, math.Copysign(0, -1)}, {-1.5, 0.25}}
	for r := range reqRoutines {
		for i, d := range dims {
			for locMask := 0; locMask < 8; locMask++ {
				sc := scalars[(i+locMask)%len(scalars)]
				f.Add(uint8(r), d[0], d[1], d[2], d[3], uint8(locMask), uint8(locMask*37), sc[0], sc[1])
			}
		}
	}
	f.Fuzz(func(t *testing.T, routine uint8, m, n, k, T int8, locMask, flags uint8, alpha, beta float64) {
		// Dimensions stay small so one input plans and simulates in
		// milliseconds; negative and zero values exercise validation.
		s := reqShape{
			dt: kernelmodel.F64,
			m:  int(m) % 41, n: int(n) % 41, k: int(k) % 41, T: int(T) % 48,
			alpha: alpha, beta: beta,
		}
		for i := range s.locs {
			if locMask>>i&1 != 0 {
				s.locs[i] = model.OnDevice
			}
		}
		fuzzFlags(&s, flags)
		name := reqRoutines[int(routine)%len(reqRoutines)]

		c := newCtx(false)
		r := buildReq(t, c, name, s)
		p, err := c.Plan(r)
		if !validShape(name, s) {
			if err == nil {
				t.Fatalf("%s %+v: invalid request planned", name, s)
			}
			if _, err := c.Enqueue(nil, r); err == nil {
				t.Fatalf("%s %+v: invalid request enqueued", name, s)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s %+v: valid request rejected: %v", name, s, err)
		}

		for i := range p.Ops {
			for _, d := range p.Deps(i) {
				if d < 0 || int(d) >= i || p.Ops[d].Kind == plan.OpAlloc {
					t.Fatalf("%s: op %d has non-causal or alloc dep %d", name, i, d)
				}
			}
		}
		for _, tail := range [][]int32{p.TailH2D, p.TailComp} {
			for _, id := range tail {
				if id < 0 || int(id) >= len(p.Ops) || p.Ops[id].Kind == plan.OpAlloc {
					t.Fatalf("%s: bad tail wait id %d", name, id)
				}
			}
		}

		key, err := c.Key(r)
		if err != nil {
			t.Fatal(err)
		}
		if p.Key() != key {
			t.Fatalf("%s: plan key %+v, request key %+v", name, p.Key(), key)
		}
		if want, ok := closedForm(key); ok && p.Volumes() != want {
			t.Fatalf("%s %+v: volumes %+v, closed form %+v", name, s, p.Volumes(), want)
		}

		res, err := runWith(c, p, r)
		if err != nil {
			t.Fatalf("%s: replay failed: %v", name, err)
		}
		if got := (plan.Volumes{BytesH2D: res.BytesH2D, BytesD2H: res.BytesD2H, Subkernels: res.Subkernels}); got != p.Volumes() {
			t.Fatalf("%s: replay reported %+v, plan annotates %+v", name, got, p.Volumes())
		}
		lk := c.rt.Device().Link()
		moved := plan.Volumes{
			BytesH2D:   lk.Stats(machine.H2D).Bytes,
			BytesD2H:   lk.Stats(machine.D2H).Bytes,
			Subkernels: c.rt.Device().ComputeStats().Kernels,
		}
		if moved != p.Volumes() {
			t.Fatalf("%s %+v: replay moved %+v, plan annotates %+v", name, s, moved, p.Volumes())
		}
	})
}
