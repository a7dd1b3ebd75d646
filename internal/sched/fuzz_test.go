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
	if routine == "axpy-unified" {
		return s.n > 0 // the prefetch chunk is fixed, not the request's T
	}
	if s.n <= 0 || s.T <= 0 {
		return false
	}
	switch routine {
	case "gemm", "gemm-blasx":
		return s.m > 0 && s.k > 0 && trans(s.transA, true) && trans(s.transB, true)
	case "gemm-noreuse", "gemm-cublasxt":
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
	switch k.Routine {
	case "gemm": // the BLASX request's knobs move no data
		return plan.GemmVolumes(k), true
	case "gemm-noreuse":
		return plan.GemmNoReuseVolumes(k), true
	case "cholesky":
		return plan.CholeskyVolumes(k), true
	case "lu":
		return plan.LUVolumes(k), true
	case "trsm":
		return plan.TrsmVolumes(k), true
	}
	return plan.Volumes{}, false
}

// fuzzSeeds adds the request fuzzers' seed corpus: every routine at a few
// shapes (some invalid), location masks and scalar pairs.
func fuzzSeeds(f *testing.F) {
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
}

// decodeShape maps the fuzzers' inputs to a routine and a request shape.
// Dimensions stay small so one input plans and simulates in milliseconds;
// negative and zero values exercise validation.
func decodeShape(routine uint8, m, n, k, T int8, locMask, flags uint8, alpha, beta float64) (string, reqShape) {
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
	return reqRoutines[int(routine)%len(reqRoutines)], s
}

// FuzzPlan drives every request type through Plan and Enqueue on fresh
// timing-only contexts. Invalid requests must fail without panicking;
// valid ones must build a causal plan whose key is the request's, whose
// volumes match the closed form (where one exists), and whose replay
// moves and launches exactly what the plan annotates.
func FuzzPlan(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, routine uint8, m, n, k, T int8, locMask, flags uint8, alpha, beta float64) {
		name, s := decodeShape(routine, m, n, k, T, locMask, flags, alpha, beta)
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

		cl, err := r.resolve(c)
		if err != nil {
			t.Fatal(err)
		}
		key := cl.key
		if p.Key != key {
			t.Fatalf("%s: plan key %+v, request key %+v", name, p.Key, key)
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
		// The device counts the BLASX request's dispatch kernels too.
		dispatches := int64(0)
		for _, o := range p.Ops {
			if o.Kind == plan.OpKernel && o.Kernel == plan.KDispatch {
				dispatches++
			}
		}
		lk := c.rt.Device().Link()
		moved := plan.Volumes{
			BytesH2D:   lk.Stats(machine.H2D).Bytes,
			BytesD2H:   lk.Stats(machine.D2H).Bytes,
			Subkernels: c.rt.Device().ComputeStats().Kernels - dispatches,
		}
		if moved != p.Volumes() {
			t.Fatalf("%s %+v: replay moved %+v, plan annotates %+v", name, s, moved, p.Volumes())
		}
	})
}

// FuzzPlanBacked replays FuzzPlan's valid requests on backed contexts with
// real data, at most three tiles per dimension and with scalars folded
// into (-4, 4). A backed run and a timing-only replay of the plan must fire
// the identical sequence, every op's window must lie inside its operand or
// staging slot, and the outputs must match a host reference: the naive
// BLAS for the gemm family, gemv and axpy, and a residual check for
// potrf, getrf and trsm.
func FuzzPlanBacked(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, routine uint8, m, n, k, T int8, locMask, flags uint8, alpha, beta float64) {
		name, s := decodeShape(routine, m, n, k, T, locMask, flags, alpha, beta)
		if !validShape(name, s) {
			return
		}
		if s.T > 0 {
			s.m, s.n, s.k = min(s.m, 3*s.T), min(s.n, 3*s.T), min(s.k, 3*s.T)
		}
		s.alpha, s.beta = foldScalar(s.alpha), foldScalar(s.beta)
		build := func(c *Context) (*plan.Plan, []plan.Arg) { return planArgs(t, c, buildReq(t, c, name, s)) }

		ref, p, args := replayOnce(t, true, build)
		got, _, _ := replayOnce(t, false, build)
		checkSameTrace(t, name, ref, got)
		checkWindows(t, name, p, args)
		_, inputs := build(newCtx(true)) // the same operands, untouched
		checkOutputs(t, name, s, p.Dtype, inputs, args)
	})
}

// foldScalar maps a fuzzed scalar into (-4, 4), keeping its sign; NaN and
// infinities become 1.
func foldScalar(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	return math.Mod(x, 4)
}

// refWindow is a kernel operand reference and the rows x cols window it
// addresses.
type refWindow struct {
	r          plan.Ref
	rows, cols int32
}

// kernelWindows lists a kernel op's operand windows.
func kernelWindows(o *plan.Op) []refWindow {
	type w = refWindow
	flip := func(trans byte, r, c int32) (int32, int32) {
		if trans == blas.Trans {
			return c, r
		}
		return r, c
	}
	switch o.Kernel {
	case plan.KGemm:
		ar, ac := flip(o.TransA, o.M, o.K)
		br, bc := flip(o.TransB, o.K, o.N)
		return []w{{o.A, ar, ac}, {o.B, br, bc}, {o.C, o.M, o.N}}
	case plan.KGemv:
		return []w{{o.A, o.M, o.N}, {o.B, o.N, 1}, {o.C, o.M, 1}}
	case plan.KAxpy:
		return []w{{o.A, o.N, 1}, {o.C, o.N, 1}}
	case plan.KPotrf, plan.KGetrf:
		return []w{{o.A, o.N, o.N}}
	case plan.KTrsm:
		an := o.M
		if o.Side == blas.Right {
			an = o.N
		}
		return []w{{o.A, an, an}, {o.B, o.M, o.N}}
	case plan.KSyrk:
		ar, ac := flip(o.TransA, o.N, o.K)
		return []w{{o.A, ar, ac}, {o.C, o.N, o.N}}
	}
	return nil // dispatch
}

// checkWindows fails unless every transfer's host window lies inside its
// bound operand and its slot window inside the staging slot, and every
// kernel operand's window inside its operand or slot.
func checkWindows(t *testing.T, name string, p *plan.Plan, args []plan.Arg) {
	t.Helper()
	// inArg reports whether a rows x cols window at (row, col) lies inside
	// bound operand a.
	inArg := func(a plan.Arg, row, col, rows, cols int32) bool {
		if row < 0 || col < 0 {
			return false
		}
		if a.Vec != nil {
			return col == 0 && cols == 1 && int(row+rows) <= a.Vec.N
		}
		return int(row+rows) <= a.Mat.Rows && int(col+cols) <= a.Mat.Cols
	}
	for i := range p.Ops {
		o := &p.Ops[i]
		ok := true
		switch o.Kind {
		case plan.OpFetch, plan.OpWriteback:
			elems := p.Slots[o.Slot].Elems
			if o.N == 0 {
				ok = inArg(args[o.A.Arg], o.A.Row, 0, o.M, 1) && o.K >= 0 && int64(o.K)+int64(o.M) <= elems
			} else {
				ok = inArg(args[o.A.Arg], o.A.Row, o.A.Col, o.M, o.N) && int64(o.M)*int64(o.N) <= elems
			}
		case plan.OpKernel:
			for _, w := range kernelWindows(o) {
				if w.r.Slot < 0 {
					ok = ok && inArg(args[w.r.Arg], w.r.Row, w.r.Col, w.rows, w.cols)
					continue
				}
				// A slot ref's Row is the leading dimension (0 for a
				// vector) and its Col the element offset.
				ld, end := int64(w.r.Row), int64(w.r.Col)+int64(w.rows)*int64(w.cols)
				if ld > 0 {
					end = int64(w.r.Col) + int64(w.cols-1)*ld + int64(w.rows)
				}
				ok = ok && (ld == 0 || int64(w.rows) <= ld) && end <= p.Slots[w.r.Slot].Elems
			}
		}
		if !ok {
			t.Fatalf("%s: op %d window outside its operand or slot:\n%s", name, i, p.Dump())
		}
	}
}

// argData returns an operand's elements as float64, column-major at its
// own row count (every fuzzed operand is packed).
func argData(a plan.Arg) []float64 {
	var f64 []float64
	var f32 []float32
	switch {
	case a.Vec != nil && a.Vec.Dev != nil:
		f64 = a.Vec.Dev.F64()
	case a.Vec != nil:
		f64 = a.Vec.HostF64
	case a.Mat.Dev != nil:
		f64, f32 = a.Mat.Dev.F64(), a.Mat.Dev.F32()
	default:
		f64, f32 = a.Mat.HostF64, a.Mat.HostF32
	}
	out := append([]float64(nil), f64...)
	for _, v := range f32 {
		out = append(out, float64(v))
	}
	return out
}

// checkOutputs compares a backed run's output operand with a host
// reference computed from the untouched inputs: the output itself for the
// gemm family, gemv and axpy, and the reconstructed input for the
// factorizations and the triangular solve. The tolerance is
// runGemmCombo's 1e-10 for float64 (1e-4 for float32), relative to the
// reference's magnitude.
func checkOutputs(t *testing.T, name string, s reqShape, dt kernelmodel.Dtype, inputs, args []plan.Arg) {
	t.Helper()
	in := make([][]float64, len(inputs))
	for i := range inputs {
		in[i] = argData(inputs[i])
	}
	out := argData(args[len(args)-1])
	want := append([]float64(nil), in[len(in)-1]...)
	norm := func(b byte) byte {
		if b == 0 {
			return blas.NoTrans
		}
		return b
	}
	switch name {
	case "gemm", "gemm-noreuse", "gemm-cublasxt", "gemm-blasx", "syrk":
		tA, tB, M, N := norm(s.transA), norm(s.transB), s.m, s.n
		if name == "syrk" {
			tA, tB, M = norm(s.transA), blas.Trans, s.n
			if tA == blas.Trans {
				tB = blas.NoTrans
			}
		}
		lda, ldb := inputs[0].Mat.Rows, inputs[1].Mat.Rows
		if err := blas.GemmNaive(tA, tB, M, N, s.k, s.alpha, in[0], lda, in[1], ldb, s.beta, want, M); err != nil {
			t.Fatal(err)
		}
	case "gemv":
		if err := blas.Gemv(blas.NoTrans, s.m, s.n, s.alpha, in[0], s.m, in[1], 1, s.beta, want, 1); err != nil {
			t.Fatal(err)
		}
	case "axpy", "axpy-unified":
		if err := blas.Axpy(s.n, s.alpha, in[0], 1, want, 1); err != nil {
			t.Fatal(err)
		}
	case "cholesky", "lu":
		// Rebuild A from its factors: L*L^T (lower triangle) for Cholesky,
		// L*U with a unit-diagonal L for LU.
		n := s.n
		l := func(i, p int) float64 { // L[i][p]
			if name == "lu" && i == p {
				return 1
			}
			return out[i+p*n]
		}
		r := func(p, j int) float64 { // L^T[p][j] or U[p][j]
			if name == "lu" {
				return out[p+j*n]
			}
			return out[j+p*n]
		}
		rebuilt := append([]float64(nil), want...) // Cholesky leaves the upper triangle
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if name == "cholesky" && i < j {
					continue
				}
				sum := 0.0
				for p := 0; p <= min(i, j); p++ {
					sum += l(i, p) * r(p, j)
				}
				rebuilt[i+j*n] = sum
			}
		}
		out = rebuilt
	case "trsm":
		// A*X must reproduce alpha*B for the lower triangular A.
		m, n := s.m, s.n
		a := in[0]
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				want[i+j*m] *= s.alpha
			}
		}
		x := append([]float64(nil), out...)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				sum := 0.0
				for p := 0; p <= i; p++ {
					aip := a[i+p*m]
					if p == i && s.diag == blas.Unit {
						aip = 1
					}
					sum += aip * x[p+j*m]
				}
				out[i+j*m] = sum
			}
		}
	}
	checkClose(t, name, dt, out, want)
}

// checkClose fails unless got matches want elementwise within the dtype's
// tolerance relative to want's magnitude.
func checkClose(t *testing.T, name string, dt kernelmodel.Dtype, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d output elements, reference has %d", name, len(got), len(want))
	}
	scale := 1.0
	for _, v := range want {
		scale = max(scale, math.Abs(v))
	}
	tol := 1e-10
	if dt == kernelmodel.F32 {
		tol = 1e-4
	}
	if d := maxDiff(got, want); !(d <= tol*scale) {
		t.Fatalf("%s: output differs from the host reference by %g (tolerance %g)", name, d, tol*scale)
	}
}
