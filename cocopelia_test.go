package cocopelia

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"cocopelia/internal/blas"
	"cocopelia/internal/cudart"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/plan"
	"cocopelia/internal/sched"
)

// Deployment campaigns take a moment; share one library per configuration.
var (
	sharedOnce sync.Once
	sharedDep  *Deployment
)

func sharedDeployment(t *testing.T) *Deployment {
	t.Helper()
	sharedOnce.Do(func() {
		lib, err := Open(TestbedII(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		sharedDep = lib.Deployment()
	})
	return sharedDep
}

func openBacked(t *testing.T) *Library {
	t.Helper()
	lib, err := Open(TestbedII(), Options{Deployment: sharedDeployment(t), Backed: true})
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func openTiming(t *testing.T) *Library {
	t.Helper()
	lib, err := Open(TestbedII(), Options{Deployment: sharedDeployment(t)})
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(nil, Options{}); err == nil {
		t.Error("nil testbed should error")
	}
	bad := TestbedI()
	bad.GPU.PeakFlops64 = -1
	if _, err := Open(bad, Options{}); err == nil {
		t.Error("invalid testbed should error")
	}
}

func TestDgemmAutoTileFunctional(t *testing.T) {
	lib := openBacked(t)
	defer lib.Close()
	m, n, k := 96, 80, 64
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	c := make([]float64, m*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	// Reference via naive accumulation.
	ref := make([]float64, m*n)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += a[i+l*m] * b[l+j*k]
			}
			ref[i+j*m] = s
		}
	}
	res, err := lib.Dgemm(m, n, k, 1.0, HostMatrix(m, k, a), HostMatrix(k, n, b), 0.0, HostMatrix(m, n, c))
	if err != nil {
		t.Fatal(err)
	}
	if res.T <= 0 || res.Seconds <= 0 {
		t.Errorf("implausible result %+v", res)
	}
	for i := range ref {
		if math.Abs(c[i]-ref[i]) > 1e-10 {
			t.Fatalf("c[%d] = %g, want %g", i, c[i], ref[i])
		}
	}
}

func TestSgemmFunctional(t *testing.T) {
	lib := openBacked(t)
	defer lib.Close()
	n := 64
	a := make([]float32, n*n)
	c := make([]float32, n*n)
	for i := 0; i < n; i++ {
		a[i+i*n] = 2 // 2*I
	}
	res, err := lib.Sgemm(n, n, n, 1.0, HostMatrixF32(n, n, a), HostMatrixF32(n, n, a), 0.0, HostMatrixF32(n, n, c))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if c[i+i*n] != 4 {
			t.Fatalf("(2I)^2 diagonal wrong: %g", c[i+i*n])
		}
	}
	if res.Subkernels <= 0 {
		t.Error("no subkernels recorded")
	}
}

func TestDaxpyAutoTileFunctional(t *testing.T) {
	lib := openBacked(t)
	defer lib.Close()
	n := 1 << 20
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = 1
		y[i] = float64(i % 7)
	}
	res, err := lib.Daxpy(n, 3, HostVector(n, x), HostVector(n, y))
	if err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if y[i] != float64(i%7)+3 {
			t.Fatalf("y[%d] = %g", i, y[i])
		}
	}
	if res.T <= 0 {
		t.Error("no tile selected")
	}
}

func TestPartialOffloadDeviceResident(t *testing.T) {
	lib := openBacked(t)
	defer lib.Close()
	n := 64
	host := make([]float64, n*n)
	for i := 0; i < n; i++ {
		host[i+i*n] = 1 // identity
	}
	devA, err := lib.DeviceMatrix("dgemm", n, n, host)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n*n)
	for i := range b {
		b[i] = float64(i)
	}
	c := make([]float64, n*n)
	res, err := lib.Dgemm(n, n, n, 1, devA, HostMatrix(n, n, b), 0, HostMatrix(n, n, c))
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if c[i] != b[i] {
			t.Fatalf("I*B mismatch at %d", i)
		}
	}
	// A resides on the device and beta=0 skips the C fetch: only B
	// crosses h2d.
	if want := int64(n*n) * 8; res.BytesH2D != want {
		t.Errorf("h2d bytes = %d, want %d", res.BytesH2D, want)
	}
}

func TestDeviceRoundTrip(t *testing.T) {
	lib := openBacked(t)
	defer lib.Close()
	n := 32
	src := make([]float64, n*n)
	for i := range src {
		src[i] = float64(i)
	}
	dev, err := lib.DeviceMatrix("dgemm", n, n, src)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, n*n)
	if err := lib.ReadDeviceMatrix(dev, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
	if err := lib.ReadDeviceMatrix(HostMatrix(2, 2, nil), dst); err == nil {
		t.Error("reading a host matrix should error")
	}
}

// TestDeviceUploadChecksHostData pins the host-side checks of the
// synchronous device copies: a host slice of the wrong dtype or length is
// an error naming the copy, not a silent no-op or a panic in Sync, and a
// failed upload frees its buffer.
func TestDeviceUploadChecksHostData(t *testing.T) {
	lib := openBacked(t)
	defer lib.Close()
	used := lib.rt.Device().MemUsed()
	if _, err := lib.DeviceMatrix("sgemm", 2, 2, []float64{1, 2, 3, 4}); err == nil || !strings.Contains(err.Error(), "h2d") {
		t.Errorf("float64 data into an sgemm matrix: error %v, want an h2d error", err)
	}
	if _, err := lib.DeviceVector(8, []float64{1, 2, 3, 4}); err == nil || !strings.Contains(err.Error(), "h2d of 8") {
		t.Errorf("4 elements into an 8-element vector: error %v, want an h2d error", err)
	}
	if got := lib.rt.Device().MemUsed(); got != used {
		t.Errorf("failed uploads left %d bytes allocated, want %d", got, used)
	}
	s, err := lib.DeviceMatrix("sgemm", 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.ReadDeviceMatrix(s, make([]float64, 4)); err == nil || !strings.Contains(err.Error(), "d2h") {
		t.Errorf("reading an sgemm matrix into float64: error %v, want a d2h error", err)
	}
}

// TestDeviceMatrixF32Sgemm stages float32 operands on the device: A and C
// are uploaded from []float32, a backed SgemmTile runs over 2x2 output
// tiles (k within one tile, so each element sums in blas.Sgemm's order),
// and C read back must equal blas.Sgemm bit for bit.
func TestDeviceMatrixF32Sgemm(t *testing.T) {
	lib := openBacked(t)
	defer lib.Close()
	const m, n, k, T = 64, 64, 32, 32
	rng := rand.New(rand.NewSource(5))
	randF32 := func(size int) []float32 {
		x := make([]float32, size)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		return x
	}
	a, b, c := randF32(m*k), randF32(k*n), randF32(m*n)
	want := slices.Clone(c)
	if err := blas.Sgemm(blas.NoTrans, blas.NoTrans, m, n, k, 1.5, a, m, b, k, 0.5, want, m); err != nil {
		t.Fatal(err)
	}
	da, err := lib.DeviceMatrixF32(m, k, a)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := lib.DeviceMatrixF32(m, n, c)
	if err != nil {
		t.Fatal(err)
	}
	back := make([]float32, m*k)
	if err := lib.ReadDeviceMatrixF32(da, back); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back, a) {
		t.Fatal("float32 device matrix did not round-trip")
	}
	if _, err := lib.SgemmTile(m, n, k, 1.5, da, HostMatrixF32(k, n, b), 0.5, dc, T); err != nil {
		t.Fatal(err)
	}
	got := make([]float32, m*n)
	if err := lib.ReadDeviceMatrixF32(dc, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("c[%d] = %v, blas.Sgemm %v", i, got[i], want[i])
		}
	}
	d, err := lib.DeviceMatrix("dgemm", 2, 2, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.ReadDeviceMatrixF32(d, make([]float32, 4)); !errors.Is(err, cudart.ErrHostSlice) {
		t.Errorf("reading a dgemm matrix into float32: error %v, want ErrHostSlice", err)
	}
}

// TestDeviceCopiesKeepStreams repeats uploads and readbacks: after the
// first, they must reuse the session's staging stream rather than add one
// stream per copy to the runtime, whose every Sync walks all streams.
func TestDeviceCopiesKeepStreams(t *testing.T) {
	lib := openBacked(t)
	defer lib.Close()
	data := []float64{1, 2, 3, 4}
	copies := func(n int) {
		for i := 0; i < n; i++ {
			v, err := lib.DeviceMatrix("dgemm", 2, 2, data)
			if err != nil {
				t.Fatal(err)
			}
			if err := lib.ReadDeviceMatrix(v, make([]float64, 4)); err != nil {
				t.Fatal(err)
			}
			if _, err := lib.DeviceVector(4, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	copies(1)
	first := lib.rt.NewStream().ID()
	copies(100)
	// The probes above and below create one stream each.
	if got := lib.rt.NewStream().ID(); got != first+1 {
		t.Errorf("next stream id %d after 100 more copies, want %d", got, first+1)
	}
}

func TestSelectionCachedAndPlausible(t *testing.T) {
	lib := openTiming(t)
	defer lib.Close()
	a := HostMatrix(8192, 8192, nil)
	s1, err := lib.SelectGemmTile("dgemm", 8192, 8192, 8192, a, a, a)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := lib.SelectGemmTile("dgemm", 8192, 8192, 8192, a, a, a)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("selection not cached/deterministic")
	}
	if s1.T < 256 || float64(s1.T) > 8192/1.5 {
		t.Errorf("selected tile %d outside feasible range", s1.T)
	}
	sv, err := lib.SelectAxpyTile(64<<20, HostVector(64<<20, nil), HostVector(64<<20, nil))
	if err != nil {
		t.Fatal(err)
	}
	if sv.T <= 0 || sv.T > 64<<20 {
		t.Errorf("axpy tile %d implausible", sv.T)
	}
}

func TestPredictModels(t *testing.T) {
	lib := openTiming(t)
	defer lib.Close()
	a := HostMatrix(8192, 8192, nil)
	var prev float64
	for i, kind := range []ModelKind{ModelBaseline, ModelDataLoc} {
		v, err := lib.Predict(kind, "dgemm", 8192, 8192, 8192, 2048, a, a, a)
		if err != nil {
			t.Fatal(err)
		}
		if v <= 0 {
			t.Errorf("%s prediction non-positive", kind)
		}
		if i == 1 && v > prev {
			t.Error("DataLoc should not exceed Baseline")
		}
		prev = v
	}
	if _, err := lib.Predict(ModelBTS, "dgemm", 8192, 8192, 8192, 2000, a, a, a); err == nil {
		t.Error("off-grid tile should error")
	}
}

func TestExplicitTileMatchesScheduler(t *testing.T) {
	lib := openTiming(t)
	defer lib.Close()
	a := HostMatrix(4096, 4096, nil)
	res, err := lib.DgemmTile(4096, 4096, 4096, 1, a, a, 1, a, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if res.T != 1024 {
		t.Errorf("explicit tile not honoured: %d", res.T)
	}
	if _, err := lib.DgemmTile(64, 64, 64, 1, a, a, 1, a, 0); err == nil {
		t.Error("T=0 should error on the explicit-tile API")
	}
	if _, err := lib.SgemmTile(64, 64, 64, 1, a, a, 1, a, -1); err == nil {
		t.Error("negative T should error")
	}
	if _, err := lib.DaxpyTile(64, 1, HostVector(64, nil), HostVector(64, nil), 0); err == nil {
		t.Error("daxpy T=0 should error")
	}
}

func TestTracedSession(t *testing.T) {
	lib, err := Open(TestbedII(), Options{Deployment: sharedDeployment(t), Traced: true})
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Close()
	a := HostMatrix(2048, 2048, nil)
	if _, err := lib.DgemmTile(2048, 2048, 2048, 1, a, a, 1, a, 512); err != nil {
		t.Fatal(err)
	}
	tr := lib.Trace()
	if tr == nil || len(tr.Intervals) == 0 {
		t.Fatal("trace empty")
	}
	if tr.OverlapFraction() <= 0 {
		t.Error("no overlap recorded")
	}
	if lib.Now() <= 0 {
		t.Error("virtual clock did not advance")
	}
}

func TestUntracedSessionHasNoTrace(t *testing.T) {
	lib := openTiming(t)
	defer lib.Close()
	if lib.Trace() != nil {
		t.Error("untraced session should have nil trace")
	}
}

func TestIterativeCallsReuseBuffers(t *testing.T) {
	lib := openTiming(t)
	defer lib.Close()
	a := HostMatrix(2048, 2048, nil)
	if _, err := lib.DgemmTile(2048, 2048, 2048, 1, a, a, 1, a, 512); err != nil {
		t.Fatal(err)
	}
	t1, err := lib.DgemmTile(2048, 2048, 2048, 1, a, a, 1, a, 512)
	if err != nil {
		t.Fatal(err)
	}
	if t1.Seconds <= 0 {
		t.Error("second call should still be measured")
	}
}

func TestSelectionModelOption(t *testing.T) {
	// A session opened with a different selection model must use it for
	// level-3 tile selection.
	btsLib, err := Open(TestbedII(), Options{
		Deployment:     sharedDeployment(t),
		SelectionModel: ModelBTS,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer btsLib.Close()
	drLib := openTiming(t)
	defer drLib.Close()

	A := HostMatrix(8192, 8192, nil)
	selBTS, err := btsLib.SelectGemmTile("dgemm", 8192, 8192, 8192, A, A, A)
	if err != nil {
		t.Fatal(err)
	}
	selDR, err := drLib.SelectGemmTile("dgemm", 8192, 8192, 8192, A, A, A)
	if err != nil {
		t.Fatal(err)
	}
	// The BTS model assumes per-sub-kernel transfers, so its predicted
	// time for the same tile must be higher than DR's.
	if selBTS.Predicted <= selDR.Predicted {
		t.Errorf("BTS selection predicted %g should exceed DR %g",
			selBTS.Predicted, selDR.Predicted)
	}
}

// TestFactorFailureIsolation pins failure isolation on backed factor
// calls: the tile factorization that fails is reported by its plan op id,
// kernel kind and tile, with the failing pivot or minor numbered in the
// whole matrix, wrapping the blas sentinel, and no op that depends on it
// runs, so the caller's matrix holds no NaN (the failed tile is never
// written back). The inputs are the 64x64 identity at T = 16 with
// A[40,40] set to 0 (LU: a zero pivot in diagonal tile 2) and to -1
// (Cholesky: not positive definite in diagonal tile 2).
func TestFactorFailureIsolation(t *testing.T) {
	const n, T = 64, 16
	cases := []struct {
		routine, kind string
		where         string // the tile and the global pivot or minor
		poison        float64
		sentinel      error
		call          func(lib *Library, a *Matrix) (Result, error)
		opts          func(a *Matrix) sched.Request
	}{
		{"lu", "getrf", "tile (2,2): blas: matrix is singular: zero pivot at 40", 0, blas.ErrSingular,
			func(lib *Library, a *Matrix) (Result, error) { return lib.DgetrfTile(n, a, T) },
			func(a *Matrix) sched.Request { return sched.LUOpts{Dtype: kernelmodel.F64, N: n, A: a, T: T} }},
		{"cholesky", "potrf", "tile (2,2): blas: matrix not positive definite: leading minor of order 41", -1, blas.ErrNotPositiveDefinite,
			func(lib *Library, a *Matrix) (Result, error) { return lib.DpotrfTile(n, a, T) },
			func(a *Matrix) sched.Request { return sched.CholeskyOpts{Dtype: kernelmodel.F64, N: n, A: a, T: T} }},
	}
	for _, tc := range cases {
		t.Run(tc.routine, func(t *testing.T) {
			lib := openBacked(t)
			defer lib.Close()
			a := make([]float64, n*n)
			for i := 0; i < n; i++ {
				a[i+i*n] = 1
			}
			a[40+40*n] = tc.poison
			m := HostMatrix(n, n, a)
			// The failing op is the factorization of diagonal tile 2: the
			// third tile-factorization kernel of the plan.
			p, err := lib.ctx.Plan(tc.opts(m))
			if err != nil {
				t.Fatal(err)
			}
			failing, seen := -1, 0
			for i, o := range p.Ops {
				if o.Kind == plan.OpKernel && (o.Kernel == plan.KGetrf || o.Kernel == plan.KPotrf) {
					if seen == 2 {
						failing = i
						break
					}
					seen++
				}
			}
			_, err = tc.call(lib, m)
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("err = %v, want one wrapping %v", err, tc.sentinel)
			}
			if want := fmt.Sprintf("plan op %d (%s) %s", failing, tc.kind, tc.where); !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					if math.IsNaN(a[i+j*n]) {
						t.Fatalf("caller's matrix holds NaN at row %d, col %d after the failed call", i, j)
					}
				}
			}
		})
	}
}

// TestAliasedOperandsRejected pins the aliasing check of backed calls: a
// Dgemm whose C shares host storage with A fails with
// sched.ErrAliasedOperands naming both, and writes nothing, while Dsyrk,
// which binds A twice but only reads it, and operands that share a backing
// array without overlapping still run.
func TestAliasedOperandsRejected(t *testing.T) {
	lib := openBacked(t)
	defer lib.Close()
	const n = 64
	store := make([]float64, 3*n*n)
	for i := range store {
		store[i] = float64(i % 7)
	}
	before := append([]float64(nil), store...)
	a := HostMatrix(n, n, store[:n*n])
	b := HostMatrix(n, n, store[n*n:2*n*n])
	c := HostMatrix(n, n, store[n*n/2:3*n*n/2]) // C's first half is A's second
	_, err := lib.DgemmTile(n, n, n, 1, a, b, 1, c, 32)
	if !errors.Is(err, sched.ErrAliasedOperands) {
		t.Fatalf("Dgemm with C over A: err = %v, want sched.ErrAliasedOperands", err)
	}
	if !strings.Contains(err.Error(), "C overlaps A") {
		t.Errorf("error %q does not name both operands", err)
	}
	if !slices.Equal(store, before) {
		t.Error("a rejected call wrote its operands")
	}
	if _, err := lib.DgemmTile(n, n, n, 1, a, b, 1, HostMatrix(n, n, store[2*n*n:]), 32); err != nil {
		t.Errorf("Dgemm on disjoint windows of one array: %v", err)
	}
	if _, err := lib.Dsyrk(blas.NoTrans, n, n, 1, a, 0, c); !errors.Is(err, sched.ErrAliasedOperands) {
		t.Errorf("Dsyrk with C over A: err = %v, want sched.ErrAliasedOperands", err)
	}
	if _, err := lib.Dsyrk(blas.NoTrans, n, n, 1, a, 0, HostMatrix(n, n, store[2*n*n:])); err != nil {
		t.Errorf("Dsyrk binding A twice: %v", err)
	}
}

// TestDpotrfNotPositiveDefiniteReturnsError pins the payload failure
// path: a non-SPD input must come back as an error wrapping
// blas.ErrNotPositiveDefinite and naming the routine, not a panic, and
// the library must stay usable for the next call.
func TestDpotrfNotPositiveDefiniteReturnsError(t *testing.T) {
	lib := openBacked(t)
	defer lib.Close()
	const n = 64
	identity := func() []float64 {
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			a[i+i*n] = 1
		}
		return a
	}
	bad := identity()
	bad[40+40*n] = -1
	_, err := lib.DpotrfTile(n, HostMatrix(n, n, bad), 16)
	if !errors.Is(err, blas.ErrNotPositiveDefinite) {
		t.Fatalf("non-SPD DpotrfTile: err = %v, want one wrapping blas.ErrNotPositiveDefinite", err)
	}
	if !strings.Contains(err.Error(), "cholesky") && !strings.Contains(err.Error(), "potrf") {
		t.Errorf("error %q does not name the routine", err)
	}
	good := identity()
	if _, err := lib.DpotrfTile(n, HostMatrix(n, n, good), 16); err != nil {
		t.Fatalf("SPD DpotrfTile after a failed call: %v", err)
	}
	if good[40+40*n] != 1 {
		t.Errorf("Cholesky of I: L[40,40] = %v, want 1", good[40+40*n])
	}
}
