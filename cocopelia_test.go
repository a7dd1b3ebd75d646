package cocopelia

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"cocopelia/internal/blas"
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
