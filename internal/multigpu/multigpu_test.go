package multigpu

import (
	"math"
	"math/rand"
	"testing"

	"cocopelia/internal/blas"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/microbench"
	"cocopelia/internal/operand"
	"cocopelia/internal/predictor"
)

func TestPanelCols(t *testing.T) {
	cases := []struct {
		n, g, T int
		want    [][2]int
	}{
		{4096, 2, 1024, [][2]int{{0, 2048}, {2048, 2048}}},
		{4096, 4, 1024, [][2]int{{0, 1024}, {1024, 1024}, {2048, 1024}, {3072, 1024}}},
		// Uneven tile counts: 5 tiles over 2 GPUs -> 3 + 2.
		{5120, 2, 1024, [][2]int{{0, 3072}, {3072, 2048}}},
		// Ragged tail stays within n.
		{5000, 2, 1024, [][2]int{{0, 3072}, {3072, 1928}}},
		// More GPUs than columns collapses.
		{100, 8, 64, [][2]int{{0, 64}, {64, 36}}},
	}
	for _, c := range cases {
		got := panelCols(c.n, c.g, c.T)
		if len(got) != len(c.want) {
			t.Errorf("panelCols(%d,%d,%d) = %v, want %v", c.n, c.g, c.T, got, c.want)
			continue
		}
		total := 0
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("panelCols(%d,%d,%d)[%d] = %v, want %v", c.n, c.g, c.T, i, got[i], c.want[i])
			}
			total += got[i][1]
		}
		if total != c.n {
			t.Errorf("panels cover %d of %d columns", total, c.n)
		}
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(machine.TestbedII(), 0, 1, false); err == nil {
		t.Error("zero GPUs should error")
	}
	bad := machine.TestbedII()
	bad.GPU.PeakFlops64 = 0
	if _, err := NewCluster(bad, 2, 1, false); err == nil {
		t.Error("invalid testbed should error")
	}
	cl, err := NewCluster(machine.TestbedII(), 2, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Size() != 2 || cl.Engine() == nil || cl.Runtime(0) == nil {
		t.Error("cluster accessors wrong")
	}
	A := operand.HostMatrix(64, 64, nil)
	cases := []GemmOpts{
		{Dtype: kernelmodel.F64, M: 0, N: 64, K: 64, A: A, B: A, C: A, T: 32},
		{Dtype: kernelmodel.F64, M: 64, N: 64, K: 64, A: A, B: A, C: A, T: 0},
		{Dtype: kernelmodel.F64, M: 64, N: 64, K: 64, A: nil, B: A, C: A, T: 32},
		{Dtype: kernelmodel.F64, M: 64, N: 32, K: 64, A: A, B: A, C: A, T: 32},
	}
	for i, opts := range cases {
		if _, err := cl.Gemm(opts); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMultiGPUFunctional(t *testing.T) {
	// Two GPUs computing one gemm must produce the reference result.
	cl, err := NewCluster(machine.TestbedI(), 2, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	m, n, k, T := 96, 112, 80, 32
	rng := rand.New(rand.NewSource(5))
	hostA := make([]float64, m*k)
	hostB := make([]float64, k*n)
	hostC := make([]float64, m*n)
	for i := range hostA {
		hostA[i] = rng.NormFloat64()
	}
	for i := range hostB {
		hostB[i] = rng.NormFloat64()
	}
	for i := range hostC {
		hostC[i] = rng.NormFloat64()
	}
	ref := append([]float64(nil), hostC...)
	if err := blas.Dgemm(blas.NoTrans, blas.NoTrans, m, n, k, 1.5, hostA, m, hostB, k, 0.5, ref, m); err != nil {
		t.Fatal(err)
	}
	res, err := cl.Gemm(GemmOpts{
		Dtype: kernelmodel.F64, M: m, N: n, K: k, Alpha: 1.5, Beta: 0.5,
		A: operand.HostMatrix(m, k, hostA),
		B: operand.HostMatrix(k, n, hostB),
		C: operand.HostMatrix(m, n, hostC),
		T: T,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if math.Abs(hostC[i]-ref[i]) > 1e-10 {
			t.Fatalf("c[%d] = %g, want %g", i, hostC[i], ref[i])
		}
	}
	if len(res.PerGPU) != 2 {
		t.Fatalf("expected 2 panels, got %d", len(res.PerGPU))
	}
	var kernels int64
	for _, r := range res.PerGPU {
		kernels += r.Subkernels
	}
	if want := int64(3 * 4 * 3); kernels != want { // ceil(96/32)*ceil(112/32)*ceil(80/32)
		t.Errorf("total subkernels = %d, want %d", kernels, want)
	}
}

func TestMultiGPUScaling(t *testing.T) {
	// Compute-heavy problem: 2 GPUs should approach 2x; 4 GPUs must not
	// be slower than 2.
	makespan := func(gpus int) float64 {
		cl, err := NewCluster(machine.TestbedII(), gpus, 7, false)
		if err != nil {
			t.Fatal(err)
		}
		m := 8192
		res, err := cl.Gemm(GemmOpts{
			Dtype: kernelmodel.F64, M: m, N: m, K: m, Alpha: 1, Beta: 1,
			A: operand.HostMatrix(m, m, nil),
			B: operand.HostMatrix(m, m, nil),
			C: operand.HostMatrix(m, m, nil),
			T: 2048,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	t1, t2, t4 := makespan(1), makespan(2), makespan(4)
	if s := t1 / t2; s < 1.4 || s > 2.05 {
		t.Errorf("2-GPU speedup %.2fx implausible (t1=%g t2=%g)", s, t1, t2)
	}
	if t4 > t2*1.02 {
		t.Errorf("4 GPUs (%g) slower than 2 (%g)", t4, t2)
	}
}

func TestMultiGPUMatchesSingleGPUScheduler(t *testing.T) {
	// A 1-GPU cluster must reproduce the plain scheduler's makespan.
	cl, err := NewCluster(machine.TestbedII(), 1, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	m := 4096
	res, err := cl.Gemm(GemmOpts{
		Dtype: kernelmodel.F64, M: m, N: m, K: m, Alpha: 1, Beta: 1,
		A: operand.HostMatrix(m, m, nil),
		B: operand.HostMatrix(m, m, nil),
		C: operand.HostMatrix(m, m, nil),
		T: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerGPU) != 1 || math.Abs(res.PerGPU[0].Seconds-res.Seconds) > 1e-9 {
		t.Errorf("1-GPU cluster result inconsistent: %+v", res)
	}
}

// TestRepeatedGemmKeepsStreams repeats one cluster gemm: every GPU's
// runtime must keep the streams it had after the first call, so the
// per-call drain callback reuses its context's stream instead of adding
// one per call.
func TestRepeatedGemmKeepsStreams(t *testing.T) {
	cl, err := NewCluster(machine.TestbedII(), 2, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	m := 1024
	opts := GemmOpts{
		Dtype: kernelmodel.F64, M: m, N: m, K: m, Alpha: 1, Beta: 1,
		A: operand.HostMatrix(m, m, nil),
		B: operand.HostMatrix(m, m, nil),
		C: operand.HostMatrix(m, m, nil),
		T: 512,
	}
	nextID := func() []int {
		var ids []int
		for i := 0; i < cl.Size(); i++ {
			ids = append(ids, cl.Runtime(i).NewStream().ID())
		}
		return ids
	}
	if _, err := cl.Gemm(opts); err != nil {
		t.Fatal(err)
	}
	first := nextID()
	for i := 0; i < 20; i++ {
		if _, err := cl.Gemm(opts); err != nil {
			t.Fatal(err)
		}
	}
	// Each probe above and below creates one stream per GPU.
	got := nextID()
	for i := range got {
		if got[i] != first[i]+1 {
			t.Errorf("GPU %d: next stream id %d after 20 more calls, want %d", i, got[i], first[i]+1)
		}
	}
}

func TestPredictAndSelect(t *testing.T) {
	dep := microbench.Run(machine.TestbedII(), microbench.DefaultConfig())
	pred := predictor.New(dep)
	sm, err := pred.SubModels("dgemm", 0)
	if err != nil {
		t.Fatal(err)
	}
	one, err := PredictDR(sm, "dgemm", 8, 8192, 8192, 8192, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	two, err := PredictDR(sm, "dgemm", 8, 8192, 8192, 8192, 2048, 2)
	if err != nil {
		t.Fatal(err)
	}
	if two >= one {
		t.Errorf("2-GPU prediction (%g) should beat 1-GPU (%g)", two, one)
	}
	if _, err := PredictDR(sm, "dgemm", 8, 64, 64, 64, 2048, 0); err == nil {
		t.Error("zero GPUs should error")
	}
	sel, err := SelectT(sm, "dgemm", 8, 16384, 16384, 16384, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sel.T <= 0 || sel.Predicted <= 0 {
		t.Errorf("selection implausible: %+v", sel)
	}
	if _, err := SelectT(sm, "dgemm", 8, 64, 64, 64, 2); err == nil {
		t.Error("tiny problem should have no candidates")
	}
}

func TestMultiGPUSelectionEndToEnd(t *testing.T) {
	// The cluster-aware selection should produce a measured makespan
	// within a reasonable band of its prediction.
	dep := microbench.Run(machine.TestbedII(), microbench.DefaultConfig())
	pred := predictor.New(dep)
	sm, err := pred.SubModels("dgemm", 0)
	if err != nil {
		t.Fatal(err)
	}
	const gpus = 2
	m := 8192
	sel, err := SelectT(sm, "dgemm", 8, m, m, m, gpus)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(machine.TestbedII(), gpus, 11, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Gemm(GemmOpts{
		Dtype: kernelmodel.F64, M: m, N: m, K: m, Alpha: 1, Beta: 1,
		A: operand.HostMatrix(m, m, nil),
		B: operand.HostMatrix(m, m, nil),
		C: operand.HostMatrix(m, m, nil),
		T: sel.T,
	})
	if err != nil {
		t.Fatal(err)
	}
	errPct := 100 * (sel.Predicted - res.Seconds) / res.Seconds
	if errPct < -40 || errPct > 40 {
		t.Errorf("cluster DR prediction off by %.1f%% (pred %g, meas %g)", errPct, sel.Predicted, res.Seconds)
	}
}
