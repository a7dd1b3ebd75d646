package blasx

import (
	"math"
	"math/rand"
	"testing"

	"cocopelia/internal/blas"
	"cocopelia/internal/cudart"
	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/operand"
	"cocopelia/internal/sched"
	"cocopelia/internal/sim"
)

func newLib(backed bool) *Library {
	eng := sim.New()
	dev := device.New(eng, machine.TestbedI(), 1, true)
	return New(cudart.New(dev), backed)
}

func TestTileFor(t *testing.T) {
	if TileFor(8192, 8192, 8192) != StaticT {
		t.Error("large problems use the static tile")
	}
	if TileFor(1024, 8192, 8192) != 1024 {
		t.Error("tile clamps to the smallest dimension")
	}
}

func TestGemmFunctional(t *testing.T) {
	l := newLib(true)
	m, n, k := 96, 80, 64
	rng := rand.New(rand.NewSource(1))
	hostA := make([]float64, m*k)
	hostB := make([]float64, k*n)
	hostC := make([]float64, m*n)
	for i := range hostA {
		hostA[i] = rng.NormFloat64()
	}
	for i := range hostB {
		hostB[i] = rng.NormFloat64()
	}
	ref := append([]float64(nil), hostC...)
	if err := blas.Dgemm(blas.NoTrans, blas.NoTrans, m, n, k, 1, hostA, m, hostB, k, 0, ref, m); err != nil {
		t.Fatal(err)
	}
	res, err := l.Gemm(GemmOpts{
		Dtype: kernelmodel.F64, M: m, N: n, K: k, Alpha: 1, Beta: 0,
		A: operand.HostMatrix(m, k, hostA),
		B: operand.HostMatrix(k, n, hostB),
		C: operand.HostMatrix(m, n, hostC),
	})
	if err != nil {
		t.Fatal(err)
	}
	var d float64
	for i := range ref {
		d = math.Max(d, math.Abs(hostC[i]-ref[i]))
	}
	if d > 1e-10 {
		t.Errorf("result differs by %g", d)
	}
	if res.T != 64 {
		t.Errorf("tile = %d, want clamp to 64", res.T)
	}
}

func TestStaticTileUsedForLargeProblem(t *testing.T) {
	l := newLib(false)
	m := 4096
	res, err := l.Gemm(GemmOpts{
		Dtype: kernelmodel.F64, M: m, N: m, K: m, Alpha: 1, Beta: 1,
		A: operand.HostMatrix(m, m, nil),
		B: operand.HostMatrix(m, m, nil),
		C: operand.HostMatrix(m, m, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.T != StaticT {
		t.Errorf("tile = %d, want %d", res.T, StaticT)
	}
	// Reuse-aware transfer volume.
	if want := int64(3*m*m) * 8; res.BytesH2D != want {
		t.Errorf("h2d = %d, want %d (reuse)", res.BytesH2D, want)
	}
}

func TestDispatchOverheadSlowsVsCoCoPeLia(t *testing.T) {
	// At the same tile size, BLASX's dispatch overhead must make it
	// slower than the plain CoCoPeLia scheduler.
	m := 4096
	runBlasx := func() float64 {
		l := newLib(false)
		res, err := l.Gemm(GemmOpts{
			Dtype: kernelmodel.F64, M: m, N: m, K: m, Alpha: 1, Beta: 1,
			A: operand.HostMatrix(m, m, nil),
			B: operand.HostMatrix(m, m, nil),
			C: operand.HostMatrix(m, m, nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	runCoco := func() float64 {
		eng := sim.New()
		dev := device.New(eng, machine.TestbedI(), 1, true)
		ctx := sched.NewContext(cudart.New(dev), false)
		res, err := ctx.Run(sched.GemmOpts{
			Dtype: kernelmodel.F64, M: m, N: m, K: m, Alpha: 1, Beta: 1,
			A: operand.HostMatrix(m, m, nil),
			B: operand.HostMatrix(m, m, nil),
			C: operand.HostMatrix(m, m, nil),
			T: StaticT,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	if b, c := runBlasx(), runCoco(); b <= c {
		t.Errorf("blasx (%g) should be slower than cocopelia at same T (%g)", b, c)
	}
}
