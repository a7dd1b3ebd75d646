// Package blasx holds the tests of the BLASX comparator, which runs as the
// scheduler request sched.GemmBlasxOpts.
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

func newCtx(backed bool) *sched.Context {
	dev := device.New(sim.New(), machine.TestbedI(), 1, true)
	return sched.NewContext(cudart.New(dev), backed)
}

// request is the BLASX comparator's gemm at its static tile size.
func request(m, n, k int, beta float64, a, b, c *operand.Matrix) sched.GemmBlasxOpts {
	return sched.GemmBlasxOpts{
		Dtype: kernelmodel.F64, M: m, N: n, K: k, Alpha: 1, Beta: beta,
		A: a, B: b, C: c, T: sched.BlasxTile(m, n, k),
	}
}

func TestTileFor(t *testing.T) {
	if sched.BlasxTile(8192, 8192, 8192) != sched.BlasxStaticT {
		t.Error("large problems use the static tile")
	}
	if sched.BlasxTile(1024, 8192, 8192) != 1024 {
		t.Error("tile clamps to the smallest dimension")
	}
}

func TestGemmFunctional(t *testing.T) {
	ctx := newCtx(true)
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
	res, err := ctx.Run(request(m, n, k, 0,
		operand.HostMatrix(m, k, hostA),
		operand.HostMatrix(k, n, hostB),
		operand.HostMatrix(m, n, hostC)))
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
	ctx := newCtx(false)
	m := 4096
	res, err := ctx.Run(request(m, m, m, 1,
		operand.HostMatrix(m, m, nil),
		operand.HostMatrix(m, m, nil),
		operand.HostMatrix(m, m, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if res.T != sched.BlasxStaticT {
		t.Errorf("tile = %d, want %d", res.T, sched.BlasxStaticT)
	}
	// Reuse-aware transfer volume.
	if want := int64(3*m*m) * 8; res.BytesH2D != want {
		t.Errorf("h2d = %d, want %d (reuse)", res.BytesH2D, want)
	}
}

func TestDispatchOverheadSlowsVsCoCoPeLia(t *testing.T) {
	// At the same tile size, BLASX's dispatch overhead must make it
	// slower than the plain CoCoPeLia scheduler, and the BLASX plan must
	// refuse to replay for the CoCoPeLia request (the routines differ).
	m := 4096
	req := request(m, m, m, 1,
		operand.HostMatrix(m, m, nil),
		operand.HostMatrix(m, m, nil),
		operand.HostMatrix(m, m, nil))
	blasx, err := newCtx(false).Run(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx := newCtx(false)
	coco, err := ctx.Run(sched.GemmOpts(req))
	if err != nil {
		t.Fatal(err)
	}
	if blasx.Seconds <= coco.Seconds {
		t.Errorf("blasx (%g) should be slower than cocopelia at same T (%g)", blasx.Seconds, coco.Seconds)
	}
	p, err := ctx.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Enqueue(p, sched.GemmOpts(req)); err == nil {
		t.Error("a BLASX plan replayed for the CoCoPeLia request")
	}
}
