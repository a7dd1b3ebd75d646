package sched

import (
	"math"
	"math/rand"
	"testing"

	"cocopelia/internal/blas"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/model"
)

func TestGemvFunctionalAllCombos(t *testing.T) {
	for _, combo := range model.LocCombos(3) {
		c := newCtx(true)
		m, n, T := 96, 80, 32
		rng := rand.New(rand.NewSource(21))
		hostA := randMat(rng, m, n)
		hostX := randMat(rng, n, 1)
		hostY := randMat(rng, m, 1)
		ref := append([]float64(nil), hostY...)
		if err := blas.Dgemv(blas.NoTrans, m, n, 1.5, hostA, m, hostX, 1, 0.5, ref, 1); err != nil {
			t.Fatal(err)
		}

		var A *Matrix
		if combo[0] == model.OnHost {
			A = &Matrix{Rows: m, Cols: n, Loc: model.OnHost, HostF64: hostA, HostLd: m}
		} else {
			A = deviceMatrix(t, c, m, n, hostA)
		}
		vec := func(nn int, host []float64, loc model.Loc) *Vector {
			if loc == model.OnHost {
				return &Vector{N: nn, Loc: model.OnHost, HostF64: host}
			}
			buf, err := c.rt.Malloc(kernelmodel.F64, int64(nn), true)
			if err != nil {
				t.Fatal(err)
			}
			s := c.rt.NewStream()
			if _, err := s.MemcpyH2DAsync(buf, 0, host, nil, int64(nn)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.rt.Sync(); err != nil {
				t.Fatal(err)
			}
			return &Vector{N: nn, Loc: model.OnDevice, Dev: buf}
		}
		x := vec(n, hostX, combo[1])
		y := vec(m, hostY, combo[2])

		res, err := c.Run(GemvOpts{M: m, N: n, Alpha: 1.5, Beta: 0.5, A: A, X: x, Y: y, T: T})
		if err != nil {
			t.Fatalf("combo %v: %v", combo, err)
		}
		got := hostY
		if combo[2] == model.OnDevice {
			got = make([]float64, m)
			s := c.rt.NewStream()
			if _, err := s.MemcpyD2HAsync(got, nil, y.Dev, 0, int64(m)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.rt.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if d := maxDiff(got, ref); d > 1e-10 {
			t.Errorf("combo %v: gemv differs by %g", combo, d)
		}
		// 3x3 tile grid.
		if res.Subkernels != 9 {
			t.Errorf("combo %v: %d subkernels, want 9", combo, res.Subkernels)
		}
	}
}

func TestGemvBetaZero(t *testing.T) {
	c := newCtx(true)
	m, n, T := 64, 48, 16
	rng := rand.New(rand.NewSource(22))
	hostA := randMat(rng, m, n)
	hostX := randMat(rng, n, 1)
	hostY := make([]float64, m)
	for i := range hostY {
		hostY[i] = math.NaN()
	}
	ref := make([]float64, m)
	if err := blas.Dgemv(blas.NoTrans, m, n, 1, hostA, m, hostX, 1, 0, ref, 1); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(GemvOpts{
		M: m, N: n, Alpha: 1, Beta: 0,
		A: &Matrix{Rows: m, Cols: n, Loc: model.OnHost, HostF64: hostA, HostLd: m},
		X: &Vector{N: n, Loc: model.OnHost, HostF64: hostX},
		Y: &Vector{N: m, Loc: model.OnHost, HostF64: hostY},
		T: T,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDiff(hostY, ref); d > 1e-10 {
		t.Errorf("beta=0 gemv differs by %g", d)
	}
	// beta=0: y never fetched, so h2d = A + x only.
	if want := int64(m*n+n) * 8; res.BytesH2D != want {
		t.Errorf("h2d = %d, want %d", res.BytesH2D, want)
	}
	if want := int64(m) * 8; res.BytesD2H != want {
		t.Errorf("d2h = %d, want %d", res.BytesD2H, want)
	}
}

func TestGemvVectorReuse(t *testing.T) {
	// x chunks are fetched once even though every tile row uses them.
	c := newCtx(false)
	m, n, T := 1024, 1024, 256
	res, err := c.Run(GemvOpts{
		M: m, N: n, Alpha: 1, Beta: 1,
		A: &Matrix{Rows: m, Cols: n, Loc: model.OnHost, HostLd: m},
		X: &Vector{N: n, Loc: model.OnHost},
		Y: &Vector{N: m, Loc: model.OnHost},
		T: T,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(m*n+n+m) * 8 // A once + x once + y once
	if res.BytesH2D != want {
		t.Errorf("h2d = %d, want %d (vector reuse)", res.BytesH2D, want)
	}
	if res.Subkernels != 16 {
		t.Errorf("subkernels = %d, want 16", res.Subkernels)
	}
}

func TestGemvValidation(t *testing.T) {
	c := newCtx(false)
	A := &Matrix{Rows: 64, Cols: 64, Loc: model.OnHost, HostLd: 64}
	x := &Vector{N: 64, Loc: model.OnHost}
	cases := []GemvOpts{
		{M: 0, N: 64, A: A, X: x, Y: x, T: 16},
		{M: 64, N: 64, A: A, X: x, Y: x, T: 0},
		{M: 64, N: 64, A: nil, X: x, Y: x, T: 16},
		{M: 64, N: 32, A: A, X: x, Y: x, T: 16}, // shape mismatch
		{M: 64, N: 64, A: A, X: &Vector{N: 32, Loc: model.OnHost}, Y: x, T: 16},
	}
	for i, opts := range cases {
		if _, err := c.Run(opts); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestGemvOverlap(t *testing.T) {
	// The pipelined makespan must beat transfers + compute serialized.
	c := newCtx(false)
	m := 16384
	res, err := c.Run(GemvOpts{
		M: m, N: m, Alpha: 1, Beta: 1,
		A: &Matrix{Rows: m, Cols: m, Loc: model.OnHost, HostLd: m},
		X: &Vector{N: m, Loc: model.OnHost},
		Y: &Vector{N: m, Loc: model.OnHost},
		T: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	// gemv is completely transfer-bound: a well-overlapped pipeline runs
	// within a few percent of the h2d volume alone, hiding compute and
	// write-backs entirely.
	tb := c.rt.Device().Testbed()
	h2dBound := float64(res.BytesH2D) / tb.H2D.BandwidthBps
	if res.Seconds < h2dBound {
		t.Errorf("makespan %g below the h2d lower bound %g", res.Seconds, h2dBound)
	}
	if res.Seconds > 1.05*h2dBound {
		t.Errorf("makespan %g should be within 5%% of the h2d bound %g (poor overlap)", res.Seconds, h2dBound)
	}
}
