package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cocopelia/internal/parallel"
)

// bitsEqual64 reports bitwise equality of two float64 slices (NaN-safe,
// sign-of-zero-sensitive — stricter than any epsilon comparison).
func bitsEqual64(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func bitsEqual32(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// gemmCase is one differential configuration: the blocked engine (at
// several worker counts) must reproduce the GemmNaive oracle bit for bit.
type gemmCase struct {
	ta, tb      byte
	m, n, k     int
	alpha, beta float64
	// extra leading-dimension slack beyond the minimal stored rows.
	padA, padB, padC int
}

func (gc gemmCase) name() string {
	return fmt.Sprintf("%c%c_m%d_n%d_k%d_a%g_b%g_pad%d%d%d",
		gc.ta, gc.tb, gc.m, gc.n, gc.k, gc.alpha, gc.beta, gc.padA, gc.padB, gc.padC)
}

// runGemmCase checks blocked-vs-oracle and cross-worker-count bitwise
// equality for one configuration.
func runGemmCase(t *testing.T, gc gemmCase, pools []*parallel.Pool) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(gc.m)*1_000_003 + int64(gc.n)*1009 + int64(gc.k)))
	aRows, aCols := gc.m, gc.k
	if gc.ta == Trans {
		aRows, aCols = gc.k, gc.m
	}
	bRows, bCols := gc.k, gc.n
	if gc.tb == Trans {
		bRows, bCols = gc.n, gc.k
	}
	lda, ldb, ldc := aRows+gc.padA, bRows+gc.padB, gc.m+gc.padC
	a := randSlice(rng, lda*aCols)
	b := randSlice(rng, ldb*bCols)
	c0 := randSlice(rng, ldc*gc.n)

	ref := append([]float64(nil), c0...)
	if err := GemmNaive(gc.ta, gc.tb, gc.m, gc.n, gc.k, gc.alpha, a, lda, b, ldb, gc.beta, ref, ldc); err != nil {
		t.Fatalf("%s: oracle: %v", gc.name(), err)
	}

	got := append([]float64(nil), c0...)
	if err := Gemm(gc.ta, gc.tb, gc.m, gc.n, gc.k, gc.alpha, a, lda, b, ldb, gc.beta, got, ldc); err != nil {
		t.Fatalf("%s: blocked: %v", gc.name(), err)
	}
	if i := bitsEqual64(got, ref); i >= 0 {
		t.Fatalf("%s: blocked differs from oracle at %d: %v != %v", gc.name(), i, got[i], ref[i])
	}

	for _, p := range pools {
		cw := append([]float64(nil), c0...)
		if err := GemmParallel(p, gc.ta, gc.tb, gc.m, gc.n, gc.k, gc.alpha, a, lda, b, ldb, gc.beta, cw, ldc); err != nil {
			t.Fatalf("%s: %d workers: %v", gc.name(), p.Workers(), err)
		}
		if i := bitsEqual64(cw, ref); i >= 0 {
			t.Fatalf("%s: %d workers differ from oracle at %d: %v != %v",
				gc.name(), p.Workers(), i, cw[i], ref[i])
		}
	}
}

// TestGemmBlockedBitwiseTable sweeps the engine's edge geometry: all four
// transpose combinations, non-minimal leading dimensions, the BLAS
// fast-path alpha/beta sentinels, and ragged shapes that are not multiples
// of the micro-tile or cache-block sizes (including a case past the NC
// panel width and one past KC in the k dimension).
func TestGemmBlockedBitwiseTable(t *testing.T) {
	pools := []*parallel.Pool{parallel.NewPool(1), parallel.NewPool(2), parallel.NewPool(8)}
	shapes := [][3]int{
		{1, 1, 1},
		{3, 5, 2},
		{gemmMR, gemmNR, 7},
		{gemmMR + 1, gemmNR + 1, gemmKC + 1},
		{gemmMC - 1, 33, 40},
		{gemmMC + 3, gemmNR*8 + 2, gemmKC*2 + 5},
		{65, gemmNC + 9, 12}, // crosses the NC panel boundary
		{127, 129, 128},
	}
	coeffs := []float64{0, 1, -0.5}
	for _, ta := range []byte{NoTrans, Trans} {
		for _, tb := range []byte{NoTrans, Trans} {
			for si, sh := range shapes {
				// Rotate through the alpha/beta grid so the table stays
				// O(shapes) while every (alpha, beta) pair is exercised.
				for ci := range coeffs {
					alpha := coeffs[(si+ci)%len(coeffs)]
					beta := coeffs[ci]
					gc := gemmCase{ta: ta, tb: tb, m: sh[0], n: sh[1], k: sh[2],
						alpha: alpha, beta: beta, padA: si % 3, padB: (si + 1) % 3, padC: (si + 2) % 3}
					runGemmCase(t, gc, pools)
				}
			}
		}
	}
}

// TestGemmBlockedBitwiseFuzz drives random shapes, strides and
// coefficients through the differential harness.
func TestGemmBlockedBitwiseFuzz(t *testing.T) {
	pools := []*parallel.Pool{parallel.NewPool(2), parallel.NewPool(8)}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		gc := gemmCase{
			ta: NoTrans, tb: NoTrans,
			m: 1 + r.Intn(90), n: 1 + r.Intn(90), k: 1 + r.Intn(90),
			alpha: [4]float64{0, 1, -0.5, r.NormFloat64()}[r.Intn(4)],
			beta:  [4]float64{0, 1, -0.5, r.NormFloat64()}[r.Intn(4)],
			padA:  r.Intn(4), padB: r.Intn(4), padC: r.Intn(4),
		}
		if r.Intn(2) == 1 {
			gc.ta = Trans
		}
		if r.Intn(2) == 1 {
			gc.tb = Trans
		}
		runGemmCase(t, gc, pools)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestGemmBlockedFloat32 pins the portable micro-kernel path to its
// oracle, serial and at 2 and 8 workers, over every transpose pair and
// shapes ragged against the tile and the MC/KC blocks: for float32, and
// for a named float64 type, which runs the portable kernel on float64
// arithmetic.
func TestGemmBlockedFloat32(t *testing.T) {
	type named64 float64
	shapes := [][3]int{{67, 45, gemmKC + 9}, {17, 5, 67}, {gemmMC + 9, 33, gemmKC + 5}}
	for si, sh := range shapes {
		for _, ta := range []byte{NoTrans, Trans} {
			for _, tb := range []byte{NoTrans, Trans} {
				seed := int64(17 + si)
				portableGemmCase[float32](t, ta, tb, sh[0], sh[1], sh[2], seed)
				portableGemmCase[named64](t, ta, tb, sh[0], sh[1], sh[2], seed)
			}
		}
	}
}

// portableGemmCase checks one configuration of element type F against
// GemmNaive bit for bit, with alpha 1.25 and beta -0.5.
func portableGemmCase[F Float](t *testing.T, ta, tb byte, m, n, k int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fill := func(rows, cols int) []F {
		x := make([]F, rows*cols)
		for i := range x {
			x[i] = F(rng.NormFloat64())
		}
		return x
	}
	aRows, aCols := opDims(ta, m, k)
	bRows, bCols := opDims(tb, k, n)
	a, b, c0 := fill(aRows, aCols), fill(bRows, bCols), fill(m, n)
	ref := append([]F(nil), c0...)
	if err := GemmNaive(ta, tb, m, n, k, 1.25, a, aRows, b, bRows, -0.5, ref, m); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*parallel.Pool{nil, parallel.NewPool(2), parallel.NewPool(8)} {
		got := append([]F(nil), c0...)
		if err := GemmParallel(p, ta, tb, m, n, k, 1.25, a, aRows, b, bRows, -0.5, got, m); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Float64bits(float64(got[i])) != math.Float64bits(float64(ref[i])) {
				t.Fatalf("%T %c%c m=%d n=%d k=%d workers=%d: differs from oracle at %d: %v != %v",
					got[i], ta, tb, m, n, k, p.Workers(), i, got[i], ref[i])
			}
		}
	}
}

// TestSyrkParallelBitwise checks the Syrk routing through the engine.
func TestSyrkParallelBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n, k := 70, 33
	a := randSlice(rng, n*k)
	c0 := randSlice(rng, n*n)
	for _, trans := range []byte{NoTrans, Trans} {
		nn, kk := n, k
		if trans == Trans {
			nn, kk = k, n
		}
		ref := append([]float64(nil), c0[:nn*nn]...)
		ta, tb := NoTrans, Trans
		if trans == Trans {
			ta, tb = Trans, NoTrans
		}
		if err := GemmNaive(ta, tb, nn, nn, kk, 1.5, a, n, a, n, -0.5, ref, nn); err != nil {
			t.Fatal(err)
		}
		for _, p := range []*parallel.Pool{nil, parallel.NewPool(4)} {
			got := append([]float64(nil), c0[:nn*nn]...)
			if err := SyrkParallel(p, trans, nn, kk, 1.5, a, n, -0.5, got, nn); err != nil {
				t.Fatal(err)
			}
			if i := bitsEqual64(got, ref); i >= 0 {
				t.Fatalf("trans=%c workers=%d: differs at %d", trans, p.Workers(), i)
			}
		}
	}
}

// TestGemmBlockedBetaZeroOverwritesNaN pins the BLAS beta == 0 semantics
// on the blocked path (C must be overwritten, never multiplied).
func TestGemmBlockedBetaZeroOverwritesNaN(t *testing.T) {
	n := 40
	rng := rand.New(rand.NewSource(9))
	a := randSlice(rng, n*n)
	b := randSlice(rng, n*n)
	c := make([]float64, n*n)
	for i := range c {
		c[i] = math.NaN()
	}
	if err := Gemm(NoTrans, NoTrans, n, n, n, 1, a, n, b, n, 0, c, n); err != nil {
		t.Fatal(err)
	}
	for i, v := range c {
		if math.IsNaN(v) {
			t.Fatalf("c[%d] still NaN after beta=0 blocked gemm", i)
		}
	}
}

// TestGemmSteadyStateAllocs verifies the sync.Pool-backed packing buffers:
// after a warm-up call, serial blocked Gemm performs no allocations.
func TestGemmSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool randomly drops Puts, so the packing buffers cannot pin 0 allocs")
	}
	n := 160 // above the small-problem cutoff, ragged against MC/KC
	rng := rand.New(rand.NewSource(11))
	a := randSlice(rng, n*n)
	b := randSlice(rng, n*n)
	c := make([]float64, n*n)
	_ = Gemm(NoTrans, NoTrans, n, n, n, 1, a, n, b, n, 0, c, n)
	allocs := testing.AllocsPerRun(5, func() {
		_ = Gemm(NoTrans, NoTrans, n, n, n, 1, a, n, b, n, 0, c, n)
	})
	if allocs > 0 {
		t.Errorf("steady-state blocked Gemm allocates %.1f objects/op, want 0", allocs)
	}
}
