package blas

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"cocopelia/internal/parallel"
)

// registeredFMA reports whether a fused kernel is registered for the
// dtype's list on this host.
func registeredFMA(reg []kernelSel) bool {
	for _, k := range reg {
		if k.policy == KernelFMA {
			return true
		}
	}
	return false
}

// resetKernels clears the one-time kernel resolution so a test can
// exercise the env-override pathway end to end; the cleanup re-clears it
// so later tests resolve from the restored environment.
func resetKernels(t *testing.T) {
	t.Helper()
	kernelOnce = sync.Once{}
	t.Cleanup(func() { kernelOnce = sync.Once{} })
}

// magBound64 returns the per-element magnitude bound of a gemm call:
// |beta||C0| + sum_l |alpha * op(A)[i,l] * op(B)[l,j]|, computed by the
// oracle over absolute values. The fused kernels' deviation from the
// exact oracle is a small k-scaled multiple of eps times this bound.
func magBound64(gc gemmCase, a []float64, lda int, b []float64, ldb int, c0 []float64, ldc int) []float64 {
	absv := func(x []float64) []float64 {
		y := make([]float64, len(x))
		for i, v := range x {
			y[i] = math.Abs(v)
		}
		return y
	}
	mag := absv(c0)
	if err := GemmNaive(gc.ta, gc.tb, gc.m, gc.n, gc.k, math.Abs(gc.alpha),
		absv(a), lda, absv(b), ldb, math.Abs(gc.beta), mag, ldc); err != nil {
		panic(err)
	}
	return mag
}

// ulpCheck64 asserts |got-ref| <= 4*(k+2)*eps*mag element-wise. Elements
// with zero magnitude must match exactly (a fused kernel cannot conjure
// a nonzero from zero terms).
func ulpCheck64(t *testing.T, tag string, k int, got, ref, mag []float64) {
	t.Helper()
	bound := 4 * float64(k+2) * 0x1p-52
	for i := range got {
		if diff := math.Abs(got[i] - ref[i]); diff > bound*mag[i] {
			t.Fatalf("%s: element %d outside ULP bound: got %v, oracle %v (|diff|=%g > %g)",
				tag, i, got[i], ref[i], diff, bound*mag[i])
		}
	}
}

// runFMACase64 checks one float64 configuration: the fused engine must be
// ULP-bounded against the oracle and bitwise identical across worker
// counts (the blocking schedule is partition-independent).
func runFMACase64(t *testing.T, gc gemmCase, pools []*parallel.Pool) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(gc.m)*2_000_003 + int64(gc.n)*1013 + int64(gc.k)))
	aRows, aCols := gc.m, gc.k
	if gc.ta == Trans {
		aRows, aCols = gc.k, gc.m
	}
	bRows, bCols := gc.k, gc.n
	if gc.tb == Trans {
		bRows, bCols = gc.n, gc.k
	}
	lda, ldb, ldc := aRows+gc.padA, bRows+gc.padB, gc.m+gc.padC
	if lda < 1 {
		lda = 1
	}
	if ldb < 1 {
		ldb = 1
	}
	a := randSlice(rng, max(1, lda*aCols))
	b := randSlice(rng, max(1, ldb*bCols))
	c0 := randSlice(rng, ldc*gc.n)

	ref := append([]float64(nil), c0...)
	if err := GemmNaive(gc.ta, gc.tb, gc.m, gc.n, gc.k, gc.alpha, a, lda, b, ldb, gc.beta, ref, ldc); err != nil {
		t.Fatalf("%s: oracle: %v", gc.name(), err)
	}
	mag := magBound64(gc, a, lda, b, ldb, c0, ldc)

	got := append([]float64(nil), c0...)
	if err := GemmPolicy(KernelFMA, gc.ta, gc.tb, gc.m, gc.n, gc.k, gc.alpha, a, lda, b, ldb, gc.beta, got, ldc); err != nil {
		t.Fatalf("%s: fma: %v", gc.name(), err)
	}
	ulpCheck64(t, gc.name(), gc.k, got, ref, mag)

	for _, p := range pools {
		cw := append([]float64(nil), c0...)
		if err := GemmParallelPolicy(p, KernelFMA, gc.ta, gc.tb, gc.m, gc.n, gc.k, gc.alpha, a, lda, b, ldb, gc.beta, cw, ldc); err != nil {
			t.Fatalf("%s: fma %d workers: %v", gc.name(), p.Workers(), err)
		}
		if i := bitsEqual64(cw, got); i >= 0 {
			t.Fatalf("%s: fma result not bitwise identical at %d workers (element %d: %v != %v)",
				gc.name(), p.Workers(), i, cw[i], got[i])
		}
	}
}

// TestGemmFMADifferentialULP64 sweeps the fused float64 kernel over all
// transpose combinations, odd-tail shapes (m, n, k not multiples of
// MR/NR/KC), alpha/beta edge cases and worker counts 1/2/8.
func TestGemmFMADifferentialULP64(t *testing.T) {
	if !registeredFMA(registered64) {
		t.Skip("no fused float64 kernel on this host")
	}
	pools := []*parallel.Pool{parallel.NewPool(1), parallel.NewPool(2), parallel.NewPool(8)}
	shapes := [][3]int{
		{1, 1, 1},                              // small-problem cutoff path
		{8, 4, 64},                             // exact multiples of the 8x4 tile
		{9, 5, 67},                             // one past every tile edge
		{gemmMC + 5, 3*gemmNR + 1, gemmKC + 3}, // ragged against MC/NR/KC
		{2*gemmMC - 7, 65, 2*gemmKC + 1},       // multi-block with k tail
		{37, 129, 40},
	}
	coeffs := []float64{0, 1, -0.5, 0.75}
	for _, ta := range []byte{NoTrans, Trans} {
		for _, tb := range []byte{NoTrans, Trans} {
			for si, sh := range shapes {
				for ci := range coeffs {
					gc := gemmCase{ta: ta, tb: tb, m: sh[0], n: sh[1], k: sh[2],
						alpha: coeffs[(si+ci)%len(coeffs)], beta: coeffs[ci],
						padA: si % 3, padB: (si + 1) % 3, padC: (si + 2) % 3}
					runFMACase64(t, gc, pools)
				}
			}
		}
	}
}

// TestGemmFMADifferentialULP32 is the float32 fused-kernel differential:
// ULP-bounded against the float32 oracle and bitwise across workers.
func TestGemmFMADifferentialULP32(t *testing.T) {
	if !registeredFMA(registered32) {
		t.Skip("no fused float32 kernel on this host")
	}
	pools := []*parallel.Pool{parallel.NewPool(2), parallel.NewPool(8)}
	shapes := [][3]int{
		{16, 4, 64}, // exact multiples of the 16x4 tile
		{17, 5, 67}, // odd tails
		{gemmMC + 9, 33, gemmKC + 5},
		{130, 129, 96},
	}
	type cfg struct{ ta, tb byte }
	for _, tt := range []cfg{{NoTrans, NoTrans}, {Trans, NoTrans}, {NoTrans, Trans}, {Trans, Trans}} {
		for si, sh := range shapes {
			m, n, k := sh[0], sh[1], sh[2]
			alpha, beta := float32(1.25), float32(-0.5)
			if si%2 == 1 {
				alpha, beta = 0.75, 0
			}
			rng := rand.New(rand.NewSource(int64(m)*31 + int64(si)))
			aRows, aCols := m, k
			if tt.ta == Trans {
				aRows, aCols = k, m
			}
			bRows, bCols := k, n
			if tt.tb == Trans {
				bRows, bCols = n, k
			}
			a := make([]float32, aRows*aCols)
			b := make([]float32, bRows*bCols)
			c0 := make([]float32, m*n)
			for i := range a {
				a[i] = float32(rng.NormFloat64())
			}
			for i := range b {
				b[i] = float32(rng.NormFloat64())
			}
			for i := range c0 {
				c0[i] = float32(rng.NormFloat64())
			}
			ref := append([]float32(nil), c0...)
			if err := GemmNaive(tt.ta, tt.tb, m, n, k, alpha, a, aRows, b, bRows, beta, ref, m); err != nil {
				t.Fatal(err)
			}
			// Magnitude bound over absolute values, in float32 like the data.
			absv := func(x []float32) []float32 {
				y := make([]float32, len(x))
				for i, v := range x {
					y[i] = float32(math.Abs(float64(v)))
				}
				return y
			}
			mag := absv(c0)
			if err := GemmNaive(tt.ta, tt.tb, m, n, k, float32(math.Abs(float64(alpha))),
				absv(a), aRows, absv(b), bRows, float32(math.Abs(float64(beta))), mag, m); err != nil {
				t.Fatal(err)
			}
			got := append([]float32(nil), c0...)
			if err := GemmPolicy(KernelFMA, tt.ta, tt.tb, m, n, k, alpha, a, aRows, b, bRows, beta, got, m); err != nil {
				t.Fatal(err)
			}
			bound := 4 * float64(k+2) * 0x1p-23
			for i := range got {
				if diff := math.Abs(float64(got[i]) - float64(ref[i])); diff > bound*float64(mag[i]) {
					t.Fatalf("%c%c m=%d n=%d k=%d: element %d outside ULP bound: got %v, oracle %v",
						tt.ta, tt.tb, m, n, k, i, got[i], ref[i])
				}
			}
			for _, p := range pools {
				cw := append([]float32(nil), c0...)
				if err := GemmParallelPolicy(p, KernelFMA, tt.ta, tt.tb, m, n, k, alpha, a, aRows, b, bRows, beta, cw, m); err != nil {
					t.Fatal(err)
				}
				if i := bitsEqual32(cw, got); i >= 0 {
					t.Fatalf("%c%c m=%d n=%d k=%d: fma float32 not bitwise identical at %d workers (element %d)",
						tt.ta, tt.tb, m, n, k, p.Workers(), i)
				}
			}
		}
	}
}

// TestSyrkPolicyFMA routes Syrk through the fused engine and checks the
// ULP bound against the exact Syrk result.
func TestSyrkPolicyFMA(t *testing.T) {
	if !registeredFMA(registered64) {
		t.Skip("no fused float64 kernel on this host")
	}
	rng := rand.New(rand.NewSource(41))
	n, k := 70, 65
	a := randSlice(rng, n*k)
	c0 := randSlice(rng, n*n)
	for _, trans := range []byte{NoTrans, Trans} {
		nn, kk := n, k
		ta, tb := NoTrans, Trans
		if trans == Trans {
			nn, kk = k, n
			ta, tb = Trans, NoTrans
		}
		gc := gemmCase{ta: ta, tb: tb, m: nn, n: nn, k: kk, alpha: 1.5, beta: -0.5}
		ref := append([]float64(nil), c0[:nn*nn]...)
		if err := GemmNaive(ta, tb, nn, nn, kk, 1.5, a, n, a, n, -0.5, ref, nn); err != nil {
			t.Fatal(err)
		}
		mag := magBound64(gc, a, n, a, n, c0[:nn*nn], nn)
		for _, p := range []*parallel.Pool{nil, parallel.NewPool(4)} {
			got := append([]float64(nil), c0[:nn*nn]...)
			if err := SyrkParallelPolicy(p, KernelFMA, trans, nn, kk, 1.5, a, n, -0.5, got, nn); err != nil {
				t.Fatal(err)
			}
			ulpCheck64(t, "syrk-fma", kk, got, ref, mag)
		}
	}
}

// TestGemmPolicyExactMatchesGemm pins that the explicit KernelExact
// policy is the same code path as the default entry points, bit for bit.
func TestGemmPolicyExactMatchesGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 100
	a := randSlice(rng, n*n)
	b := randSlice(rng, n*n)
	c0 := randSlice(rng, n*n)
	want := append([]float64(nil), c0...)
	if err := Gemm(NoTrans, Trans, n, n, n, 1.25, a, n, b, n, -0.5, want, n); err != nil {
		t.Fatal(err)
	}
	got := append([]float64(nil), c0...)
	if err := GemmPolicy(KernelExact, NoTrans, Trans, n, n, n, 1.25, a, n, b, n, -0.5, got, n); err != nil {
		t.Fatal(err)
	}
	if i := bitsEqual64(got, want); i >= 0 {
		t.Fatalf("GemmPolicy(KernelExact) differs from Gemm at element %d", i)
	}
}

// TestKernelResolution drives the pure resolver over every defined
// override value.
func TestKernelResolution(t *testing.T) {
	tab, err := resolveFromEnv("")
	if err != nil {
		t.Fatalf("empty override: %v", err)
	}
	if got := tab[slotF64Exact].policy; got != KernelExact {
		t.Errorf("f64 exact slot resolved to policy %v", got)
	}
	if registeredFMA(registered64) && tab[slotF64FMA].policy != KernelFMA {
		t.Errorf("f64 fma slot did not resolve to a fused kernel (got %q)", tab[slotF64FMA].name)
	}
	if !registeredFMA(registered64) && tab[slotF64FMA].name != tab[slotF64Exact].name {
		t.Errorf("without a fused kernel the fma slot must fall back to exact, got %q", tab[slotF64FMA].name)
	}

	tab, err = resolveFromEnv("generic")
	if err != nil {
		t.Fatalf("generic override: %v", err)
	}
	for i, sel := range tab {
		if sel.name != "generic" || sel.f64 != nil || sel.f32 != nil {
			t.Errorf("generic override slot %d resolved to %q", i, sel.name)
		}
	}

	tab, err = resolveFromEnv("exact")
	if err != nil {
		t.Fatalf("exact override: %v", err)
	}
	if tab[slotF64FMA].name != tab[slotF64Exact].name || tab[slotF32FMA].name != tab[slotF32Exact].name {
		t.Errorf("exact override must pin fma slots to the exact kernels")
	}

	tab, err = resolveFromEnv("fma")
	if registeredFMA(registered64) && registeredFMA(registered32) {
		if err != nil {
			t.Fatalf("fma override on an FMA host: %v", err)
		}
		for i, sel := range tab {
			if sel.policy != KernelFMA {
				t.Errorf("fma override slot %d resolved to policy %v (%q)", i, sel.policy, sel.name)
			}
		}
	} else if err == nil {
		t.Errorf("fma override without fused kernels must error")
	}

	if _, ok := kernelNamed(registered64, "neon"); !ok {
		if _, err := resolveFromEnv("neon"); err == nil || !strings.Contains(err.Error(), "arm64") {
			t.Errorf("neon override off arm64: want an error naming arm64, got %v", err)
		}
	}

	if _, err := resolveFromEnv("avx512wat"); err == nil ||
		!strings.Contains(err.Error(), KernelEnv) || !strings.Contains(err.Error(), "avx512wat") {
		t.Errorf("unknown override: want an error naming the variable and value, got %v", err)
	}
}

// TestKernelEnvPinEndToEnd exercises the env override through the real
// resolution path: an unknown value must fail the first Gemm call with a
// clear error, and a valid pin must change what SelectedKernel reports.
func TestKernelEnvPinEndToEnd(t *testing.T) {
	resetKernels(t)
	t.Setenv(KernelEnv, "definitely-not-a-kernel")
	n := 32
	a := make([]float64, n*n)
	c := make([]float64, n*n)
	err := Gemm(NoTrans, NoTrans, n, n, n, 1, a, n, a, n, 0, c, n)
	if err == nil || !strings.Contains(err.Error(), "definitely-not-a-kernel") {
		t.Fatalf("Gemm under an unknown kernel pin: want a clear error, got %v", err)
	}

	kernelOnce = sync.Once{}
	t.Setenv(KernelEnv, "generic")
	name, err := SelectedKernel[float64](KernelFMA)
	if err != nil || name != "generic" {
		t.Fatalf("generic pin: SelectedKernel = %q, %v", name, err)
	}
	if err := Gemm(NoTrans, NoTrans, n, n, n, 1, a, n, a, n, 0, c, n); err != nil {
		t.Fatalf("Gemm under generic pin: %v", err)
	}
}

// TestSelectedKernelNames sanity-checks the reported variant names on
// this host.
func TestSelectedKernelNames(t *testing.T) {
	exact, err := SelectedKernel[float64](KernelExact)
	if err != nil {
		t.Fatal(err)
	}
	// The AVX-512 exact kernel shadows the 4x4 AVX one exactly where ZMM
	// state exists.
	if hasAVX512() {
		if exact != "avx512" {
			t.Errorf("f64 exact kernel %q on an AVX-512 host: want avx512", exact)
		}
	} else if exact != "generic" && exact != "avx" {
		t.Errorf("f64 exact kernel %q: want generic or avx", exact)
	}
	if registeredFMA(registered64) {
		fma, err := SelectedKernel[float64](KernelFMA)
		if err != nil {
			t.Fatal(err)
		}
		if fma == exact {
			t.Errorf("f64 fma kernel resolved to the exact kernel %q on an FMA host", fma)
		}
	}
	// Exotic named float types always run the portable generic kernel.
	type myFloat float64
	name, err := SelectedKernel[myFloat](KernelFMA)
	if err != nil || name != "generic" {
		t.Errorf("named float type: SelectedKernel = %q, %v (want generic)", name, err)
	}
}

// TestExactKernelsMatchPortable drives every registered exact float64
// micro-kernel directly on packed panels, including the ones the
// registry shadows on this host (on an AVX-512 machine the 4x4 AVX kernel
// never resolves), against the portable Go kernels: microKernelTail over
// the full tile, plus microKernel4x4 for 4x4 tiles. Ragged tiles use
// zero-padded panels as packA/packB build them; the native kernel writes
// its full tile to scratch and the valid corner must match the tail
// kernel's. No tolerance: exact kernels are bitwise.
func TestExactKernelsMatchPortable(t *testing.T) {
	tested := 0
	for _, k := range registered64 {
		if k.policy != KernelExact || k.f64 == nil {
			continue
		}
		tested++
		rng := rand.New(rand.NewSource(int64(k.mr*100 + k.nr)))
		for _, kc := range []int{1, 2, 3, 7, gemmKC} {
			for _, mr := range []int{k.mr, k.mr - 1, 1} {
				for _, nr := range []int{k.nr, k.nr - 1, 1} {
					exactKernelCase(t, k, rng, kc, mr, nr)
				}
			}
		}
	}
	if hasAVX512() && tested < 2 {
		t.Errorf("AVX-512 host: %d exact kernels tested, want the avx512 and avx kernels", tested)
	}
}

// exactKernelCase checks one (kc, mr, nr) tile of kernel k: panels are
// packed k.mr x k.nr wide with rows >= mr and columns >= nr zero.
func exactKernelCase(t *testing.T, k kernelSel, rng *rand.Rand, kc, mr, nr int) {
	t.Helper()
	mrK, nrK := k.mr, k.nr
	ap := make([]float64, mrK*kc)
	bp := make([]float64, nrK*kc)
	for l := 0; l < kc; l++ {
		for i := 0; i < mr; i++ {
			ap[l*mrK+i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(20)-10)
		}
		for j := 0; j < nr; j++ {
			bp[l*nrK+j] = rng.NormFloat64()
		}
	}
	ldc := mrK + 3
	c0 := randSlice(rng, ldc*nrK)
	want := append([]float64(nil), c0...)
	microKernelTail(kc, mr, nr, mrK, nrK, ap, bp, want, ldc)
	if mr == 4 && nr == 4 && mrK == 4 && nrK == 4 {
		want4 := append([]float64(nil), c0...)
		microKernel4x4(kc, ap, bp, want4, ldc)
		if i := bitsEqual64(want4, want); i >= 0 {
			t.Fatalf("portable kernels disagree at kc=%d element %d", kc, i)
		}
	}
	got := append([]float64(nil), c0...)
	k.f64(kc, &ap[0], &bp[0], &got[0], ldc)
	for j := 0; j < nr; j++ {
		for i := 0; i < mr; i++ {
			if g, w := got[i+j*ldc], want[i+j*ldc]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s kc=%d tile %dx%d: c[%d,%d] = %v, portable kernel %v", k.name, kc, mr, nr, i, j, g, w)
			}
		}
	}
}

// TestGemmDispatchAllocs extends the steady-state zero-alloc gate to the
// registry dispatch path, for both policies.
func TestGemmDispatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool randomly drops Puts, so the packing buffers cannot pin 0 allocs")
	}
	n := 160
	rng := rand.New(rand.NewSource(13))
	a := randSlice(rng, n*n)
	b := randSlice(rng, n*n)
	c := make([]float64, n*n)
	for _, policy := range []KernelPolicy{KernelExact, KernelFMA} {
		_ = GemmPolicy(policy, NoTrans, NoTrans, n, n, n, 1, a, n, b, n, 0, c, n)
		allocs := testing.AllocsPerRun(5, func() {
			_ = GemmPolicy(policy, NoTrans, NoTrans, n, n, n, 1, a, n, b, n, 0, c, n)
		})
		if allocs > 0 {
			t.Errorf("steady-state GemmPolicy(%v) allocates %.1f objects/op, want 0", policy, allocs)
		}
	}
}

// TestKernelPolicyString pins the env-override spellings.
func TestKernelPolicyString(t *testing.T) {
	if KernelExact.String() != "exact" || KernelFMA.String() != "fma" {
		t.Errorf("policy strings: %q, %q", KernelExact, KernelFMA)
	}
	if s := KernelPolicy(7).String(); !strings.Contains(s, "7") {
		t.Errorf("out-of-range policy string %q", s)
	}
}
