package blas

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cocopelia/internal/parallel"
)

// Differential tests of the packed Trsm/Potrf/Getrf kernels against the
// retained unblocked oracles of ref_test.go: outputs must match bit for
// bit, including padding rows, the unreferenced triangle and the state
// left behind on failure.

// floatBits returns the bit pattern of x at its own precision.
func floatBits[F Float](x F) uint64 {
	if v, ok := any(x).(float32); ok {
		return uint64(math.Float32bits(v))
	}
	return math.Float64bits(float64(x))
}

// firstBitDiff returns the first index where got and want differ bitwise,
// or -1.
func firstBitDiff[F Float](got, want []F) int {
	for i := range got {
		if floatBits(got[i]) != floatBits(want[i]) {
			return i
		}
	}
	return -1
}

// triCase is one Trsm differential case: B is m x n stored with leading
// dimension m+padB, A is na x na stored with leading dimension na+padA.
type triCase struct {
	side, uplo, trans, diag byte
	m, n, padA, padB        int
	alpha                   float64
}

func (tc triCase) name() string {
	return fmt.Sprintf("%c%c%c%c/%dx%d/pad%d,%d/alpha=%g",
		tc.side, tc.uplo, tc.trans, tc.diag, tc.m, tc.n, tc.padA, tc.padB, tc.alpha)
}

// trsmOperands builds A and B for tc. The referenced triangle of A has a
// dominant diagonal so solutions stay finite; everything Trsm must not
// read (the other triangle, the padding rows) holds NaN, and B's padding
// rows hold a sentinel that must survive.
func trsmOperands[F Float](tc triCase, rng *rand.Rand) (a []F, lda int, b []F, ldb int) {
	na := tc.m
	if tc.side == Right {
		na = tc.n
	}
	lda, ldb = na+tc.padA, tc.m+tc.padB
	a = make([]F, lda*na)
	for j := 0; j < na; j++ {
		for i := 0; i < lda; i++ {
			switch {
			case i == j:
				a[i+j*lda] = F(2 + rng.Float64())
			case i < na && (tc.uplo == Upper) == (i < j):
				a[i+j*lda] = F(rng.NormFloat64() * 0.3)
			default:
				a[i+j*lda] = F(math.NaN())
			}
		}
	}
	b = make([]F, ldb*tc.n)
	for j := 0; j < tc.n; j++ {
		for i := 0; i < ldb; i++ {
			b[i+j*ldb] = F(rng.NormFloat64())
			if i >= tc.m {
				b[i+j*ldb] = -7.25
			}
		}
	}
	return a, lda, b, ldb
}

func runTrsmCase[F Float](t *testing.T, tc triCase, seed int64) {
	t.Helper()
	a, lda, b, ldb := trsmOperands[F](tc, rand.New(rand.NewSource(seed)))
	want := append([]F(nil), b...)
	if err := trsmRef(tc.side, tc.uplo, tc.trans, tc.diag, tc.m, tc.n, F(tc.alpha), a, lda, want, ldb); err != nil {
		t.Fatalf("%s: oracle: %v", tc.name(), err)
	}
	if err := Trsm(tc.side, tc.uplo, tc.trans, tc.diag, tc.m, tc.n, F(tc.alpha), a, lda, b, ldb); err != nil {
		t.Fatalf("%s: %v", tc.name(), err)
	}
	if i := firstBitDiff(b, want); i >= 0 {
		t.Fatalf("%s (%T): element %d = %v, oracle %v", tc.name(), b[0], i, b[i], want[i])
	}
}

// triSizes is the differential size matrix: m x n for Trsm; the factor
// tests use each distinct extent as a square order. The last rows put
// the triangle one short of, at and one past a left-looking block
// (trsmBlock), over several blocks with a ragged last one, and at the
// paper's 256 tile; {1, trsmBlock + 1} is a single packed row of B
// (unpadded, ldb = 1) against a two-block triangle on side Right.
var triSizes = [][2]int{{1, 1}, {2, 2}, {5, 5}, {7, 5}, {13, 9}, {64, 33}, {33, 64}, {131, 131},
	{trsmBlock - 1, trsmBlock + 1}, {trsmBlock, trsmBlock}, {trsmBlock + 1, trsmBlock - 1},
	{3*trsmBlock + 5, 3*trsmBlock + 5}, {256, 20}, {20, 256}, {1, trsmBlock + 1}}

func TestTrsmBitwiseDifferential(t *testing.T) {
	seed := int64(0)
	for _, side := range []byte{Left, Right} {
		for _, uplo := range []byte{Upper, Lower} {
			for _, trans := range []byte{NoTrans, Trans} {
				for _, diag := range []byte{NonUnit, Unit} {
					for _, sz := range triSizes {
						for _, pad := range [][2]int{{0, 0}, {3, 2}} {
							for _, alpha := range []float64{1, 0.75, 0} {
								seed++
								tc := triCase{side, uplo, trans, diag, sz[0], sz[1], pad[0], pad[1], alpha}
								runTrsmCase[float64](t, tc, seed)
								runTrsmCase[float32](t, tc, seed)
							}
						}
					}
				}
			}
		}
	}
}

// TestTrsmPanelTailsBitwise sweeps the right-hand-side count across the
// panel width trsmRHS: every width from a single side up to one past a
// full panel, and the tails of a second panel, so zero-filled unused lanes
// and ragged last panels are checked bit for bit on both sides.
func TestTrsmPanelTailsBitwise(t *testing.T) {
	seed := int64(5000)
	for _, w := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17} {
		for _, side := range []byte{Left, Right} {
			m, n := 11, w
			if side == Right {
				m, n = w, 11
			}
			for _, uplo := range []byte{Upper, Lower} {
				for _, trans := range []byte{NoTrans, Trans} {
					for _, diag := range []byte{NonUnit, Unit} {
						for _, alpha := range []float64{1, 0.75} {
							seed++
							tc := triCase{side, uplo, trans, diag, m, n, 2, 1, alpha}
							runTrsmCase[float64](t, tc, seed)
							runTrsmCase[float32](t, tc, seed)
						}
					}
				}
			}
		}
	}
}

// TestTrsmParallelBitwise splits the right-hand sides of every
// side/uplo/trans/diag combination over 1, 2 and 8 workers: side counts
// below, at and past one trsmRHS group and ragged multi-group counts,
// with a padded ldb, must match the oracle bit for bit at every width.
// The triangle orders straddle the left-looking block edges (trsmBlock),
// so every worker's seed rows and ragged last block are covered too.
func TestTrsmParallelBitwise(t *testing.T) {
	pools := []*parallel.Pool{parallel.NewPool(1), parallel.NewPool(2), parallel.NewPool(8)}
	seed := int64(9000)
	for _, k := range []int{37, trsmBlock - 1, trsmBlock, trsmBlock + 1, 3*trsmBlock + 5, 256} {
		for _, side := range []byte{Left, Right} {
			for _, uplo := range []byte{Upper, Lower} {
				for _, trans := range []byte{NoTrans, Trans} {
					for _, diag := range []byte{NonUnit, Unit} {
						for _, rhs := range []int{1, 7, 8, 9, 33, 130} {
							m, n := k, rhs
							if side == Right {
								m, n = rhs, k
							}
							seed++
							tc := triCase{side, uplo, trans, diag, m, n, 2, 3, 0.75}
							runTrsmParallelCase[float64](t, pools, tc, seed)
							runTrsmParallelCase[float32](t, pools, tc, seed)
						}
					}
				}
			}
		}
	}
}

func runTrsmParallelCase[F Float](t *testing.T, pools []*parallel.Pool, tc triCase, seed int64) {
	t.Helper()
	a, lda, b, ldb := trsmOperands[F](tc, rand.New(rand.NewSource(seed)))
	want := append([]F(nil), b...)
	if err := trsmRef(tc.side, tc.uplo, tc.trans, tc.diag, tc.m, tc.n, F(tc.alpha), a, lda, want, ldb); err != nil {
		t.Fatalf("%s: oracle: %v", tc.name(), err)
	}
	for _, p := range pools {
		got := append([]F(nil), b...)
		if err := TrsmParallel(p, tc.side, tc.uplo, tc.trans, tc.diag, tc.m, tc.n, F(tc.alpha), a, lda, got, ldb); err != nil {
			t.Fatalf("%s workers=%d: %v", tc.name(), p.Workers(), err)
		}
		if i := firstBitDiff(got, want); i >= 0 {
			t.Fatalf("%s (%T) workers=%d: element %d = %v, oracle %v", tc.name(), got[0], p.Workers(), i, got[i], want[i])
		}
	}
}

// factorOrders are the square orders of the factorization differentials.
func factorOrders() []int {
	seen := map[int]bool{}
	var ns []int
	for _, sz := range triSizes {
		for _, n := range sz {
			if !seen[n] {
				seen[n] = true
				ns = append(ns, n)
			}
		}
	}
	return ns
}

// spdOperand returns an n x n SPD matrix (M*M^T/n + I with dominant
// diagonal) with leading dimension n+pad. The triangle opposite uplo and
// the padding rows hold NaN: Potrf must neither read nor write them.
func spdOperand[F Float](uplo byte, n, pad int, rng *rand.Rand) ([]F, int) {
	lda := n + pad
	m := make([]float64, n*n)
	for i := range m {
		m[i] = rng.NormFloat64()
	}
	a := make([]F, lda*n)
	for j := 0; j < n; j++ {
		for i := 0; i < lda; i++ {
			if i >= n || (uplo == Lower && i < j) || (uplo == Upper && i > j) {
				a[i+j*lda] = F(math.NaN())
				continue
			}
			var s float64
			for k := 0; k < n; k++ {
				s += m[i+k*n] * m[j+k*n]
			}
			a[i+j*lda] = F(s / float64(n))
			if i == j {
				a[i+j*lda] += F(n)
			}
		}
	}
	return a, lda
}

// luOperand returns a diagonally dominant n x n matrix with leading
// dimension n+pad and NaN padding rows.
func luOperand[F Float](n, pad int, rng *rand.Rand) ([]F, int) {
	lda := n + pad
	a := make([]F, lda*n)
	for j := 0; j < n; j++ {
		for i := 0; i < lda; i++ {
			switch {
			case i >= n:
				a[i+j*lda] = F(math.NaN())
			case i == j:
				a[i+j*lda] = F(rng.Float64() - 0.5 + float64(n))
			default:
				a[i+j*lda] = F(rng.Float64() - 0.5)
			}
		}
	}
	return a, lda
}

// checkFactor runs kernel and oracle on copies of a and requires the same
// error (identity and text) and a bitwise-identical result.
func checkFactor[F Float](t *testing.T, tag string, a []F, kernel, oracle func([]F) error) {
	t.Helper()
	got, want := append([]F(nil), a...), append([]F(nil), a...)
	gotErr, wantErr := kernel(got), oracle(want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, oracle %v", tag, gotErr, wantErr)
	}
	if i := firstBitDiff(got, want); i >= 0 {
		t.Fatalf("%s (%T): element %d = %v, oracle %v", tag, got[0], i, got[i], want[i])
	}
}

// potrfCase runs Potrf inline and with each block's GEMM step on 2 and 8
// workers.
func potrfCase[F Float](t *testing.T, uplo byte, n, pad int, seed int64) {
	t.Helper()
	a, lda := spdOperand[F](uplo, n, pad, rand.New(rand.NewSource(seed)))
	for _, p := range []*parallel.Pool{nil, parallel.NewPool(2), parallel.NewPool(8)} {
		checkFactor(t, fmt.Sprintf("potrf %c n=%d lda=%d workers=%d", uplo, n, lda, p.Workers()), a,
			func(x []F) error { return PotrfParallel(p, uplo, n, x, lda) },
			func(x []F) error { return potrfRef(uplo, n, x, lda) })
	}
}

func getrfCase[F Float](t *testing.T, n, pad int, seed int64) {
	t.Helper()
	a, lda := luOperand[F](n, pad, rand.New(rand.NewSource(seed)))
	checkFactor(t, fmt.Sprintf("getrf n=%d lda=%d", n, lda), a,
		func(x []F) error { return Getrf(n, x, lda) },
		func(x []F) error { return getrfRef(n, x, lda) })
}

func TestPotrfBitwiseDifferential(t *testing.T) {
	seed := int64(100)
	for _, uplo := range []byte{Lower, Upper} {
		for _, n := range factorOrders() {
			for _, pad := range []int{0, 3} {
				seed++
				potrfCase[float64](t, uplo, n, pad, seed)
				potrfCase[float32](t, uplo, n, pad, seed)
			}
		}
	}
}

func TestGetrfBitwiseDifferential(t *testing.T) {
	seed := int64(200)
	for _, n := range factorOrders() {
		for _, pad := range []int{0, 3} {
			seed++
			getrfCase[float64](t, n, pad, seed)
			getrfCase[float32](t, n, pad, seed)
		}
	}
}

// TestPotrfFailureParity breaks the SPD property at leading minor j+1 and
// requires the oracle's error text and partially factored state. The
// trsmBlock cases fail in the second left-looking block, at its first
// column and inside it, after one seeded GEMM step.
func TestPotrfFailureParity(t *testing.T) {
	for _, uplo := range []byte{Lower, Upper} {
		for _, tc := range []struct{ n, j int }{{2, 0}, {9, 4}, {64, 37}, {131, 130},
			{3*trsmBlock + 5, trsmBlock}, {3*trsmBlock + 5, trsmBlock + 7}} {
			a, lda := spdOperand[float64](uplo, tc.n, 2, rand.New(rand.NewSource(int64(tc.n))))
			a[tc.j+tc.j*lda] = -1
			got := append([]float64(nil), a...)
			err := Potrf(uplo, tc.n, got, lda)
			if !errors.Is(err, ErrNotPositiveDefinite) {
				t.Fatalf("potrf %c n=%d: want ErrNotPositiveDefinite, got %v", uplo, tc.n, err)
			}
			if want := fmt.Sprintf("leading minor of order %d", tc.j+1); !strings.Contains(err.Error(), want) {
				t.Fatalf("potrf %c n=%d: error %q does not name %q", uplo, tc.n, err, want)
			}
			checkFactor(t, fmt.Sprintf("potrf %c n=%d fail@%d", uplo, tc.n, tc.j), a,
				func(x []float64) error { return Potrf(uplo, tc.n, x, lda) },
				func(x []float64) error { return potrfRef(uplo, tc.n, x, lda) })
		}
	}
}

// TestGetrfFailureParity makes row k a copy of row 0, so elimination step
// 0 zeroes it exactly and step k meets a zero pivot; the error index and
// the partially factored state must match the oracle.
func TestGetrfFailureParity(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{2, 0}, {13, 5}, {64, 40}} {
		a, lda := luOperand[float64](tc.n, 1, rand.New(rand.NewSource(int64(tc.n))))
		if tc.k == 0 {
			a[0] = 0
		} else {
			for j := 0; j < tc.n; j++ {
				a[tc.k+j*lda] = a[j*lda]
			}
		}
		err := Getrf(tc.n, append([]float64(nil), a...), lda)
		if !errors.Is(err, ErrSingular) {
			t.Fatalf("getrf n=%d: want ErrSingular, got %v", tc.n, err)
		}
		if want := fmt.Sprintf("zero pivot at %d", tc.k); !strings.Contains(err.Error(), want) {
			t.Fatalf("getrf n=%d: error %q does not name %q", tc.n, err, want)
		}
		checkFactor(t, fmt.Sprintf("getrf n=%d fail@%d", tc.n, tc.k), a,
			func(x []float64) error { return Getrf(tc.n, x, lda) },
			func(x []float64) error { return getrfRef(tc.n, x, lda) })
	}
}

// TestTriangularSteadyStateAllocs extends the zero-alloc gate of
// TestGemmSteadyStateAllocs to the pooled triangular and factor kernels
// at the paper's tile sizes.
func TestTriangularSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool randomly drops Puts, so the packing buffers cannot pin 0 allocs")
	}
	for _, n := range []int{256, 512} {
		triangularAllocs[float64](t, n)
		triangularAllocs[float32](t, n)
	}
}

func triangularAllocs[F Float](t *testing.T, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	spd, _ := spdOperand[F](Lower, n, 0, rng)
	lu, _ := luOperand[F](n, 0, rng)
	tri, _, b, _ := trsmOperands[F](triCase{side: Left, uplo: Lower, trans: NoTrans, diag: NonUnit, m: n, n: n, alpha: 1}, rng)
	work := make([]F, n*n)
	for _, c := range []struct {
		name string
		call func()
	}{
		{"TrsmLLNN", func() { copy(work, b); _ = Trsm(Left, Lower, NoTrans, NonUnit, n, n, 1, tri, n, work, n) }},
		{"TrsmRLTN", func() { copy(work, b); _ = Trsm(Right, Lower, Trans, NonUnit, n, n, 1, tri, n, work, n) }},
		{"Potrf", func() { copy(work, spd); _ = Potrf(Lower, n, work, n) }},
		{"Getrf", func() { copy(work, lu); _ = Getrf(n, work, n) }},
	} {
		c.call() // warm the pooled buffers
		if allocs := testing.AllocsPerRun(3, c.call); allocs > 0 {
			t.Errorf("steady-state %s n=%d (%T) allocates %.1f objects/op, want 0", c.name, n, work[0], allocs)
		}
	}
}
