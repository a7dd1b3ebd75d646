package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"cocopelia"
	"cocopelia/internal/blas"
	"cocopelia/internal/machine"
	"cocopelia/internal/microbench"
)

// backedReps is the number of passes over the backed calls; each call's
// timing field is the median of its passes.
const backedReps = 7

// backedSeed seeds the backed calls' inputs.
const backedSeed = 1

// backedCall is one functional facade call of the backed mode: its row key
// and its operand shapes (rows x cols, in argument order; the last operand
// is the one the call overwrites).
type backedCall struct {
	key    string
	shapes [][2]int
	run    func(l *cocopelia.Library, ops [][]float64) (cocopelia.Result, error)
}

// backedCalls is the call mix of the repository benchmark's functional
// workload: gemm, syrk and Cholesky at n = 512 and 1024 and a triangular
// solve at 512, every operand on the host, alpha = beta = 1.
func backedCalls() []backedCall {
	host := func(ops [][]float64, i, rows, cols int) *cocopelia.Matrix {
		return cocopelia.HostMatrix(rows, cols, ops[i])
	}
	gemm := func(n int) backedCall {
		return backedCall{fmt.Sprintf("dgemm/%d", n), [][2]int{{n, n}, {n, n}, {n, n}},
			func(l *cocopelia.Library, ops [][]float64) (cocopelia.Result, error) {
				return l.Dgemm(n, n, n, 1, host(ops, 0, n, n), host(ops, 1, n, n), 1, host(ops, 2, n, n))
			}}
	}
	syrk := func(n int) backedCall {
		return backedCall{fmt.Sprintf("dsyrk/%d", n), [][2]int{{n, n}, {n, n}},
			func(l *cocopelia.Library, ops [][]float64) (cocopelia.Result, error) {
				return l.Dsyrk(blas.NoTrans, n, n, 1, host(ops, 0, n, n), 1, host(ops, 1, n, n))
			}}
	}
	potrf := func(n int) backedCall {
		return backedCall{fmt.Sprintf("dpotrf/%d", n), [][2]int{{n, n}},
			func(l *cocopelia.Library, ops [][]float64) (cocopelia.Result, error) {
				return l.Dpotrf(n, host(ops, 0, n, n))
			}}
	}
	trsm := func(n int) backedCall {
		return backedCall{fmt.Sprintf("dtrsm/%d", n), [][2]int{{n, n}, {n, n}},
			func(l *cocopelia.Library, ops [][]float64) (cocopelia.Result, error) {
				return l.Dtrsm(blas.NonUnit, n, n, 1, host(ops, 0, n, n), host(ops, 1, n, n))
			}}
	}
	return []backedCall{gemm(512), gemm(1024), syrk(512), syrk(1024), potrf(512), potrf(1024), trsm(512)}
}

// backedInputs generates a call's operands from rng: uniform entries in
// [-1, 1), made symmetric with a dominant diagonal (hence positive
// definite) for dpotrf, and lower triangular with a dominant diagonal for
// dtrsm's A.
func backedInputs(rng *rand.Rand, c backedCall) [][]float64 {
	var ops [][]float64
	for _, s := range c.shapes {
		m := make([]float64, s[0]*s[1])
		for i := range m {
			m[i] = 2*rng.Float64() - 1
		}
		ops = append(ops, m)
	}
	a, n := ops[0], c.shapes[0][0]
	switch {
	case strings.HasPrefix(c.key, "dpotrf/"):
		for j := 0; j < n; j++ {
			for i := j + 1; i < n; i++ {
				a[j+i*n] = a[i+j*n]
			}
			a[j+j*n] = float64(n + 1)
		}
	case strings.HasPrefix(c.key, "dtrsm/"):
		for j := 0; j < n; j++ {
			for i := 0; i < j; i++ {
				a[i+j*n] = 0
			}
			a[j+j*n] = float64(n + 1)
		}
	}
	return ops
}

// digest hashes the Float64bits of x (FNV-1a over little-endian bytes),
// folded to 53 bits so that it is exact as a report field.
func digest(x []float64) float64 {
	h := uint64(14695981039346656037)
	for _, v := range x {
		u := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h = (h ^ u&0xff) * 1099511628211
			u >>= 8
		}
	}
	return float64(h & (1<<53 - 1))
}

// runBacked runs the backed call mix through one functional facade session
// on testbed II, backedReps passes over the calls in a fixed order, each
// call on a fresh copy of its seeded inputs. A row's exact fields are its
// first call's tile, sub-kernel count, bytes moved, simulated seconds and
// output digest; every later pass must reproduce the digest. Its timing
// field is the median wall time of one call.
func runBacked(smoke bool) (*report, error) {
	tb := machine.TestbedII()
	calls := backedCalls()
	if smoke {
		calls = calls[:1]
	}
	cfg := microbench.DefaultConfig()
	cfg.Workers = 1
	lib, err := cocopelia.Open(tb, cocopelia.Options{Deployment: microbench.Run(tb, cfg), Backed: true})
	if err != nil {
		return nil, err
	}
	defer lib.Close()

	rng := rand.New(rand.NewSource(backedSeed))
	pristine := make([][][]float64, len(calls))
	for i, c := range calls {
		pristine[i] = backedInputs(rng, c)
	}
	rep := &report{Mode: "backed", Testbed: tb.Name, MaxProcs: runtime.GOMAXPROCS(0), Reps: backedReps}
	walls := make([][]float64, len(calls))
	for pass := 0; pass < backedReps; pass++ {
		for i, c := range calls {
			ops := make([][]float64, len(pristine[i]))
			for j, m := range pristine[i] {
				ops[j] = append([]float64(nil), m...)
			}
			start := time.Now()
			res, err := c.run(lib, ops)
			wall := time.Since(start).Seconds()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.key, err)
			}
			walls[i] = append(walls[i], wall)
			exact := map[string]float64{
				"tile": float64(res.T), "subkernels": float64(res.Subkernels),
				"bytes_h2d": float64(res.BytesH2D), "bytes_d2h": float64(res.BytesD2H),
				"sim_seconds": res.Seconds, "digest": digest(ops[len(ops)-1]),
			}
			if pass == 0 {
				rep.Rows = append(rep.Rows, row{Key: c.key, Exact: exact})
				continue
			}
			if first := rep.Rows[i].Exact["digest"]; math.Float64bits(exact["digest"]) != math.Float64bits(first) {
				return nil, fmt.Errorf("%s: pass %d output digest %v, pass 0 %v", c.key, pass, exact["digest"], first)
			}
		}
	}
	for i := range rep.Rows {
		r := &rep.Rows[i]
		sort.Float64s(walls[i])
		n := len(walls[i])
		r.Timing = map[string]float64{"call": (walls[i][(n-1)/2] + walls[i][n/2]) / 2}
		e := r.Exact
		log.Printf("backed %-12s T=%-5.0f %4.0f kernels  sim %8.3f ms  median call %8.2f ms",
			r.Key, e["tile"], e["subkernels"], e["sim_seconds"]*1e3, r.Timing["call"]*1e3)
	}
	return rep, nil
}
