// Command cocorun executes a single BLAS routine invocation on a simulated
// testbed through any of the implemented libraries, with automatic or
// explicit tiling, and reports timing, traffic and (optionally) the engine
// timeline.
//
// Examples:
//
//	cocorun -routine dgemm -m 8192 -n 8192 -k 8192 -locs HHH
//	cocorun -routine dgemm -size 8192 -lib cublasxt -T 2048 -trace
//	cocorun -routine daxpy -n 67108864 -locs HH -lib unified
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"cocopelia/internal/blas"
	"cocopelia/internal/cudart"
	"cocopelia/internal/device"
	"cocopelia/internal/eval"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/microbench"
	"cocopelia/internal/model"
	"cocopelia/internal/operand"
	"cocopelia/internal/predictor"
	"cocopelia/internal/sched"
	"cocopelia/internal/sim"
	"cocopelia/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cocorun: ")
	testbed := flag.String("testbed", "II", "testbed: I or II")
	routine := flag.String("routine", "dgemm", "routine: dgemm, sgemm or daxpy")
	size := flag.Int("size", 8192, "square problem size (sets m=n=k)")
	m := flag.Int("m", 0, "gemm M (overrides -size)")
	n := flag.Int("n", 0, "gemm N / daxpy length (overrides -size)")
	k := flag.Int("k", 0, "gemm K (overrides -size)")
	locs := flag.String("locs", "HHH", "operand locations, H(ost)/D(evice) per operand (gemm: ABC; daxpy: XY)")
	lib := flag.String("lib", "cocopelia", "library: cocopelia, noreuse, cublasxt, blasx, unified")
	tile := flag.Int("T", 0, "tiling size (0 = automatic for cocopelia)")
	doTrace := flag.Bool("trace", false, "print the engine timeline")
	doVerify := flag.Bool("verify", false, "cross-check the blocked GEMM payload engine against the naive oracle and report its GFLOP/s")
	traceFile := flag.String("tracefile", "", "write the timeline as a Chrome/Perfetto trace JSON to this path")
	seed := flag.Int64("seed", 42, "measurement-noise seed")
	flag.Parse()

	tb, err := machine.ByName("Testbed " + strings.ToUpper(*testbed))
	if err != nil {
		log.Fatal(err)
	}
	M, N, K := *size, *size, *size
	if *m > 0 {
		M = *m
	}
	if *n > 0 {
		N = *n
	}
	if *k > 0 {
		K = *k
	}

	locVals, err := parseLocs(*locs, *routine)
	if err != nil {
		log.Fatal(err)
	}
	p := eval.Problem{Routine: *routine, Dtype: kernelmodel.F64, M: M, N: N, K: K, Locs: locVals}
	if *routine == "sgemm" {
		p.Dtype = kernelmodel.F32
	}
	if *routine == "daxpy" {
		p.M, p.K = 0, 0
	}

	// Automatic tile selection for the CoCoPeLia library. All progress and
	// phase reporting goes to stderr; stdout carries only the run report.
	var deployDur time.Duration
	T := *tile
	if T == 0 && (*lib == "cocopelia" || *lib == "noreuse") {
		log.Printf("deploying model on %s...", tb.Name)
		deployStart := time.Now()
		dep := microbench.Run(tb, microbench.DefaultConfig())
		pred := predictor.New(dep)
		prm := p.Params()
		kind := model.DR
		if *routine == "daxpy" {
			kind = model.BTS
		}
		sel, err := pred.Select(kind, &prm)
		if err != nil {
			log.Fatalf("tile selection: %v", err)
		}
		T = sel.T
		deployDur = time.Since(deployStart)
		log.Printf("selected T=%d (%s model predicts %.4fs)", T, kind, sel.Predicted)
	}
	if T == 0 && *lib != "blasx" && *lib != "unified" {
		log.Fatal("this library needs -T")
	}

	eng := sim.New()
	dev := device.New(eng, tb, *seed, false)
	var tr *trace.Trace
	if *doTrace || *traceFile != "" {
		tr = trace.Attach(dev)
	}
	rt := cudart.New(dev)

	simStart := time.Now()
	res, err := runOnce(rt, *lib, p, T)
	if err != nil {
		log.Fatal(err)
	}
	simDur := time.Since(simStart)

	var verifyDur time.Duration
	if *doVerify {
		verifyStart := time.Now()
		verifyPayloadEngine(T)
		verifyDur = time.Since(verifyStart)
	}
	log.Printf("phase timing: deploy %.3fs, simulate %.3fs, verify %.3fs (wall clock)",
		deployDur.Seconds(), simDur.Seconds(), verifyDur.Seconds())
	fmt.Printf("\n%s %s on %s\n", *lib, p.Name(), tb.Name)
	fmt.Printf("  time       %.6f s (virtual)\n", res.Seconds)
	if *routine != "daxpy" {
		fmt.Printf("  perf       %.0f GFLOP/s\n", res.Gflops(M, N, K))
	} else {
		fmt.Printf("  perf       %.1f GB/s effective\n", float64(res.BytesH2D+res.BytesD2H)/res.Seconds/1e9)
	}
	fmt.Printf("  tile       T=%d, %d sub-kernels\n", res.T, res.Subkernels)
	fmt.Printf("  traffic    h2d %.1f MiB, d2h %.1f MiB\n",
		float64(res.BytesH2D)/(1<<20), float64(res.BytesD2H)/(1<<20))
	if tr != nil && *doTrace {
		fmt.Println()
		fmt.Print(tr.Gantt(100))
		fmt.Printf("overlap: %.0f%% of the run had >=2 engines busy\n", 100*tr.OverlapFraction())
	}
	if tr != nil && *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote Chrome/Perfetto trace to %s", *traceFile)
	}
}

// verifyPayloadEngine cross-checks the blocked GEMM payload engine (the
// arithmetic behind every backed sub-kernel) against the naive oracle at
// one tile-sized problem, requiring bitwise equality, and logs the
// engine's wall-clock GFLOP/s to stderr.
func verifyPayloadEngine(tile int) {
	n := 1024
	if tile > 0 && tile < n {
		n = tile
	}
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	want := make([]float64, n*n)
	if err := blas.GemmNaive(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, 0, want, n); err != nil {
		log.Fatalf("verify: oracle: %v", err)
	}
	got := make([]float64, n*n)
	start := time.Now()
	if err := blas.Dgemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, 0, got, n); err != nil {
		log.Fatalf("verify: payload engine: %v", err)
	}
	elapsed := time.Since(start)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			log.Fatalf("verify: payload engine differs from oracle at element %d: %v != %v",
				i, got[i], want[i])
		}
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	log.Printf("verify: payload engine bitwise-matches oracle at n=%d (%.2f GFLOP/s)",
		n, flops/elapsed.Seconds()/1e9)
}

func parseLocs(s, routine string) ([]model.Loc, error) {
	want := 3
	if routine == "daxpy" {
		want = 2
	}
	if len(s) != want {
		return nil, fmt.Errorf("-locs needs %d characters for %s", want, routine)
	}
	out := make([]model.Loc, want)
	for i, ch := range strings.ToUpper(s) {
		switch ch {
		case 'H':
			out[i] = model.OnHost
		case 'D':
			out[i] = model.OnDevice
		default:
			return nil, fmt.Errorf("bad location %q (want H or D)", ch)
		}
	}
	return out, nil
}

// libs maps the -lib flag values onto the eval libraries.
var libs = map[string]eval.Lib{
	"cocopelia": eval.LibCoCoPeLia,
	"noreuse":   eval.LibNoReuse,
	"cublasxt":  eval.LibCuBLASXt,
	"blasx":     eval.LibBLASX,
	"unified":   eval.LibUnified,
}

// runOnce runs one repetition through the eval runner's library dispatch,
// but on a caller-supplied runtime so the trace attaches to the same
// device.
func runOnce(rt *cudart.Runtime, lib string, p eval.Problem, T int) (operand.Result, error) {
	l, ok := libs[lib]
	if !ok {
		return operand.Result{}, fmt.Errorf("unknown library %s", lib)
	}
	if l != eval.LibCoCoPeLia && l != eval.LibNoReuse {
		return eval.RunComparator(rt, l, p, T)
	}
	req, err := eval.Request(rt, l, p, T)
	if err != nil {
		return operand.Result{}, err
	}
	return sched.NewContext(rt, false).Run(req)
}
