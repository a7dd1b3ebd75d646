// Command cocomodel queries the CoCoPeLia prediction models directly: it
// prints every model's predicted offload time across the feasible tiling
// sizes for one problem, marks each model's arg-min selection, and shows
// the measured execution for reference.
//
// Examples:
//
//	cocomodel -routine dgemm -size 8192
//	cocomodel -routine dgemm -m 26112 -n 26112 -k 6656 -locs HHH -testbed I
//	cocomodel -routine daxpy -n 67108864 -locs HH
//
// -parallel N fans the deployment micro-benchmarks and the measured
// column across N workers (0 = all cores, 1 = serial); output is
// identical at any worker count.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"cocopelia/internal/cudart"
	"cocopelia/internal/device"
	"cocopelia/internal/eval"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/microbench"
	"cocopelia/internal/model"
	"cocopelia/internal/parallel"
	"cocopelia/internal/predictor"
	"cocopelia/internal/sched"
	"cocopelia/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cocomodel: ")
	testbed := flag.String("testbed", "II", "testbed: I or II")
	routine := flag.String("routine", "dgemm", "routine: dgemm, sgemm, daxpy, or (with -dump-plan) dpotrf, dgetrf, dtrsm")
	size := flag.Int("size", 8192, "square problem size (sets m=n=k)")
	m := flag.Int("m", 0, "gemm M (overrides -size)")
	n := flag.Int("n", 0, "gemm N / daxpy length (overrides -size)")
	k := flag.Int("k", 0, "gemm K (overrides -size)")
	locs := flag.String("locs", "HHH", "operand locations (gemm: ABC; daxpy: XY)")
	measure := flag.Bool("measure", true, "also run the simulated execution per tile")
	extended := flag.Bool("extended", false, "include the Werkhoven/ablation model variants")
	coarsen := flag.Int("coarsen", 4, "tile grid subsampling factor")
	par := flag.Int("parallel", 0, "simulation workers: 0 = all cores, 1 = serial")
	dumpPlan := flag.Int("dump-plan", 0, "print the tile plan for this tiling size and exit (no deployment)")
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

	p := eval.Problem{Routine: *routine, Dtype: kernelmodel.F64, M: M, N: N, K: K}
	if *routine == "sgemm" {
		p.Dtype = kernelmodel.F32
	}
	want := 3
	switch *routine {
	case "daxpy":
		want = 2
		p.M, p.K = 0, 0
	case "dpotrf", "dgetrf":
		// Square factorization: one operand, M follows N.
		want = 1
		p.M, p.K = p.N, 0
	case "dtrsm":
		// Triangular solve: A (M x M) and B (M x N).
		want = 2
		p.K = 0
	}
	if len(*locs) == 3 && want < 3 && *locs == "HHH" {
		// The default flag value; shrink it rather than demanding -locs for
		// the all-host case.
		*locs = "HHH"[:want]
	}
	if len(*locs) != want {
		log.Fatalf("-locs needs %d characters for %s", want, *routine)
	}
	for _, ch := range strings.ToUpper(*locs) {
		switch ch {
		case 'H':
			p.Locs = append(p.Locs, model.OnHost)
		case 'D':
			p.Locs = append(p.Locs, model.OnDevice)
		default:
			log.Fatalf("bad location %q", ch)
		}
	}

	if *dumpPlan > 0 {
		if err := dumpPlanText(tb, p, *dumpPlan); err != nil {
			log.Fatal(err)
		}
		return
	}
	switch *routine {
	case "dpotrf", "dgetrf", "dtrsm":
		log.Fatalf("%s supports -dump-plan only (the prediction table covers the benchmarked routines)", *routine)
	}

	// Progress goes to stderr so stdout carries only the prediction table.
	log.Printf("deploying on %s...", tb.Name)
	cfg := microbench.DefaultConfig()
	cfg.Workers = *par
	dep := microbench.Run(tb, cfg)
	pred := predictor.New(dep)
	runner := eval.NewRunner(tb)
	runner.Reps = 1

	prm := p.Params()
	sm, err := pred.SubModels(p.Routine, runner.FullKernelTime(p))
	if err != nil {
		log.Fatal(err)
	}

	kinds := model.Kinds()
	if *extended {
		kinds = append(kinds,
			model.WerkSerial, model.Werk2Way, model.Werk1Engine,
			model.AblBTSUnidir, model.AblDRInteger)
	}

	grid := microbench.GemmTileGrid()
	if *routine == "daxpy" {
		grid = microbench.AxpyTileGrid()
	}
	tiles := eval.SweepTiles(p, grid, *coarsen)
	if len(tiles) == 0 {
		log.Fatalf("no feasible tiles for %s", p.Name())
	}

	// Prefetch the measured column through the pool; the table below then
	// assembles from the warm cache in tile order.
	if *measure {
		cells := make([]eval.MeasureCell, len(tiles))
		for i, T := range tiles {
			cells[i] = eval.MeasureCell{Lib: eval.LibCoCoPeLia, P: p, T: T}
		}
		if err := runner.MeasureBatch(parallel.NewPool(*par), cells); err != nil {
			log.Fatal(err)
		}
	}

	// Header.
	fmt.Printf("\n%s on %s\n", p.Name(), tb.Name)
	fmt.Printf("%8s", "T")
	for _, kind := range kinds {
		fmt.Printf(" %12s", kind)
	}
	if *measure {
		fmt.Printf(" %12s", "measured")
	}
	fmt.Println()

	best := map[model.Kind]struct {
		T int
		v float64
	}{}
	for _, T := range tiles {
		fmt.Printf("%8d", T)
		for _, kind := range kinds {
			v, err := model.PredictExtended(kind, &prm, sm, T)
			if err != nil {
				fmt.Printf(" %12s", "-")
				continue
			}
			fmt.Printf(" %12.5f", v)
			if b, ok := best[kind]; !ok || v < b.v {
				best[kind] = struct {
					T int
					v float64
				}{T, v}
			}
		}
		if *measure {
			lib := eval.LibCoCoPeLia
			res, err := runner.Measure(lib, p, T)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %12.5f", res.Seconds)
		}
		fmt.Println()
	}

	fmt.Println("\narg-min selections:")
	for _, kind := range kinds {
		if b, ok := best[kind]; ok {
			fmt.Printf("  %-14s T=%-6d predicted %.5fs\n", kind, b.T, b.v)
		}
	}
}

// dumpPlanText builds the CoCoPeLia tile plan for the problem at tiling
// size T and prints its deterministic text form. The request comes from
// the eval runner's mapping, scalars included, and only the planner runs —
// no micro-benchmark deployment, no simulation — so the output is exactly
// what the scheduler would replay.
func dumpPlanText(tb *machine.Testbed, p eval.Problem, T int) error {
	rt := cudart.New(device.New(sim.New(), tb, 1, false))
	req, err := eval.Request(rt, eval.LibCoCoPeLia, p, T)
	if err != nil {
		return err
	}
	pl, err := sched.NewContext(rt, false).Plan(req)
	if err != nil {
		return err
	}
	fmt.Print(pl.Dump())
	return nil
}
