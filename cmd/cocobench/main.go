// Command cocobench measures the wall-clock throughput of the simulator
// itself (not the simulated-GPU numbers the eval pipeline produces) in three
// modes:
//
//   - by default, the host BLAS payload engine (the blocked, packed GEMM and
//     TRSM of internal/blas) against the naive reference loop, per (routine,
//     size) — this bounds functional-verification turnaround;
//   - with -campaign, the discrete-event campaign pipeline over a
//     timing-only measurement sweep — this bounds how fast tables and
//     figures regenerate;
//   - with -factor, the tiled factorization planners (cholesky, lu, trsm)
//     over the task-graph IR, recording each cell's simulated makespan and
//     traffic plus the tile the library facade selects for each problem.
//
// Every mode writes one report schema: a header and rows, each row a key,
// exact fields, timing fields and labels (see row). Exact fields are
// simulated outcomes and counters, the same on every host; timing fields
// are wall-clock seconds, which do not carry from one host to another. The
// two gates split by field kind:
//
//   - -check FILE compares the exact fields of a fresh run with a committed
//     report, bit for bit, over the same set of rows. It prints the timings
//     but never fails on them, so it passes at any host speed.
//   - -against BASE runs the cocobench binary BASE and this one as fresh
//     child processes with the same mode flags, alternately, gateRuns times
//     each on this host, and fails if the median of any timing field is
//     slower than the base median by more than the paired bound. It
//     compares no exact fields: a change that alters the simulation on
//     purpose re-records the committed reports.
//
// Examples:
//
//	cocobench                              # default sizes, results/bench-blas.json
//	cocobench -sizes 256,512 -out /tmp/blas.json
//	cocobench -smoke                       # one tiny size, sanity + CI smoke
//	cocobench -campaign                    # DES sweep, results/bench-campaign.json
//	cocobench -campaign -passes 1 -check results/bench-campaign.json
//	cocobench -campaign -passes 2 -against /tmp/cocobench-base
//	cocobench -campaign -cpuprofile results/campaign.pprof
//	cocobench -factor -check results/bench-factor.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"maps"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"cocopelia"
	"cocopelia/internal/blas"
	"cocopelia/internal/eval"
	"cocopelia/internal/machine"
	"cocopelia/internal/microbench"
	"cocopelia/internal/parallel"
)

// report is the one schema of every cocobench output. The header says what
// ran where; Rows are in run order.
type report struct {
	Mode     string `json:"mode"`              // blas, campaign or factor
	Testbed  string `json:"testbed,omitempty"` // simulated testbed (campaign, factor)
	Arch     string `json:"arch,omitempty"`    // host GOARCH (blas)
	MaxProcs int    `json:"maxprocs"`
	GOGC     int    `json:"gogc,omitempty"` // pinned collector target (campaign)
	Reps     int    `json:"reps"`
	Rows     []row  `json:"rows"`
}

// row is one measured configuration, named by Key (e.g. campaign/callers=1,
// dgemm/512, dpotrf/4096/T=512, select/dgetrf/8192). Exact fields are
// simulated outcomes and counters; integer counters are exact in a float64
// up to 2^53. Timing fields are wall-clock seconds, lower is better. Labels
// describe the run, such as the BLAS kernel variant, and are never compared.
// Rates derived from these (cells/s, GFLOP/s) are printed, not recorded.
type row struct {
	Key    string             `json:"key"`
	Exact  map[string]float64 `json:"exact,omitempty"`
	Timing map[string]float64 `json:"timing,omitempty"`
	Labels map[string]string  `json:"labels,omitempty"`
}

const (
	// blasReps is the number of timed calls per BLAS row (best is kept).
	blasReps = 3
	// gateRuns is the number of runs of each build in a paired gate. On a
	// 2-vCPU host with a one-core busy loop beside it, a campaign phase
	// scatters over a third of its median from one process to the next, and
	// medians of fewer runs read below gateBound against the same build.
	gateRuns = 15
	// gateBound is the lowest base/head ratio of timing medians the paired
	// gate accepts: the working tree may be at most 1/0.85 = 1.18x slower.
	gateBound = 0.85
	// gateSlack is added to each limit, so that scheduler jitter on a field
	// of a few milliseconds (a campaign's plan_build phase, the BLAS calls
	// below n=1024) cannot fail it on its own. It dominates the bound only
	// for fields under about 20 ms.
	gateSlack = 0.005
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cocobench: ")
	out := flag.String("out", "", "output JSON path (default results/bench-MODE.json); with -against, a directory for every run's report")
	sizesFlag := flag.String("sizes", "256,512,1024,2048", "comma-separated square GEMM sizes")
	smoke := flag.Bool("smoke", false, "tiny work-list, for CI sanity")
	campaign := flag.Bool("campaign", false, "benchmark the DES campaign pipeline instead of the BLAS payload engine")
	factor := flag.Bool("factor", false, "sweep the tiled factorization planners (cholesky/lu/trsm) and record their simulated outcomes")
	passes := flag.Int("passes", 3, "campaign passes per measured row (fresh runner each, fastest pass of each timing kept)")
	check := flag.String("check", "", "compare the exact fields of this run with this committed report and fail on any difference")
	against := flag.String("against", "", "paired timing gate: run this base cocobench binary and this one alternately and fail on a slower timing median")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measured section to this path")
	memprofile := flag.String("memprofile", "", "write an allocation profile at exit to this path")
	flag.Parse()

	if *against != "" {
		if err := gate(*against, *out, childArgs()); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Fatal(err)
			}
		}()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	var base, rep *report
	var err error
	if *check != "" {
		if base, err = readReport(*check); err != nil {
			log.Fatal(err)
		}
	}
	switch {
	case *campaign:
		rep, err = runCampaign(*smoke, *passes)
	case *factor:
		rep, err = runFactor(*smoke)
	default:
		var sizes []int
		sizes, err = parseSizes(*sizesFlag)
		if err != nil {
			log.Fatal(err)
		}
		if *smoke {
			sizes = []int{128}
		}
		rep, err = runBlas(sizes)
	}
	if err != nil {
		log.Fatal(err)
	}

	if base != nil {
		if err := compare([]*report{base}, []*report{rep}, false); err != nil {
			log.Fatal(err)
		}
		log.Printf("check OK: %d rows, exact fields identical to %s", len(rep.Rows), *check)
		return
	}
	if *out == "" {
		*out = filepath.Join("results", "bench-"+rep.Mode+".json")
	}
	if err := writeJSON(*out, rep); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d rows)", *out, len(rep.Rows))
}

// runBlas measures the dtype x kernel-variant sweep of the payload engine.
func runBlas(sizes []int) (*report, error) {
	workers := runtime.GOMAXPROCS(0)
	pool := parallel.NewPool(workers)
	exact64, err := blas.SelectedKernel[float64](blas.KernelExact)
	if err != nil {
		return nil, err
	}
	fma64, err := blas.SelectedKernel[float64](blas.KernelFMA)
	if err != nil {
		return nil, err
	}
	exact32, err := blas.SelectedKernel[float32](blas.KernelExact)
	if err != nil {
		return nil, err
	}
	fma32, err := blas.SelectedKernel[float32](blas.KernelFMA)
	if err != nil {
		return nil, err
	}
	rep := &report{Mode: "blas", Arch: runtime.GOARCH, MaxProcs: workers, Reps: blasReps}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(7))
		a := randMat(rng, n)
		b := randMat(rng, n)
		c := make([]float64, n*n)
		a32, b32 := toF32(a), toF32(b)
		c32 := make([]float32, n*n)
		// The TRSM rows solve L*X = B for n right-hand sides with a
		// well-conditioned lower triangle L, restoring B before each solve.
		tri := lowerTriangle(a, n)

		gemmFlops := 2 * float64(n) * float64(n) * float64(n)
		trsmFlops := float64(n) * float64(n) * float64(n)
		// kernel names the micro-kernel variant that actually runs (naive,
		// generic, avx, avx512, fma-avx2, neon — see internal/blas/registry.go
		// — or solve8, the TRSM rows' eight-side substitution), so a report
		// records which numerics produced its timings.
		runs := []struct {
			routine string
			dtype   string
			kernel  string
			workers int
			flops   float64
			call    func() error
		}{
			{"dgemm-naive", "f64", "naive", 1, gemmFlops, func() error {
				return blas.GemmNaive(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, 0, c, n)
			}},
			{"dgemm", "f64", exact64, 1, gemmFlops, func() error {
				return blas.Dgemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, 0, c, n)
			}},
			{"dgemm-fma", "f64", fma64, 1, gemmFlops, func() error {
				return blas.GemmPolicy(blas.KernelFMA, blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, 0, c, n)
			}},
			{"dgemm-parallel", "f64", exact64, workers, gemmFlops, func() error {
				return blas.GemmParallel(pool, blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, 0, c, n)
			}},
			{"sgemm", "f32", exact32, 1, gemmFlops, func() error {
				return blas.Sgemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, a32, n, b32, n, 0, c32, n)
			}},
			{"sgemm-fma", "f32", fma32, 1, gemmFlops, func() error {
				return blas.GemmPolicy(blas.KernelFMA, blas.NoTrans, blas.NoTrans, n, n, n, 1, a32, n, b32, n, 0, c32, n)
			}},
			{"dtrsm", "f64", "solve8", 1, trsmFlops, func() error {
				copy(c, b)
				return blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.NonUnit, n, n, 1, tri, n, c, n)
			}},
			{"dtrsm-parallel", "f64", "solve8", workers, trsmFlops, func() error {
				copy(c, b)
				return blas.TrsmParallel(pool, blas.Left, blas.Lower, blas.NoTrans, blas.NonUnit, n, n, 1, tri, n, c, n)
			}},
		}
		for _, r := range runs {
			sec, err := bestCall(r.call)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d: %w", r.routine, n, err)
			}
			log.Printf("%-14s n=%-5d kernel=%-9s workers=%-2d %8.1f ms  %7.2f GFLOP/s",
				r.routine, n, r.kernel, r.workers, sec*1e3, r.flops/sec/1e9)
			rep.Rows = append(rep.Rows, row{
				Key:    fmt.Sprintf("%s/%d", r.routine, n),
				Timing: map[string]float64{"best_call": sec},
				Labels: map[string]string{"dtype": r.dtype, "kernel": r.kernel, "workers": strconv.Itoa(r.workers)},
			})
		}
	}
	return rep, nil
}

// campaignGOGC is the garbage-collection target percentage pinned for the
// campaign benchmark. The campaign's live heap is dominated by long-lived
// warm state (pooled simulation stacks, op/event free lists) that the default
// GOGC=100 re-marks many times per second on a single P; pinning a high
// target makes the measurement reflect simulation throughput rather than
// ambient GC policy, keeps runs comparable across environments, and bounds
// the peak heap at a few hundred MB. This is the BETWEEN-rows policy;
// inside a timed row collection is disabled outright and deferred to the
// row boundary (see runRow).
const campaignGOGC = 800

// runRow measures the work-list with callers goroutines, each measuring
// one cell at a time, and appends the row to rep. It runs passes
// independent cold runs (fresh runner each) and keeps each timing field's
// fastest pass. The simulated counters must be identical across passes — a fresh
// runner replays the same deterministic campaign — and a drift fails the
// run. Best-of-passes filters out interference from other processes sharing
// the machine's cores, which otherwise dominates the variance of a
// sub-second measurement.
//
// The phase timings split the wall time: plan builds (one per cell), plan
// replay onto the streams, event-queue advance, and everything else (operand
// setup plus the comparator libraries that run to completion internally).
// They are summed over the goroutines that run repetitions, so with a cell's
// repetitions fanned out their total can exceed the row's wall time. A row
// with more callers than GOMAXPROCS records no phases: there a goroutine
// waiting for a core is charged to whatever phase it is in, and the split
// swings several-fold from run to run with the scheduler.
func runRow(rep *report, tb *machine.Testbed, cells []eval.MeasureCell, callers, passes int) error {
	phases := callers <= runtime.GOMAXPROCS(0)
	var best row
	for pass := 0; pass < max(passes, 1); pass++ {
		r := eval.NewRunner(tb)
		if phases {
			r.Clock = time.Now
		}
		rep.Reps = r.Reps
		var pool *parallel.Pool
		if callers > 1 {
			pool = parallel.NewPool(callers)
		}
		// Collections happen between rows, never inside the timed region: the
		// pre-row GC shrinks the live set to a few MB, which would otherwise
		// reset the pacer goal low enough to guarantee one collection ~30MB
		// into the row. The second GC finishes the first one's concurrent
		// sweep so no lazy span sweeping lands in the measurement either. A
		// row-pass allocates a few hundred MB at most, so running it
		// collection-free is cheap insurance, not a memory risk.
		runtime.GC()
		runtime.GC()
		gcOff := debug.SetGCPercent(-1)
		start := time.Now()
		err := r.MeasureBatch(pool, cells)
		wall := time.Since(start).Seconds()
		debug.SetGCPercent(gcOff)
		if err != nil {
			return err
		}

		replays, builds, _ := r.PlanCacheStats()
		cur := row{
			Key: fmt.Sprintf("campaign/callers=%d", callers),
			Exact: map[string]float64{
				"cells": float64(len(cells)), "events": float64(r.EventsProcessed()),
				"plan_builds": float64(builds), "plan_replays": float64(replays),
			},
			Timing: map[string]float64{"wall": wall},
			Labels: map[string]string{"passes": strconv.Itoa(passes)},
		}
		if phases {
			t := cur.Timing
			t["plan_build"], t["enqueue"], t["advance"], t["other"] = r.PhaseSeconds()
		}
		if pass > 0 && !maps.Equal(cur.Exact, best.Exact) {
			return fmt.Errorf("campaign drift across passes at callers=%d: pass %d saw %v, pass 0 saw %v",
				callers, pass, cur.Exact, best.Exact)
		}
		if pass == 0 {
			best = cur
		}
		for f, v := range cur.Timing {
			best.Timing[f] = min(best.Timing[f], v)
		}
	}
	e, t := best.Exact, best.Timing
	log.Printf("%s: %d cells, %.0f events in %.2fs  (%.1f cells/s, %.3g events/s)",
		best.Key, len(cells), e["events"], t["wall"], e["cells"]/t["wall"], e["events"]/t["wall"])
	log.Printf("%s: plans %.0f replays / %.0f builds (%.0f%% replayed)",
		best.Key, e["plan_replays"], e["plan_builds"], 100*e["plan_replays"]/(e["plan_replays"]+e["plan_builds"]))
	if phases {
		log.Printf("%s: phases plan=%.3fs enqueue=%.3fs advance=%.3fs other=%.3fs",
			best.Key, t["plan_build"], t["enqueue"], t["advance"], t["other"])
	}
	rep.Rows = append(rep.Rows, best)
	return nil
}

// runCampaign measures the DES campaign pipeline: the reference row (one
// caller, whose cells fan their repetitions out over the free cores) and a
// caller-count sweep over the same work-list, with each cell's repetitions
// serial on its caller. Every sweep row must reproduce the reference row's
// exact fields — the determinism contract, asserted on every run.
func runCampaign(smoke bool, passes int) (*report, error) {
	tb := machine.TestbedI()
	cells := eval.CampaignCells(smoke)

	prevGC := debug.SetGCPercent(campaignGOGC)
	defer debug.SetGCPercent(prevGC)

	rep := &report{Mode: "campaign", Testbed: tb.Name, MaxProcs: runtime.GOMAXPROCS(0), GOGC: campaignGOGC}
	for _, callers := range []int{1, 2, 8} {
		if err := runRow(rep, tb, cells, callers, passes); err != nil {
			return nil, err
		}
		if got, ref := rep.Rows[len(rep.Rows)-1], rep.Rows[0]; !maps.Equal(got.Exact, ref.Exact) {
			return nil, fmt.Errorf("campaign not byte-identical at %s: %v, reference %v", got.Key, got.Exact, ref.Exact)
		}
	}
	return rep, nil
}

// factorTiles returns the tile sweep for the factorization mode.
func factorTiles(smoke bool) []int {
	if smoke {
		return []int{512}
	}
	return []int{512, 1024}
}

// runFactor sweeps the tiled factorization planners over the factor problem
// set on testbed I. The sweep is timing-only (no payload), so the whole mode
// runs in well under a second. Besides one row per cell, the report holds a
// sweep row with the total DES event count — one number that pins the
// factorization plans' event-graph shapes — and one row per problem with
// the tile SelectFactorTile picks.
func runFactor(smoke bool) (*report, error) {
	tb := machine.TestbedI()
	r := eval.NewRunner(tb)
	rep := &report{Mode: "factor", Testbed: tb.Name, MaxProcs: runtime.GOMAXPROCS(0), Reps: r.Reps}
	for _, p := range eval.FactorSet(smoke) {
		for _, T := range factorTiles(smoke) {
			start := time.Now()
			res, err := r.Measure(eval.LibCoCoPeLia, p, T)
			if err != nil {
				return nil, fmt.Errorf("factor %s T=%d: %w", p.Name(), T, err)
			}
			wall := time.Since(start).Seconds()
			log.Printf("factor %-6s n=%-5d T=%-4d sim %8.2f ms  %7.1f GFLOP/s  %4d kernels  %5.1f MB up  %5.1f MB down",
				p.Routine, p.N, T, res.Seconds*1e3, p.Flops()/res.Seconds/1e9,
				res.Subkernels, float64(res.BytesH2D)/1e6, float64(res.BytesD2H)/1e6)
			rep.Rows = append(rep.Rows, row{
				Key: fmt.Sprintf("%s/%d/T=%d", p.Routine, p.N, T),
				Exact: map[string]float64{
					"sim_seconds": res.Seconds, "subkernels": float64(res.Subkernels),
					"bytes_h2d": float64(res.BytesH2D), "bytes_d2h": float64(res.BytesD2H),
				},
				Timing: map[string]float64{"wall": wall},
			})
		}
	}
	events := r.EventsProcessed()
	log.Printf("factor sweep: %d cells, %d DES events", len(rep.Rows), events)
	rep.Rows = append(rep.Rows, row{Key: "sweep", Exact: map[string]float64{"events": float64(events)}})

	sels, err := factorSelections(tb, eval.FactorSet(smoke))
	if err != nil {
		return nil, err
	}
	rep.Rows = append(rep.Rows, sels...)
	return rep, nil
}

// factorSelections records SelectFactorTile's choice and its predicted
// full-overlap bound for each problem, each from a fresh session on tb so
// that no choice is answered from another's selection cache. The sessions
// share one deployment.
func factorSelections(tb *machine.Testbed, problems []eval.Problem) ([]row, error) {
	dep := microbench.Run(tb, microbench.DefaultConfig())
	var out []row
	for _, p := range problems {
		lib, err := cocopelia.Open(tb, cocopelia.Options{Deployment: dep})
		if err != nil {
			return nil, err
		}
		// The factor set's operands are host-resident; B is dtrsm's
		// right-hand side and unused by dpotrf and dgetrf.
		a, b := cocopelia.HostMatrix(p.M, p.M, nil), cocopelia.HostMatrix(p.M, p.N, nil)
		sel, err := lib.SelectFactorTile(p.Routine, p.M, p.N, a, b)
		if cerr := lib.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("select %s: %w", p.Name(), err)
		}
		log.Printf("factor select %-6s n=%-5d T=%-4d predicted %8.2f ms", p.Routine, p.N, sel.T, sel.Predicted*1e3)
		out = append(out, row{
			Key:   fmt.Sprintf("select/%s/%d", p.Routine, p.N),
			Exact: map[string]float64{"selected_tile": float64(sel.T), "predicted_seconds": sel.Predicted},
		})
	}
	return out, nil
}

// childArgs returns the flags set on this invocation that choose what a
// gate's child runs measure: the mode and its work-list.
func childArgs() []string {
	var args []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "against", "out", "check", "cpuprofile", "memprofile":
			return
		}
		args = append(args, "-"+f.Name+"="+f.Value.String())
	})
	return args
}

// gate is the paired timing gate: it runs baseBin and this executable with
// args, alternating which runs first, gateRuns times each, keeps every
// run's report in dir (a temporary directory when dir is empty) as
// base-N.json and head-N.json, and compares the two sides' timings. Both
// builds run on the same host in alternating order, so host speed and load
// cancel out of the ratio.
func gate(baseBin, dir string, args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if dir == "" {
		if dir, err = os.MkdirTemp("", "cocobench-gate"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sides := [2]struct {
		name, bin string
		runs      []*report
	}{{name: "base", bin: baseBin}, {name: "head", bin: self}}
	for i := 1; i <= gateRuns; i++ {
		for j := 0; j < 2; j++ {
			s := &sides[(i+j)%2]
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", s.name, i))
			var stderr bytes.Buffer
			cmd := exec.Command(s.bin, append(args, "-out", path)...)
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("gate: %s run %d (%s %s): %w\n%s", s.name, i, s.bin, strings.Join(args, " "), err, stderr.Bytes())
			}
			rep, err := readReport(path)
			if err != nil {
				return fmt.Errorf("gate: %s run %d: %w", s.name, i, err)
			}
			s.runs = append(s.runs, rep)
		}
	}
	if err := compare(sides[0].runs, sides[1].runs, true); err != nil {
		return err
	}
	log.Printf("gate OK: no timing median above the base median / %.2f + %.0f ms (base %s, %d alternating runs each)",
		gateBound, gateSlack*1e3, baseBin, gateRuns)
	return nil
}

// compare is the one check of cocobench reports. Each field kind has one
// rule, and paired says which applies:
//
//   - Unpaired, base is a committed report and head one fresh run. Every
//     exact field must match bit for bit, and both must hold the same rows.
//     Timings are printed and never fail: the committed ones come from the
//     recording host.
//   - Paired, base and head are runs of two builds alternated on one host.
//     For every timing field of the rows both builds measure, the head
//     median may be at most 1/gateBound times the base median plus
//     gateSlack. Exact fields are not compared: a change that alters the
//     simulation on purpose re-records the committed report.
//
// The error names every failing row and field.
func compare(base, head []*report, paired bool) error {
	for _, side := range [][]*report{base, head} {
		for _, r := range side {
			if r.Mode != base[0].Mode {
				return fmt.Errorf("report modes differ: %s and %s", base[0].Mode, r.Mode)
			}
		}
	}
	baseRows, err := rowsByKey(base[0])
	if err != nil {
		return err
	}
	var errs []error
	for _, h := range head[0].Rows {
		b, ok := baseRows[h.Key]
		if !ok {
			if !paired {
				errs = append(errs, fmt.Errorf("row %s: not in the base report", h.Key))
			}
			continue
		}
		delete(baseRows, h.Key)
		if paired {
			for _, f := range sortedKeys(h.Timing) {
				bm, hm := median(base, h.Key, f), median(head, h.Key, f)
				limit := bm/gateBound + gateSlack
				log.Printf("gate %s %s: base %.4gs, head %.4gs (%.3fx, limit %.4gs)", h.Key, f, bm, hm, bm/hm, limit)
				if hm > limit {
					errs = append(errs, fmt.Errorf("row %s field %s: head median %.4gs > limit %.4gs (base median %.4gs / %.2f + %.1fms)",
						h.Key, f, hm, limit, bm, gateBound, gateSlack*1e3))
				}
			}
			continue
		}
		for _, f := range sortedKeys(h.Timing) {
			log.Printf("check %s %s: %.4gs (base %.4gs, not gated)", h.Key, f, h.Timing[f], b.Timing[f])
		}
		fields := map[string]float64{}
		maps.Copy(fields, h.Exact)
		maps.Copy(fields, b.Exact)
		for _, f := range sortedKeys(fields) {
			hv, hok := h.Exact[f]
			bv, bok := b.Exact[f]
			if hok != bok || math.Float64bits(hv) != math.Float64bits(bv) {
				errs = append(errs, fmt.Errorf("row %s field %s: %s, base %s", h.Key, f, exactString(hv, hok), exactString(bv, bok)))
			}
		}
	}
	if !paired {
		for _, k := range sortedKeys(baseRows) {
			errs = append(errs, fmt.Errorf("row %s: missing from this run", k))
		}
	}
	return errors.Join(errs...)
}

// rowsByKey indexes a report's rows, rejecting a duplicate key.
func rowsByKey(r *report) (map[string]row, error) {
	m := make(map[string]row, len(r.Rows))
	for _, x := range r.Rows {
		if _, dup := m[x.Key]; dup {
			return nil, fmt.Errorf("%s report has two rows %s", r.Mode, x.Key)
		}
		m[x.Key] = x
	}
	return m, nil
}

// median returns the median of timing field f of row key over runs that
// hold it (the mean of the middle two for an even count).
func median(runs []*report, key, f string) float64 {
	var v []float64
	for _, r := range runs {
		for _, x := range r.Rows {
			if t, ok := x.Timing[f]; ok && x.Key == key {
				v = append(v, t)
			}
		}
	}
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return math.NaN()
	}
	return (v[(n-1)/2] + v[n/2]) / 2
}

// exactString prints an exact field in full: the shortest decimal that
// reads back to the same bits, so a last-ulp difference shows.
func exactString(v float64, ok bool) string {
	if !ok {
		return "missing"
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// readReport loads a report, refusing any other schema: a report written by
// a cocobench older than this schema (top-level reference/sweep, entries,
// or factor rows with routine fields) is not read.
func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep report
	if err = dec.Decode(&rep); err == nil && rep.Mode == "" {
		err = errors.New("no mode")
	}
	if err != nil {
		return nil, fmt.Errorf("%s is not a cocobench report of the mode/rows schema (%v): a report from an older cocobench must be re-recorded, and a gate's base build must write this schema", path, err)
	}
	return &rep, nil
}

// writeJSON marshals v indented and writes it to path, creating the
// directory when needed.
func writeJSON(path string, v any) error {
	if dir := filepath.Dir(path); dir != "." && dir != "/" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// bestCall times call (after one warm-up) and returns the best of blasReps
// calls in seconds.
func bestCall(call func() error) (float64, error) {
	if err := call(); err != nil {
		return 0, err
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < blasReps; i++ {
		start := time.Now()
		if err := call(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best.Seconds(), nil
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad size %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes in %q", s)
	}
	return out, nil
}

func randMat(rng *rand.Rand, n int) []float64 {
	m := make([]float64, n*n)
	for i := range m {
		m[i] = rng.NormFloat64()
	}
	return m
}

// lowerTriangle returns the lower triangle of the n x n matrix a scaled
// by 1/n, with a diagonal of at least 2, so triangular solves with it stay
// well conditioned.
func lowerTriangle(a []float64, n int) []float64 {
	l := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			l[i+j*n] = a[i+j*n] / float64(n)
		}
		l[j+j*n] = 2 + math.Abs(a[j+j*n])
	}
	return l
}

func toF32(x []float64) []float32 {
	y := make([]float32, len(x))
	for i, v := range x {
		y[i] = float32(v)
	}
	return y
}
