// Command cocobench measures the two wall-clock throughput surfaces of the
// simulator itself (not the simulated-GPU numbers the eval pipeline
// produces):
//
//   - the host BLAS payload engine (the blocked, packed GEMM of
//     internal/blas) against the naive reference loop, as GFLOP/s per
//     (routine, size) — this bounds functional-verification turnaround;
//   - with -campaign, the discrete-event campaign pipeline itself, as
//     cells/sec and events/sec over a timing-only measurement sweep —
//     this bounds how fast tables and figures regenerate;
//   - with -factor, the tiled factorization planners (cholesky, lu, trsm)
//     over the task-graph IR, recording each cell's simulated makespan and
//     traffic plus the tile the library facade selects for each problem —
//     the committed baseline pins the new planners' schedules and the
//     selections exactly, the way the campaign baseline pins the flat gemm
//     plans.
//
// Examples:
//
//	cocobench                              # default sizes, results/bench-blas.json
//	cocobench -sizes 256,512 -reps 5
//	cocobench -smoke                       # one tiny size, sanity + CI smoke
//	cocobench -campaign                    # DES sweep, results/bench-campaign.json
//	cocobench -campaign -cpuprofile results/campaign.pprof
//	cocobench -factor                      # results/bench-factor.json
//	cocobench -factor -check results/bench-factor.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"cocopelia"
	"cocopelia/internal/blas"
	"cocopelia/internal/eval"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/microbench"
	"cocopelia/internal/model"
	"cocopelia/internal/parallel"
)

// entry is one benchmark measurement in the output JSON. Kernel names the
// micro-kernel variant that actually ran (naive, generic, avx, avx512,
// fma-avx2, neon — see internal/blas/registry.go), so a committed baseline
// records which numerics produced its numbers.
type entry struct {
	Routine string  `json:"routine"`
	Dtype   string  `json:"dtype"`
	Kernel  string  `json:"kernel"`
	Size    int     `json:"size"`
	Workers int     `json:"workers"`
	Reps    int     `json:"reps"`
	Seconds float64 `json:"seconds"` // best-of-reps wall time per call
	Gflops  float64 `json:"gflops"`
}

type report struct {
	Arch    string  `json:"arch"`
	Maxproc int     `json:"maxprocs"`
	Entries []entry `json:"entries"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cocobench: ")
	out := flag.String("out", "", "output JSON path (default per mode under results/)")
	sizesFlag := flag.String("sizes", "256,512,1024,2048", "comma-separated square GEMM sizes")
	reps := flag.Int("reps", 3, "repetitions per measurement (best is kept)")
	smoke := flag.Bool("smoke", false, "tiny work-list, for CI sanity")
	campaign := flag.Bool("campaign", false, "benchmark the DES campaign pipeline (cells/sec) instead of the BLAS payload engine")
	factor := flag.Bool("factor", false, "sweep the tiled factorization planners (cholesky/lu/trsm) and record their simulated outcomes")
	passes := flag.Int("passes", 3, "campaign passes per measured row (fresh runner each, fastest pass kept)")
	check := flag.String("check", "", "compare against this committed baseline JSON and fail on regression (campaign reference row, or BLAS GFLOP/s per routine and size)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measured section to this path")
	memprofile := flag.String("memprofile", "", "write an allocation profile at exit to this path")
	flag.Parse()

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

	if *campaign {
		if *out == "" {
			*out = filepath.Join("results", "bench-campaign.json")
		}
		if err := runCampaign(*out, *smoke, *passes, *check); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *factor {
		if *out == "" {
			*out = filepath.Join("results", "bench-factor.json")
		}
		if err := runFactor(*out, *smoke, *check); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *out == "" {
		*out = filepath.Join("results", "bench-blas.json")
	}

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		log.Fatal(err)
	}
	if *smoke {
		sizes = []int{128}
	}

	if err := runBlas(*out, sizes, *reps, *check); err != nil {
		log.Fatal(err)
	}
}

// runBlas measures the dtype x kernel-variant sweep of the payload engine
// and either writes the report or, with checkPath set, gates it against a
// committed baseline instead.
func runBlas(out string, sizes []int, reps int, checkPath string) error {
	workers := runtime.GOMAXPROCS(0)
	pool := parallel.NewPool(workers)
	exact64, err := blas.SelectedKernel[float64](blas.KernelExact)
	if err != nil {
		return err
	}
	fma64, err := blas.SelectedKernel[float64](blas.KernelFMA)
	if err != nil {
		return err
	}
	exact32, err := blas.SelectedKernel[float32](blas.KernelExact)
	if err != nil {
		return err
	}
	fma32, err := blas.SelectedKernel[float32](blas.KernelFMA)
	if err != nil {
		return err
	}
	rep := report{Arch: runtime.GOARCH, Maxproc: workers}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(7))
		a := randMat(rng, n)
		b := randMat(rng, n)
		c := make([]float64, n*n)
		a32, b32 := toF32(a), toF32(b)
		c32 := make([]float32, n*n)

		runs := []struct {
			routine string
			dtype   string
			kernel  string
			workers int
			call    func() error
		}{
			{"dgemm-naive", "f64", "naive", 1, func() error {
				return blas.GemmNaive(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, 0, c, n)
			}},
			{"dgemm", "f64", exact64, 1, func() error {
				return blas.Dgemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, 0, c, n)
			}},
			{"dgemm-fma", "f64", fma64, 1, func() error {
				return blas.GemmPolicy(blas.KernelFMA, blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, 0, c, n)
			}},
			{"dgemm-parallel", "f64", exact64, workers, func() error {
				return blas.GemmParallel(pool, blas.NoTrans, blas.NoTrans, n, n, n, 1, a, n, b, n, 0, c, n)
			}},
			{"sgemm", "f32", exact32, 1, func() error {
				return blas.Sgemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, a32, n, b32, n, 0, c32, n)
			}},
			{"sgemm-fma", "f32", fma32, 1, func() error {
				return blas.GemmPolicy(blas.KernelFMA, blas.NoTrans, blas.NoTrans, n, n, n, 1, a32, n, b32, n, 0, c32, n)
			}},
		}
		for _, r := range runs {
			e, err := measure(r.routine, n, r.workers, reps, r.call)
			if err != nil {
				return fmt.Errorf("%s n=%d: %w", r.routine, n, err)
			}
			e.Dtype, e.Kernel = r.dtype, r.kernel
			log.Printf("%-14s n=%-5d kernel=%-9s workers=%-2d %8.1f ms  %7.2f GFLOP/s",
				e.Routine, e.Size, e.Kernel, e.Workers, e.Seconds*1e3, e.Gflops)
			rep.Entries = append(rep.Entries, e)
		}
	}

	if checkPath != "" {
		return checkBlas(checkPath, &rep)
	}
	if err := writeJSON(out, &rep); err != nil {
		return err
	}
	log.Printf("wrote %s (%d entries)", out, len(rep.Entries))
	return nil
}

// checkBlas gates a fresh BLAS sweep against the committed baseline: every
// measured (routine, size) present in both reports must reach at least 85%
// of the baseline GFLOP/s. Rows only one side measured (a new variant, or
// a size the check run skipped) pass vacuously.
func checkBlas(path string, rep *report) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	baseOf := make(map[string]entry, len(base.Entries))
	for _, e := range base.Entries {
		baseOf[fmt.Sprintf("%s/%d", e.Routine, e.Size)] = e
	}
	checked := 0
	for _, e := range rep.Entries {
		b, ok := baseOf[fmt.Sprintf("%s/%d", e.Routine, e.Size)]
		if !ok {
			continue
		}
		checked++
		if floor := 0.85 * b.Gflops; e.Gflops < floor {
			return fmt.Errorf("%s n=%d regressed: %.2f GFLOP/s < %.2f (85%% of baseline %.2f, kernel %s vs %s)",
				e.Routine, e.Size, e.Gflops, floor, b.Gflops, e.Kernel, b.Kernel)
		}
	}
	if checked == 0 {
		return fmt.Errorf("baseline %s shares no (routine, size) rows with this run", path)
	}
	log.Printf("blas check OK: %d rows within 85%% of baseline %s", checked, path)
	return nil
}

// campaignPhases splits a row's wall time by pipeline phase: plan builds
// (one per cell), plan replay onto the streams, event-queue advance, and
// everything else (operand setup plus the comparator libraries that run to
// completion internally). It makes a throughput change attributable — a
// replay optimization must show up in enqueue, a DES optimization in
// advance.
type campaignPhases struct {
	PlanBuild float64 `json:"plan_build"`
	Enqueue   float64 `json:"enqueue"`
	Advance   float64 `json:"advance"`
	Other     float64 `json:"other"`
}

// campaignRow is one measured configuration of the campaign pipeline. The
// simulated outcome — events, plan hits/misses/evictions — must be
// identical across every row of a report (asserted at run time); only the
// wall-clock numbers may differ.
type campaignRow struct {
	Workers       int             `json:"workers"`
	Passes        int             `json:"passes"`
	Cells         int             `json:"cells"`
	Events        int64           `json:"events"`
	WallSeconds   float64         `json:"wall_seconds"`
	CellsPerSec   float64         `json:"cells_per_sec"`
	EventsPerSec  float64         `json:"events_per_sec"`
	PlanHits      int             `json:"plan_hits"`
	PlanMisses    int             `json:"plan_misses"`
	PlanEvictions int             `json:"plan_evictions"`
	PlanHitRate   float64         `json:"plan_hit_rate"`
	Phases        *campaignPhases `json:"phase_seconds,omitempty"`
}

// campaignReport is the JSON schema of results/bench-campaign.json.
// Reference is the committed-baseline configuration (single worker,
// per-phase timing); Sweep varies the worker count over the same
// work-list.
type campaignReport struct {
	Testbed   string        `json:"testbed"`
	GOGC      int           `json:"gogc"`
	Reps      int           `json:"reps"`
	Reference campaignRow   `json:"reference"`
	Sweep     []campaignRow `json:"sweep"`
}

// campaignCells builds the benchmark's timing-only work-list: a tile-size
// sweep of every level-3 library over square dgemm problems across the
// host/device location combinations, plus a CoCoPeLia daxpy sweep — the
// same cell shapes the Fig. 4-7 campaigns are made of, scaled to run in
// seconds rather than minutes.
func campaignCells(smoke bool) []eval.MeasureCell {
	sizes := []int{2048, 4096, 8192}
	tiles := map[int][]int{
		2048: {256, 512, 1024},
		4096: {256, 512, 1024, 2048},
		8192: {256, 512, 1024, 2048},
	}
	if smoke {
		sizes = []int{512}
		tiles = map[int][]int{512: {128, 256}}
	}
	combos := [][]model.Loc{
		{model.OnHost, model.OnHost, model.OnHost},
		{model.OnDevice, model.OnHost, model.OnHost},
		{model.OnDevice, model.OnDevice, model.OnHost},
	}
	libs := []eval.Lib{eval.LibCoCoPeLia, eval.LibNoReuse, eval.LibCuBLASXt}
	if smoke {
		libs = []eval.Lib{eval.LibCoCoPeLia}
	}
	var cells []eval.MeasureCell
	for _, s := range sizes {
		for _, locs := range combos {
			p := eval.Problem{
				Routine: "dgemm", Dtype: kernelmodel.F64, M: s, N: s, K: s,
				Locs: append([]model.Loc(nil), locs...), Tag: "square",
			}
			for _, lib := range libs {
				for _, T := range tiles[s] {
					cells = append(cells, eval.MeasureCell{Lib: lib, P: p, T: T})
				}
			}
			if !smoke {
				cells = append(cells, eval.MeasureCell{Lib: eval.LibBLASX, P: p, T: 0})
			}
		}
	}
	if !smoke {
		for _, locs := range model.LocCombos(2) {
			p := eval.Problem{
				Routine: "daxpy", Dtype: kernelmodel.F64, N: 32 << 20,
				Locs: append([]model.Loc(nil), locs...), Tag: "vector",
			}
			for _, T := range []int{1 << 20, 4 << 20} {
				cells = append(cells, eval.MeasureCell{Lib: eval.LibCoCoPeLia, P: p, T: T})
			}
		}
	}
	return cells
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

// rowConfig parameterizes one measured campaign row.
type rowConfig struct {
	workers int
	passes  int
	phases  bool
}

// runRow measures one campaign configuration over the work-list: passes
// independent cold runs (fresh runner each), keeping the fastest pass's
// wall-clock numbers. The simulated counters must be identical across
// passes — a fresh runner replays the same deterministic campaign — and a
// drift fails the run. Best-of-passes filters out interference from other
// processes sharing the machine's cores, which otherwise dominates the
// variance of a sub-two-second measurement.
func runRow(tb *machine.Testbed, cells []eval.MeasureCell, cfg rowConfig) (campaignRow, error) {
	if cfg.passes < 1 {
		cfg.passes = 1
	}
	var best campaignRow
	for pass := 0; pass < cfg.passes; pass++ {
		r := eval.NewRunner(tb)
		if cfg.phases {
			r.Clock = time.Now
		}
		var pool *parallel.Pool
		if cfg.workers > 1 {
			pool = parallel.NewPool(cfg.workers)
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
			return campaignRow{}, err
		}

		hits, misses, evictions := r.PlanCacheStats()
		row := campaignRow{
			Workers: cfg.workers, Passes: cfg.passes,
			Cells:  len(cells),
			Events: r.EventsProcessed(), WallSeconds: wall,
			CellsPerSec: float64(len(cells)) / wall, EventsPerSec: float64(r.EventsProcessed()) / wall,
			PlanHits: hits, PlanMisses: misses, PlanEvictions: evictions,
		}
		if total := hits + misses; total > 0 {
			row.PlanHitRate = float64(hits) / float64(total)
		}
		if cfg.phases {
			pb, enq, adv, other := r.PhaseSeconds()
			row.Phases = &campaignPhases{PlanBuild: pb, Enqueue: enq, Advance: adv, Other: other}
		}
		if pass > 0 && (row.Events != best.Events || row.PlanHits != best.PlanHits ||
			row.PlanMisses != best.PlanMisses || row.PlanEvictions != best.PlanEvictions) {
			return campaignRow{}, fmt.Errorf(
				"campaign drift across passes: pass %d saw events=%d plans=%d/%d/%d, pass 0 saw events=%d plans=%d/%d/%d",
				pass, row.Events, row.PlanHits, row.PlanMisses, row.PlanEvictions,
				best.Events, best.PlanHits, best.PlanMisses, best.PlanEvictions)
		}
		if pass == 0 || row.WallSeconds < best.WallSeconds {
			best = row
		}
	}
	return best, nil
}

// sameOutcome reports whether two rows simulated the identical campaign.
func sameOutcome(a, b campaignRow) bool {
	return a.Events == b.Events && a.PlanHits == b.PlanHits &&
		a.PlanMisses == b.PlanMisses && a.PlanEvictions == b.PlanEvictions
}

// logRow prints one row's throughput line.
func logRow(tag string, row campaignRow) {
	log.Printf("campaign[%s]: workers=%d %d cells, %d events in %.2fs  (%.1f cells/s, %.3g events/s)",
		tag, row.Workers, row.Cells, row.Events, row.WallSeconds, row.CellsPerSec, row.EventsPerSec)
}

// runCampaign measures the DES campaign pipeline — the reference
// single-worker row with per-phase timing and a worker-count sweep pinned
// byte-identical to the reference — and writes the report JSON. With
// checkPath set it instead compares the reference row against the
// committed baseline and fails on regression (throughput down more than
// 15%, or any drift in the simulated counters).
func runCampaign(out string, smoke bool, passes int, checkPath string) error {
	tb := machine.TestbedI()
	cells := campaignCells(smoke)

	prevGC := debug.SetGCPercent(campaignGOGC)
	defer debug.SetGCPercent(prevGC)

	ref, err := runRow(tb, cells, rowConfig{workers: 1, passes: passes, phases: true})
	if err != nil {
		return err
	}
	logRow("ref", ref)
	ph := ref.Phases
	log.Printf("campaign[ref]: phases plan=%.2fs enqueue=%.2fs advance=%.2fs other=%.2fs",
		ph.PlanBuild, ph.Enqueue, ph.Advance, ph.Other)
	log.Printf("campaign[ref]: plans %d replays / %d builds / %d evictions (%.0f%% replayed)",
		ref.PlanHits, ref.PlanMisses, ref.PlanEvictions, 100*ref.PlanHitRate)

	rep := campaignReport{Testbed: tb.Name, GOGC: campaignGOGC, Reps: 3, Reference: ref}
	for _, cfg := range []rowConfig{{workers: 2}, {workers: 8}} {
		// Sweep rows get the same best-of-passes treatment as the reference:
		// multi-worker rows on a contended host swing far more than a
		// single-worker row, and one pass would record scheduler noise
		// rather than throughput.
		cfg.passes = passes
		// Every sweep row carries its own phase split, so regressions that
		// only show up at a particular worker count are attributable without
		// a bisection run.
		cfg.phases = true
		row, err := runRow(tb, cells, cfg)
		if err != nil {
			return err
		}
		logRow("sweep", row)
		if !sameOutcome(row, ref) {
			return fmt.Errorf(
				"campaign not byte-identical at workers=%d: events=%d plans=%d/%d/%d, reference events=%d plans=%d/%d/%d",
				cfg.workers, row.Events, row.PlanHits, row.PlanMisses, row.PlanEvictions,
				ref.Events, ref.PlanHits, ref.PlanMisses, ref.PlanEvictions)
		}
		rep.Sweep = append(rep.Sweep, row)
	}

	if checkPath != "" {
		return checkCampaign(checkPath, &rep)
	}
	if err := writeJSON(out, &rep); err != nil {
		return err
	}
	log.Printf("wrote %s", out)
	return nil
}

// checkCampaign compares a freshly measured campaign against the committed
// baseline: the reference row's simulated counters must match exactly (any
// drift means the simulation changed, which a perf PR must not do),
// throughput may regress at most 15%, and no phase of the reference row may
// run more than 20% slower than its baseline phase. Sweep rows are not
// gated: multi-worker rows on a contended host attribute descheduled time
// to whatever phase was running, swinging far past any useful bound; their
// splits stay in the JSON for attribution.
func checkCampaign(path string, rep *campaignReport) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base campaignReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	ref := rep.Reference
	b := base.Reference
	if !sameOutcome(ref, b) {
		return fmt.Errorf(
			"campaign drifted from baseline %s: events=%d plans=%d/%d/%d, baseline events=%d plans=%d/%d/%d",
			path, ref.Events, ref.PlanHits, ref.PlanMisses, ref.PlanEvictions,
			b.Events, b.PlanHits, b.PlanMisses, b.PlanEvictions)
	}
	if floor := 0.85 * b.CellsPerSec; ref.CellsPerSec < floor {
		return fmt.Errorf("campaign throughput regressed: %.1f cells/s < %.1f (85%% of baseline %.1f)",
			ref.CellsPerSec, floor, b.CellsPerSec)
	}
	if err := phaseGate("reference", ref.Phases, b.Phases); err != nil {
		return err
	}
	log.Printf("campaign check OK: %.1f cells/s vs baseline %.1f, counters identical, phases within bounds",
		ref.CellsPerSec, b.CellsPerSec)
	return nil
}

// phaseGate fails when any phase of got runs more than 20% slower than the
// matching baseline phase. A 20ms absolute slack absorbs timer jitter on
// phases too small for a ratio to mean anything. Baselines written before
// per-row phase attribution carry no phase split; those rows pass vacuously.
func phaseGate(tag string, got, base *campaignPhases) error {
	if got == nil || base == nil {
		return nil
	}
	checks := []struct {
		name      string
		got, base float64
	}{
		{"plan_build", got.PlanBuild, base.PlanBuild},
		{"enqueue", got.Enqueue, base.Enqueue},
		{"advance", got.Advance, base.Advance},
		{"other", got.Other, base.Other},
	}
	for _, c := range checks {
		if limit := 1.20*c.base + 0.02; c.got > limit {
			return fmt.Errorf("campaign %s phase %s regressed: %.3fs > limit %.3fs (120%% of baseline %.3fs + 20ms slack)",
				tag, c.name, c.got, limit, c.base)
		}
	}
	return nil
}

// factorRow is one measured factorization cell. Every field except
// WallSeconds is a simulated outcome and must reproduce exactly: the
// schedule a task-graph planner emits is deterministic, so any drift in
// SimSeconds, Subkernels or the traffic bytes means the planner (or the
// executor replaying it) changed.
type factorRow struct {
	Routine     string  `json:"routine"`
	M           int     `json:"m"`
	N           int     `json:"n"`
	Tile        int     `json:"tile"`
	SimSeconds  float64 `json:"sim_seconds"`
	Gflops      float64 `json:"gflops"`
	Subkernels  int64   `json:"subkernels"`
	BytesH2D    int64   `json:"bytes_h2d"`
	BytesD2H    int64   `json:"bytes_d2h"`
	WallSeconds float64 `json:"wall_seconds"`
}

// factorSelection is the tile the library facade's SelectFactorTile picks
// for one factorization problem in a fresh session, with its predicted
// full-overlap bound. Both are deterministic and must reproduce exactly.
type factorSelection struct {
	Routine      string  `json:"routine"`
	M            int     `json:"m"`
	N            int     `json:"n"`
	SelectedTile int     `json:"selected_tile"`
	PredictedS   float64 `json:"predicted_s"`
}

// factorReport is the JSON schema of results/bench-factor.json. Events is
// the total DES event count of the whole sweep — one number that pins the
// factorization plans' event-graph shapes the way the campaign baseline
// pins the flat gemm plans.
type factorReport struct {
	Testbed    string            `json:"testbed"`
	Reps       int               `json:"reps"`
	Events     int64             `json:"events"`
	Rows       []factorRow       `json:"rows"`
	Selections []factorSelection `json:"selections"`
}

// factorTiles returns the tile sweep for the factorization mode.
func factorTiles(smoke bool) []int {
	if smoke {
		return []int{512}
	}
	return []int{512, 1024}
}

// runFactor sweeps the tiled factorization planners over the factor
// problem set on testbed I and either writes the report or, with checkPath
// set, gates the simulated outcomes against the committed baseline. The
// sweep is timing-only (no payload), so the whole mode runs in well under
// a second.
func runFactor(out string, smoke bool, checkPath string) error {
	tb := machine.TestbedI()
	r := eval.NewRunner(tb)
	rep := factorReport{Testbed: tb.Name, Reps: r.Reps}
	for _, p := range eval.FactorSet(smoke) {
		for _, T := range factorTiles(smoke) {
			start := time.Now()
			res, err := r.Measure(eval.LibCoCoPeLia, p, T)
			if err != nil {
				return fmt.Errorf("factor %s T=%d: %w", p.Name(), T, err)
			}
			row := factorRow{
				Routine: p.Routine, M: p.M, N: p.N, Tile: T,
				SimSeconds: res.Seconds,
				Gflops:     p.Flops() / res.Seconds / 1e9,
				Subkernels: res.Subkernels,
				BytesH2D:   res.BytesH2D, BytesD2H: res.BytesD2H,
				WallSeconds: time.Since(start).Seconds(),
			}
			log.Printf("factor %-6s n=%-5d T=%-4d sim %8.2f ms  %7.1f GFLOP/s  %4d kernels  %5.1f MB up  %5.1f MB down",
				row.Routine, row.N, row.Tile, row.SimSeconds*1e3, row.Gflops,
				row.Subkernels, float64(row.BytesH2D)/1e6, float64(row.BytesD2H)/1e6)
			rep.Rows = append(rep.Rows, row)
		}
	}
	rep.Events = r.EventsProcessed()
	log.Printf("factor sweep: %d cells, %d DES events", len(rep.Rows), rep.Events)
	sels, err := factorSelections(tb, eval.FactorSet(smoke))
	if err != nil {
		return err
	}
	rep.Selections = sels

	if checkPath != "" {
		return checkFactor(checkPath, &rep)
	}
	if err := writeJSON(out, &rep); err != nil {
		return err
	}
	log.Printf("wrote %s (%d rows)", out, len(rep.Rows))
	return nil
}

// factorSelections records SelectFactorTile's choice for each problem,
// each from a fresh session on tb so that no choice is answered from
// another's selection cache. The sessions share one deployment.
func factorSelections(tb *machine.Testbed, problems []eval.Problem) ([]factorSelection, error) {
	dep := microbench.Run(tb, microbench.DefaultConfig())
	var out []factorSelection
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
		out = append(out, factorSelection{
			Routine: p.Routine, M: p.M, N: p.N,
			SelectedTile: sel.T, PredictedS: sel.Predicted,
		})
	}
	return out, nil
}

// checkFactor gates a fresh factorization sweep against the committed
// baseline. Unlike the BLAS and campaign gates there is no tolerance: every
// simulated field must match exactly (encoding/json round-trips float64
// shortest-form, so == on SimSeconds is an exact bit comparison), and the
// two sweeps must contain the same rows. Wall-clock columns are
// informational only.
func checkFactor(path string, rep *factorReport) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base factorReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	if len(rep.Rows) != len(base.Rows) {
		return fmt.Errorf("factor sweep has %d rows, baseline %s has %d", len(rep.Rows), path, len(base.Rows))
	}
	for i, row := range rep.Rows {
		b := base.Rows[i]
		if row.Routine != b.Routine || row.M != b.M || row.N != b.N || row.Tile != b.Tile {
			return fmt.Errorf("factor row %d is %s %dx%d T=%d, baseline has %s %dx%d T=%d",
				i, row.Routine, row.M, row.N, row.Tile, b.Routine, b.M, b.N, b.Tile)
		}
		// Bit identity, not tolerance: the simulated time must round-trip
		// through the JSON baseline unchanged.
		if math.Float64bits(row.SimSeconds) != math.Float64bits(b.SimSeconds) ||
			row.Subkernels != b.Subkernels ||
			row.BytesH2D != b.BytesH2D || row.BytesD2H != b.BytesD2H {
			return fmt.Errorf(
				"factor %s n=%d T=%d drifted from baseline %s: sim=%v kernels=%d h2d=%d d2h=%d, baseline sim=%v kernels=%d h2d=%d d2h=%d",
				row.Routine, row.N, row.Tile, path,
				row.SimSeconds, row.Subkernels, row.BytesH2D, row.BytesD2H,
				b.SimSeconds, b.Subkernels, b.BytesH2D, b.BytesD2H)
		}
	}
	if rep.Events != base.Events {
		return fmt.Errorf("factor sweep processed %d DES events, baseline %s has %d", rep.Events, path, base.Events)
	}
	if len(rep.Selections) != len(base.Selections) {
		return fmt.Errorf("factor sweep has %d selections, baseline %s has %d", len(rep.Selections), path, len(base.Selections))
	}
	for i, sel := range rep.Selections {
		b := base.Selections[i]
		if sel.Routine != b.Routine || sel.M != b.M || sel.N != b.N || sel.SelectedTile != b.SelectedTile ||
			math.Float64bits(sel.PredictedS) != math.Float64bits(b.PredictedS) {
			return fmt.Errorf("factor selection %d is %s %dx%d T=%d predicted=%v, baseline %s has %s %dx%d T=%d predicted=%v",
				i, sel.Routine, sel.M, sel.N, sel.SelectedTile, sel.PredictedS,
				path, b.Routine, b.M, b.N, b.SelectedTile, b.PredictedS)
		}
	}
	log.Printf("factor check OK: %d rows, %d selections and %d events identical to baseline %s",
		len(rep.Rows), len(rep.Selections), rep.Events, path)
	return nil
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

// measure times call (after one warm-up) and keeps the best of reps.
func measure(routine string, n, workers, reps int, call func() error) (entry, error) {
	if err := call(); err != nil {
		return entry{}, err
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := call(); err != nil {
			return entry{}, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	sec := best.Seconds()
	flops := 2 * float64(n) * float64(n) * float64(n)
	return entry{Routine: routine, Size: n, Workers: workers, Reps: reps,
		Seconds: sec, Gflops: flops / sec / 1e9}, nil
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

func toF32(x []float64) []float32 {
	y := make([]float32, len(x))
	for i, v := range x {
		y[i] = float32(v)
	}
	return y
}
