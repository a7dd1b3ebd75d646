package eval

import (
	"fmt"
	"math"
	"sort"

	"cocopelia/internal/cudart"
	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/microbench"
	"cocopelia/internal/model"
	"cocopelia/internal/operand"
	"cocopelia/internal/parallel"
	"cocopelia/internal/predictor"
	"cocopelia/internal/sched"
	"cocopelia/internal/sim"
	"cocopelia/internal/stats"
	"cocopelia/internal/trace"
)

// Campaign bundles the per-testbed state of the evaluation: the measured-run
// runner and the deployed predictor.
//
// Every figure harness enumerates its full work-list of measurement cells
// up front, prefetches them through Pool (each cell's noise seed derives
// from the cell key, never from execution order), then assembles its
// rows sequentially from the warm cache — so the rendered output is
// byte-identical at any worker count, including the serial path.
type Campaign struct {
	Runner *Runner
	Pred   *predictor.Predictor
	// Pool fans independent measurement cells across cores; nil selects
	// the legacy serial path.
	Pool *parallel.Pool
	// Coarsen subsamples the tile-sweep grid (1 = the paper's full
	// 256-step grid; tests and fast runs use larger factors).
	Coarsen int
	// Fast selects the reduced problem sets.
	Fast bool
}

// NewCampaignWithDeployment builds a campaign over an existing deployment
// database (e.g. loaded from disk).
func NewCampaignWithDeployment(tb *machine.Testbed, dep *microbench.Deployment, fast bool) *Campaign {
	coarsen := 2
	reps := 3
	if fast {
		coarsen = 6
		reps = 1
	}
	r := NewRunner(tb)
	r.Reps = reps
	return &Campaign{
		Runner: r, Pred: predictor.New(dep),
		Pool:    parallel.NewPool(0),
		Coarsen: coarsen, Fast: fast,
	}
}

// SetParallel reconfigures the campaign's fan-out width: 0 selects all
// cores, 1 the legacy serial path, any other n a pool of n workers. The
// campaign's output is identical at every setting.
func (c *Campaign) SetParallel(n int) {
	if n == 1 {
		c.Pool = nil
		return
	}
	c.Pool = parallel.NewPool(n)
}

// prefetch warms the runner cache with a work-list of measurement cells.
func (c *Campaign) prefetch(cells []MeasureCell) error {
	return c.Runner.MeasureBatch(c.Pool, cells)
}

// grid returns the benchmark tile grid for a routine.
func (c *Campaign) grid(routine string) []int {
	if routine == "daxpy" {
		return microbench.AxpyTileGrid()
	}
	return microbench.GemmTileGrid()
}

// sweep returns the measured-sweep tile sizes for a problem.
func (c *Campaign) sweep(p Problem) []int {
	coarsen := c.Coarsen
	if p.Routine == "daxpy" {
		// The daxpy grid has 256 entries; sweep a manageable subset.
		coarsen = c.Coarsen * 8
	}
	return SweepTiles(p, c.grid(p.Routine), coarsen)
}

// ---------------------------------------------------------------------------
// Figure 1: cuBLASXt performance vs tile size.

// Fig1Row is one point of the Fig. 1 sweep.
type Fig1Row struct {
	Testbed string
	Size    int
	T       int
	Gflops  float64
}

// Fig1StaticT is the static tile size the paper annotates in Fig. 1.
const Fig1StaticT = 4096

// Fig1 sweeps cuBLASXt dgemm performance over tile sizes for the paper's
// showcase problem sizes on this campaign's testbed.
func (c *Campaign) Fig1() ([]Fig1Row, error) {
	sizes := []int{8192, 16384}
	if c.Fast {
		sizes = []int{8192}
	}
	// Enumerate the full work-list, prefetch it through the pool, then
	// assemble rows sequentially from the warm cache.
	type sweep struct {
		p     Problem
		tiles []int
	}
	var sweeps []sweep
	var cells []MeasureCell
	for _, s := range sizes {
		p := Problem{
			Routine: "dgemm", Dtype: kernelmodel.F64, M: s, N: s, K: s,
			Locs: []model.Loc{model.OnHost, model.OnHost, model.OnHost}, Tag: "square",
		}
		// Unlike the scheduler validation sweeps, Fig. 1 extends to the
		// full problem size: cuBLASXt accepts any block dimension, and the
		// paper's figure shows the degradation on both sides of the
		// break-point.
		var tiles []int
		for i, T := range c.grid(p.Routine) {
			if i%c.Coarsen == 0 && T <= s {
				tiles = append(tiles, T)
				cells = append(cells, MeasureCell{LibCuBLASXt, p, T})
			}
		}
		sweeps = append(sweeps, sweep{p, tiles})
	}
	if err := c.prefetch(cells); err != nil {
		return nil, err
	}
	var rows []Fig1Row
	for _, sw := range sweeps {
		for _, T := range sw.tiles {
			res, err := c.Runner.Measure(LibCuBLASXt, sw.p, T)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig1Row{
				Testbed: c.Runner.TB.Name, Size: sw.p.M, T: T,
				Gflops: res.Gflops(sw.p.M, sw.p.N, sw.p.K),
			})
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 2: reuse-aware offload timeline.

// Fig2 runs one instrumented reuse-aware dgemm and returns the ASCII
// timeline plus the dominant-engine phase progression.
func (c *Campaign) Fig2(size, T, width int) (string, []trace.Phase, error) {
	eng := sim.New()
	dev := device.New(eng, c.Runner.TB, 7, false)
	tr := trace.Attach(dev)
	ctx := sched.NewContext(cudart.New(dev), false)
	_, err := ctx.Run(sched.GemmOpts{
		Dtype: kernelmodel.F64, M: size, N: size, K: size, Alpha: 1, Beta: 1,
		A: operand.HostMatrix(size, size, nil),
		B: operand.HostMatrix(size, size, nil),
		C: operand.HostMatrix(size, size, nil),
		T: T,
	})
	if err != nil {
		return "", nil, err
	}
	return tr.Gantt(width), tr.Phases(10), nil
}

// ---------------------------------------------------------------------------
// Figures 4 and 5: model prediction error distributions.

// ErrSample is one model-error observation.
type ErrSample struct {
	Routine string
	Model   model.Kind
	Problem string
	T       int
	// ErrPct is 100*(predicted-measured)/measured.
	ErrPct float64
}

// sweepCells enumerates the (problem, T) measurement work-list of a
// validation sweep against one library.
func (c *Campaign) sweepCells(problems []Problem, lib Lib) []MeasureCell {
	var cells []MeasureCell
	for _, p := range problems {
		for _, T := range c.sweep(p) {
			cells = append(cells, MeasureCell{lib, p, T})
		}
	}
	return cells
}

// modelErrors computes the error distribution of the given models against
// the measured system for every (problem, T) pair.
func (c *Campaign) modelErrors(problems []Problem, lib Lib, kinds []model.Kind) ([]ErrSample, error) {
	if err := c.prefetch(c.sweepCells(problems, lib)); err != nil {
		return nil, err
	}
	var out []ErrSample
	for _, p := range problems {
		prm := p.Params()
		sm, err := c.Pred.SubModels(p.Routine, c.Runner.FullKernelTime(p))
		if err != nil {
			return nil, err
		}
		for _, T := range c.sweep(p) {
			meas, err := c.Runner.Measure(lib, p, T)
			if err != nil {
				return nil, err
			}
			for _, kind := range kinds {
				pred, err := model.Predict(kind, &prm, sm, T)
				if err != nil {
					return nil, fmt.Errorf("eval: %s at T=%d on %s: %w", kind, T, p.Name(), err)
				}
				out = append(out, ErrSample{
					Routine: p.Routine, Model: kind, Problem: p.Name(), T: T,
					ErrPct: stats.RelErrPercent(pred, meas.Seconds),
				})
			}
		}
	}
	return out, nil
}

// Fig4 validates the BTS-Model against the CSO-Model on systems without
// data reuse: daxpy (the CoCoPeLia level-1 path has no reuse) and the
// no-reuse gemm wrapper (the per-sub-kernel traffic pattern of cuBLASXt in
// the paper's setup).
func (c *Campaign) Fig4() ([]ErrSample, error) {
	kinds := []model.Kind{model.CSO, model.BTS}
	// Prefetch the union of the three sweeps so the pool sees the whole
	// figure's work-list at once rather than three smaller fan-outs.
	cells := c.sweepCells(DaxpyValidationSet(c.Fast), LibCoCoPeLia)
	for _, routine := range []string{"sgemm", "dgemm"} {
		cells = append(cells, c.sweepCells(GemmValidationSet(routine, c.Fast), LibNoReuse)...)
	}
	if err := c.prefetch(cells); err != nil {
		return nil, err
	}
	out, err := c.modelErrors(DaxpyValidationSet(c.Fast), LibCoCoPeLia, kinds)
	if err != nil {
		return nil, err
	}
	for _, routine := range []string{"sgemm", "dgemm"} {
		more, err := c.modelErrors(GemmValidationSet(routine, c.Fast), LibNoReuse, kinds)
		if err != nil {
			return nil, err
		}
		out = append(out, more...)
	}
	return out, nil
}

// Fig4Gemv extends the Fig. 4 validation to level-2 BLAS, which the paper
// models with Eq. 4 (Section III-C) but does not evaluate: BTS vs CSO
// error against the measured CoCoPeLia dgemv path.
func (c *Campaign) Fig4Gemv() ([]ErrSample, error) {
	return c.modelErrors(GemvValidationSet(c.Fast), LibCoCoPeLia,
		[]model.Kind{model.CSO, model.BTS})
}

// Fig5 validates the DR-Model against the CSO-Model on the reuse-aware
// CoCoPeLia gemm implementations.
func (c *Campaign) Fig5() ([]ErrSample, error) {
	kinds := []model.Kind{model.CSO, model.DR}
	var cells []MeasureCell
	for _, routine := range []string{"sgemm", "dgemm"} {
		cells = append(cells, c.sweepCells(GemmValidationSet(routine, c.Fast), LibCoCoPeLia)...)
	}
	if err := c.prefetch(cells); err != nil {
		return nil, err
	}
	var out []ErrSample
	for _, routine := range []string{"sgemm", "dgemm"} {
		more, err := c.modelErrors(GemmValidationSet(routine, c.Fast), LibCoCoPeLia, kinds)
		if err != nil {
			return nil, err
		}
		out = append(out, more...)
	}
	return out, nil
}

// GroupErrors buckets samples by (routine, model) and summarizes each
// bucket (the text rendering of the violin plots).
func GroupErrors(samples []ErrSample) map[string]stats.Summary {
	buckets := map[string][]float64{}
	for _, s := range samples {
		key := fmt.Sprintf("%s/%s", s.Routine, s.Model)
		buckets[key] = append(buckets[key], s.ErrPct)
	}
	out := map[string]stats.Summary{}
	for k, v := range buckets {
		out[k] = stats.Summarize(v)
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 6: tile-size selection validation.

// Fig6Row reports one problem's performance under every selection policy.
type Fig6Row struct {
	Problem Problem
	// GflopsStatic is measured performance at the static T=2048 baseline.
	GflopsStatic float64
	// GflopsOpt is measured performance at the exhaustively found T_opt.
	GflopsOpt float64
	TOpt      int
	// PerModel holds measured performance (and the selected T) for the
	// tile size each model picks.
	PerModel map[model.Kind]Fig6Cell
}

// Fig6Cell is one model's selection outcome.
type Fig6Cell struct {
	T      int
	Gflops float64
}

// Fig6StaticT is the static baseline tile size (used by BLASX).
const Fig6StaticT = 2048

// Fig6 validates tile-size selection for one gemm routine on this
// campaign's testbed: measured performance with the static tile, the
// exhaustive optimum, and each model's selection.
func (c *Campaign) Fig6(routine string) ([]Fig6Row, error) {
	problems := GemmValidationSet(routine, c.Fast)

	// Enumerate every problem's measured tile set up front — the static
	// baseline, the sweep grid, and (because each model's arg-min is
	// restricted to the same grid) every model selection — prefetch the
	// union, then assemble sequentially from the warm cache.
	type f6work struct {
		p       Problem
		staticT int
		sweep   []int
	}
	var works []f6work
	var cells []MeasureCell
	for _, p := range problems {
		prm := p.Params()
		sweep := c.sweep(p)
		if len(sweep) == 0 {
			continue
		}
		staticT := Fig6StaticT
		if m := int(prm.MinDim()); m < staticT {
			staticT = m
		}
		// The exhaustive search must consider the static tile too, so
		// T_opt is by construction at least as good as the baseline even
		// on coarsened sweep grids.
		if !contains(sweep, staticT) {
			sweep = append(sweep, staticT)
		}
		works = append(works, f6work{p, staticT, sweep})
		for _, T := range sweep {
			cells = append(cells, MeasureCell{LibCoCoPeLia, p, T})
		}
	}
	if err := c.prefetch(cells); err != nil {
		return nil, err
	}

	var rows []Fig6Row
	for _, w := range works {
		p, sweep, staticT := w.p, w.sweep, w.staticT
		prm := p.Params()
		row := Fig6Row{Problem: p, PerModel: map[model.Kind]Fig6Cell{}}

		res, err := c.Runner.Measure(LibCoCoPeLia, p, staticT)
		if err != nil {
			return nil, err
		}
		row.GflopsStatic = res.Gflops(p.M, p.N, p.K)

		// Exhaustive T_opt over the sweep grid.
		best := math.Inf(1)
		for _, T := range sweep {
			res, err := c.Runner.Measure(LibCoCoPeLia, p, T)
			if err != nil {
				return nil, err
			}
			if res.Seconds < best {
				best = res.Seconds
				row.TOpt = T
			}
		}
		row.GflopsOpt = 2 * float64(p.M) * float64(p.N) * float64(p.K) / best / 1e9

		// Each model's selection, restricted to the same sweep grid so
		// model quality (not grid resolution) is compared.
		sm, err := c.Pred.SubModels(p.Routine, c.Runner.FullKernelTime(p))
		if err != nil {
			return nil, err
		}
		for _, kind := range model.Kinds() {
			bestT, bestPred := 0, math.Inf(1)
			for _, T := range sweep {
				pred, err := model.Predict(kind, &prm, sm, T)
				if err != nil {
					return nil, err
				}
				if pred < bestPred {
					bestT, bestPred = T, pred
				}
			}
			res, err := c.Runner.Measure(LibCoCoPeLia, p, bestT)
			if err != nil {
				return nil, err
			}
			row.PerModel[kind] = Fig6Cell{T: bestT, Gflops: res.Gflops(p.M, p.N, p.K)}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 7 and Table IV: end-to-end library comparison.

// Fig7Row reports one problem's performance across the libraries.
type Fig7Row struct {
	Problem Problem
	// Gflops per library; for daxpy problems the values are GB/s-equival-
	// ent GFLOP/s of the 2N flops.
	Gflops map[Lib]float64
	// TCoCo is CoCoPeLia's auto-selected tile; TXt is cuBLASXt's
	// best-of-10.
	TCoCo, TXt int
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// xtTileCandidates returns the ten tile sizes the paper grants cuBLASXt's
// near-exhaustive tuning.
func xtTileCandidates(p Problem) []int {
	var out []int
	prm := p.Params()
	maxT := int(float64(prm.MinDim()) / 1.5)
	for T := 512; T <= 5120 && T <= maxT; T += 512 {
		out = append(out, T)
	}
	if len(out) == 0 {
		out = []int{min(256, int(prm.MinDim()))}
	}
	return out
}

// Fig7Gemm compares CoCoPeLia (auto-tiled via the DR model), cuBLASXt
// (best of ten tiles) and BLASX (static tile) on the extended gemm set.
func (c *Campaign) Fig7Gemm(routine string) ([]Fig7Row, error) {
	problems := GemmPerfSet(routine, c.Fast)
	// Enumerate the work-list: CoCoPeLia at the DR model's selection
	// (pure prediction, no measurement needed to compute), cuBLASXt over
	// its candidate tiles, BLASX at its static tile.
	var cells []MeasureCell
	for _, p := range problems {
		prm := p.Params()
		sel, err := c.Pred.Select(model.DR, &prm)
		if err != nil {
			return nil, err
		}
		cells = append(cells, MeasureCell{LibCoCoPeLia, p, sel.T})
		for _, T := range xtTileCandidates(p) {
			cells = append(cells, MeasureCell{LibCuBLASXt, p, T})
		}
		cells = append(cells, MeasureCell{LibBLASX, p, 0})
	}
	if err := c.prefetch(cells); err != nil {
		return nil, err
	}
	var rows []Fig7Row
	for _, p := range problems {
		prm := p.Params()
		row := Fig7Row{Problem: p, Gflops: map[Lib]float64{}}

		// CoCoPeLia: runtime tile selection with the DR model.
		sel, err := c.Pred.Select(model.DR, &prm)
		if err != nil {
			return nil, err
		}
		row.TCoCo = sel.T
		res, err := c.Runner.Measure(LibCoCoPeLia, p, sel.T)
		if err != nil {
			return nil, err
		}
		row.Gflops[LibCoCoPeLia] = res.Gflops(p.M, p.N, p.K)

		// cuBLASXt: best of ten tile sizes (measured advantage).
		bestG := 0.0
		for _, T := range xtTileCandidates(p) {
			res, err := c.Runner.Measure(LibCuBLASXt, p, T)
			if err != nil {
				return nil, err
			}
			if g := res.Gflops(p.M, p.N, p.K); g > bestG {
				bestG = g
				row.TXt = T
			}
		}
		row.Gflops[LibCuBLASXt] = bestG

		// BLASX: static tile.
		res, err = c.Runner.Measure(LibBLASX, p, 0)
		if err != nil {
			return nil, err
		}
		row.Gflops[LibBLASX] = res.Gflops(p.M, p.N, p.K)
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig7Daxpy compares CoCoPeLia daxpy (auto-tiled via the BTS model)
// against the unified-memory-with-prefetch baseline.
func (c *Campaign) Fig7Daxpy() ([]Fig7Row, error) {
	problems := DaxpyPerfSet(c.Fast)
	var cells []MeasureCell
	for _, p := range problems {
		prm := p.Params()
		sel, err := c.Pred.Select(model.BTS, &prm)
		if err != nil {
			return nil, err
		}
		cells = append(cells,
			MeasureCell{LibCoCoPeLia, p, sel.T},
			MeasureCell{LibUnified, p, 0})
	}
	if err := c.prefetch(cells); err != nil {
		return nil, err
	}
	var rows []Fig7Row
	for _, p := range problems {
		prm := p.Params()
		row := Fig7Row{Problem: p, Gflops: map[Lib]float64{}}
		sel, err := c.Pred.Select(model.BTS, &prm)
		if err != nil {
			return nil, err
		}
		row.TCoCo = sel.T
		res, err := c.Runner.Measure(LibCoCoPeLia, p, sel.T)
		if err != nil {
			return nil, err
		}
		row.Gflops[LibCoCoPeLia] = p.Flops() / res.Seconds / 1e9
		res, err = c.Runner.Measure(LibUnified, p, 0)
		if err != nil {
			return nil, err
		}
		row.Gflops[LibUnified] = p.Flops() / res.Seconds / 1e9
		rows = append(rows, row)
	}
	return rows, nil
}

// Table4Row summarizes CoCoPeLia's improvement over the best competing
// library, as the geometric mean over a problem family.
type Table4Row struct {
	Testbed string
	Routine string
	Offload string // "full" or "partial"
	// ImprovementPct is the geomean percentage improvement of CoCoPeLia
	// over the best competitor per problem.
	ImprovementPct float64
	Problems       int
}

// Table4 aggregates Fig. 7 rows into the paper's Table IV.
func Table4(testbed, routine string, rows []Fig7Row) []Table4Row {
	groups := map[string][]float64{}
	for _, row := range rows {
		coco := row.Gflops[LibCoCoPeLia]
		best := 0.0
		for lib, g := range row.Gflops {
			if lib != LibCoCoPeLia && g > best {
				best = g
			}
		}
		if best <= 0 || coco <= 0 {
			continue
		}
		key := "partial"
		if row.Problem.FullOffload() {
			key = "full"
		}
		groups[key] = append(groups[key], coco/best)
	}
	var out []Table4Row
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, Table4Row{
			Testbed: testbed, Routine: routine, Offload: k,
			ImprovementPct: 100 * (stats.GeoMean(groups[k]) - 1),
			Problems:       len(groups[k]),
		})
	}
	return out
}
