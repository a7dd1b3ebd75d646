package eval

import (
	"fmt"
	"math"
	"strings"

	"cocopelia/internal/microbench"
	"cocopelia/internal/model"
	"cocopelia/internal/parallel"
	"cocopelia/internal/predictor"
)

// This file implements the future-machines sensitivity study motivated in
// the paper's Section II-A: "static tiling sizes offer no performance
// guarantee for future machines with different transfer
// bandwidth/computation ratios and can result in increased slowdowns in
// such cases. These observations make a compelling case for dynamic tiling
// size selection, driven by accurate performance models."
//
// We synthesize hypothetical machines by scaling a testbed's link
// bandwidth, re-run the full CoCoPeLia pipeline on each (deployment ->
// model -> selection -> measured execution), and compare the static
// T=2048 policy against the model selection and the exhaustive optimum.

// SensitivityRow is one hypothetical machine's outcome.
type SensitivityRow struct {
	// BWScale is the link-bandwidth multiplier applied to both directions.
	BWScale float64
	// BytesPerFlop is the machine's h2d bandwidth per double-precision
	// FLOP (the ratio the paper argues determines the right tile).
	BytesPerFlop float64
	// TStatic/TModel/TOpt are the tile choices.
	TStatic, TModel, TOpt int
	// GflopsStatic/GflopsModel/GflopsOpt are the measured performances.
	GflopsStatic, GflopsModel, GflopsOpt float64
	// StaticLossPct is how much the static policy loses to the optimum;
	// ModelLossPct likewise for the model selection.
	StaticLossPct, ModelLossPct float64
}

// Sensitivity runs the future-machines study on scaled clones of the
// campaign's testbed for one full-offload dgemm problem. The hypothetical
// machines are mutually independent — each gets its own deployment,
// predictor, and runner — so the campaign fans them across the pool; rows
// come back in scale order regardless of completion order, and every
// machine's noise seeds derive from its own (scale-tagged) testbed name,
// keeping the output identical to the serial run.
func (c *Campaign) Sensitivity(size int, scales []float64) ([]SensitivityRow, error) {
	if len(scales) == 0 {
		scales = []float64{0.25, 0.5, 1, 2, 4}
	}
	p := Problem{
		Routine: "dgemm", Dtype: gemmDtype("dgemm"), M: size, N: size, K: size,
		Locs: []model.Loc{model.OnHost, model.OnHost, model.OnHost}, Tag: "square",
	}
	prm := p.Params()
	return parallel.Map(c.Pool, scales, func(_ int, scale float64) (SensitivityRow, error) {
		tb := *c.Runner.TB
		tb.Name = fmt.Sprintf("%s (bw x%g)", c.Runner.TB.Name, scale)
		tb.H2D.BandwidthBps *= scale
		tb.D2H.BandwidthBps *= scale

		// Full pipeline on the hypothetical machine: deploy, select,
		// measure. The deployment runs serially, and so do each cell's
		// repetitions when the outer fan-out over scales runs on a
		// multi-worker pool: it already saturates the cores.
		cfg := microbench.DefaultConfig()
		cfg.Workers = 1
		dep := microbench.Run(&tb, cfg)
		pred := predictor.New(dep)
		runner := NewRunner(&tb)
		runner.Reps = c.Runner.Reps
		fanOut := c.Pool.Workers() <= 1

		sel, err := pred.Select(model.DR, &prm)
		if err != nil {
			return SensitivityRow{}, err
		}
		row := SensitivityRow{
			BWScale:      scale,
			BytesPerFlop: tb.H2D.BandwidthBps / tb.GPU.PeakFlops64,
			TModel:       sel.T,
			TStatic:      Fig6StaticT,
		}
		staticRes, err := runner.measure(LibCoCoPeLia, p, row.TStatic, fanOut)
		if err != nil {
			return SensitivityRow{}, err
		}
		row.GflopsStatic = staticRes.Gflops(p.M, p.N, p.K)
		modelRes, err := runner.measure(LibCoCoPeLia, p, sel.T, fanOut)
		if err != nil {
			return SensitivityRow{}, err
		}
		row.GflopsModel = modelRes.Gflops(p.M, p.N, p.K)

		// Exhaustive optimum over the sweep grid (plus the two policy
		// picks).
		grid := SweepTiles(p, microbench.GemmTileGrid(), c.Coarsen)
		grid = append(grid, row.TStatic, sel.T)
		best := math.Inf(1)
		for _, T := range grid {
			res, err := runner.measure(LibCoCoPeLia, p, T, fanOut)
			if err != nil {
				return SensitivityRow{}, err
			}
			if res.Seconds < best {
				best = res.Seconds
				row.TOpt = T
			}
		}
		row.GflopsOpt = 2 * float64(p.M) * float64(p.N) * float64(p.K) / best / 1e9
		row.StaticLossPct = 100 * (1 - row.GflopsStatic/row.GflopsOpt)
		row.ModelLossPct = 100 * (1 - row.GflopsModel/row.GflopsOpt)
		return row, nil
	})
}

// RenderSensitivity renders the future-machines study.
func RenderSensitivity(testbed string, size int, rows []SensitivityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "future-machines sensitivity (%s, dgemm %d^3, full offload)\n", testbed, size)
	fmt.Fprintf(&b, "%8s %14s %8s %8s %8s %12s %12s %12s %12s %12s\n",
		"bw x", "B/FLOP", "T_stat", "T_model", "T_opt",
		"GF/s stat", "GF/s model", "GF/s opt", "stat loss", "model loss")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8g %14.5f %8d %8d %8d %12.0f %12.0f %12.0f %11.1f%% %11.1f%%\n",
			r.BWScale, r.BytesPerFlop, r.TStatic, r.TModel, r.TOpt,
			r.GflopsStatic, r.GflopsModel, r.GflopsOpt,
			r.StaticLossPct, r.ModelLossPct)
	}
	return b.String()
}
