// Package eval implements the paper's evaluation campaign (Section V):
// validation problem sets, measured runs of every library on the simulated
// testbeds, model-error computation, tile-selection validation, and the
// harnesses that regenerate every table and figure.
package eval

import (
	"fmt"

	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/model"
)

// Problem is one validation problem: a routine invocation with fixed
// dimensions and initial data locations.
type Problem struct {
	Routine string
	Dtype   kernelmodel.Dtype
	// M, N, K are the gemm dimensions; level-1 problems use only N.
	M, N, K int
	// Locs holds the operand locations (A, B, C for gemm; X, Y for axpy).
	Locs []model.Loc
	// Tag annotates the problem's family ("square", "fat-by-thin",
	// "thin-by-fat") for reporting.
	Tag string
}

// Name renders a compact problem identifier.
func (p Problem) Name() string {
	locs := ""
	for _, l := range p.Locs {
		if l == model.OnDevice {
			locs += "D"
		} else {
			locs += "H"
		}
	}
	if p.Routine == "daxpy" {
		return fmt.Sprintf("%s n=%dMi locs=%s", p.Routine, p.N>>20, locs)
	}
	return fmt.Sprintf("%s %dx%dx%d locs=%s %s", p.Routine, p.M, p.N, p.K, locs, p.Tag)
}

// FullOffload reports whether every operand starts on the host.
func (p Problem) FullOffload() bool {
	for _, l := range p.Locs {
		if l != model.OnHost {
			return false
		}
	}
	return true
}

// Params builds the Table I parameter struct for the problem.
func (p Problem) Params() model.Params {
	switch p.Routine {
	case "daxpy":
		return model.AxpyParams(p.Routine, p.Dtype.Size(), int64(p.N), p.Locs[0], p.Locs[1])
	case "dgemv":
		return model.GemvParams(p.Routine, p.Dtype.Size(), int64(p.M), int64(p.N),
			p.Locs[0], p.Locs[1], p.Locs[2])
	default:
		return model.GemmParams(p.Routine, p.Dtype.Size(),
			int64(p.M), int64(p.N), int64(p.K), p.Locs[0], p.Locs[1], p.Locs[2])
	}
}

// Flops returns the problem's floating-point operation count.
func (p Problem) Flops() float64 {
	switch p.Routine {
	case "daxpy":
		return 2 * float64(p.N)
	case "dgemv":
		return 2 * float64(p.M) * float64(p.N)
	case "dpotrf":
		n := float64(p.N)
		return n * n * n / 3
	case "dgetrf":
		n := float64(p.N)
		return 2 * n * n * n / 3
	case "dtrsm":
		return float64(p.M) * float64(p.M) * float64(p.N)
	}
	return 2 * float64(p.M) * float64(p.N) * float64(p.K)
}

// gemmDtype maps a gemm routine name to its dtype.
func gemmDtype(routine string) kernelmodel.Dtype {
	if routine == "sgemm" {
		return kernelmodel.F32
	}
	return kernelmodel.F64
}

// roundTo rounds n to the nearest positive multiple of q.
func roundTo(n float64, q int) int {
	v := (int(n) + q/2) / q * q
	if v < q {
		v = q
	}
	return v
}

// GemmSquareSizes returns the validation square sizes of Section V-B:
// M = N = K = {4, 8, 12, 16} * 1024. fast keeps the two extremes.
func GemmSquareSizes(fast bool) []int {
	if fast {
		return []int{4096, 16384}
	}
	return []int{4096, 8192, 12288, 16384}
}

// GemmShapeRatios builds the fat-by-thin (M = N > K) and thin-by-fat
// (M = N < K) validation shapes of Section V-B, with r in {3, 4, 5} and
// the FLOP volume matched to S^3. Dimensions are rounded to multiples of
// 256 so they live on the benchmark grids.
func GemmShapeRatios(s int, fast bool) []Problem {
	ratios := []float64{3, 4, 5}
	if fast {
		ratios = []float64{4}
	}
	var out []Problem
	for _, r := range ratios {
		// Fat-by-thin: K = M/r with M^2*K = S^3  =>  M = S * r^(1/3).
		m := roundTo(float64(s)*cbrt(r), 256)
		k := roundTo(float64(m)/r, 256)
		out = append(out, Problem{M: m, N: m, K: k, Tag: "fat-by-thin"})
		// Thin-by-fat: K = M*r with M^2*K = S^3  =>  M = S / r^(1/3).
		m = roundTo(float64(s)/cbrt(r), 256)
		k = roundTo(float64(m)*r, 256)
		out = append(out, Problem{M: m, N: m, K: k, Tag: "thin-by-fat"})
	}
	return out
}

func cbrt(x float64) float64 {
	// math.Cbrt without importing math twice; local helper for clarity.
	if x <= 0 {
		return 0
	}
	g := x
	for i := 0; i < 64; i++ {
		g = (2*g + x/(g*g)) / 3
	}
	return g
}

// GemmValidationSet returns the Section V-B validation problems for a gemm
// routine: square sizes across all seven location combinations, plus the
// fat/thin shape set with all data host-resident.
func GemmValidationSet(routine string, fast bool) []Problem {
	dt := gemmDtype(routine)
	var out []Problem
	combos := model.LocCombos(3)
	if fast {
		combos = [][]model.Loc{
			{model.OnHost, model.OnHost, model.OnHost},
			{model.OnDevice, model.OnHost, model.OnHost},
			{model.OnDevice, model.OnDevice, model.OnHost},
		}
	}
	for _, s := range GemmSquareSizes(fast) {
		for _, locs := range combos {
			out = append(out, Problem{
				Routine: routine, Dtype: dt, M: s, N: s, K: s,
				Locs: append([]model.Loc(nil), locs...), Tag: "square",
			})
		}
	}
	sizes := GemmSquareSizes(fast)
	for _, s := range sizes {
		for _, sp := range GemmShapeRatios(s, fast) {
			sp.Routine = routine
			sp.Dtype = dt
			sp.Locs = []model.Loc{model.OnHost, model.OnHost, model.OnHost}
			out = append(out, sp)
		}
	}
	return out
}

// DaxpyValidationSet returns the Section V-B daxpy problems: five large
// vector lengths across the three location combinations.
func DaxpyValidationSet(fast bool) []Problem {
	sizes := []int{8 << 20, 32 << 20, 64 << 20, 128 << 20, 256 << 20}
	if fast {
		sizes = []int{32 << 20, 256 << 20}
	}
	var out []Problem
	for _, n := range sizes {
		for _, locs := range model.LocCombos(2) {
			out = append(out, Problem{
				Routine: "daxpy", Dtype: kernelmodel.F64, N: n,
				Locs: append([]model.Loc(nil), locs...), Tag: "vector",
			})
		}
	}
	return out
}

// GemvValidationSet returns level-2 validation problems (an extension: the
// paper models level-2 BLAS with Eq. 4 — Section III-C — but does not
// evaluate it): square matrices across all seven location combinations.
func GemvValidationSet(fast bool) []Problem {
	sizes := []int{8192, 16384, 24576}
	if fast {
		sizes = []int{16384}
	}
	combos := model.LocCombos(3)
	if fast {
		combos = [][]model.Loc{
			{model.OnHost, model.OnHost, model.OnHost},
			{model.OnDevice, model.OnHost, model.OnHost},
		}
	}
	var out []Problem
	for _, s := range sizes {
		for _, locs := range combos {
			out = append(out, Problem{
				Routine: "dgemv", Dtype: kernelmodel.F64, M: s, N: s,
				Locs: append([]model.Loc(nil), locs...), Tag: "matvec",
			})
		}
	}
	return out
}

// FactorSet returns the tiled-factorization problem set: the three
// task-graph routines (unpivoted, lower-triangular variants) at square
// sizes with every operand host-resident — the full-offload case the
// factorization planners target.
func FactorSet(fast bool) []Problem {
	sizes := []int{4096, 8192}
	if fast {
		sizes = []int{4096}
	}
	var out []Problem
	for _, s := range sizes {
		out = append(out,
			Problem{Routine: "dpotrf", Dtype: kernelmodel.F64, M: s, N: s,
				Locs: []model.Loc{model.OnHost}, Tag: "factor"},
			Problem{Routine: "dgetrf", Dtype: kernelmodel.F64, M: s, N: s,
				Locs: []model.Loc{model.OnHost}, Tag: "factor"},
			Problem{Routine: "dtrsm", Dtype: kernelmodel.F64, M: s, N: s,
				Locs: []model.Loc{model.OnHost, model.OnHost}, Tag: "factor"},
		)
	}
	return out
}

// GemmPerfSet returns the extended end-to-end performance set of Section
// V-E: square sizes 4K..16K (step 512) across all seven location
// combinations, plus the shape-ratio problems.
func GemmPerfSet(routine string, fast bool) []Problem {
	dt := gemmDtype(routine)
	var sizes []int
	if fast {
		sizes = []int{4096, 8192, 16384}
	} else {
		for s := 4096; s <= 16384; s += 512 {
			sizes = append(sizes, s)
		}
	}
	combos := model.LocCombos(3)
	if fast {
		combos = [][]model.Loc{
			{model.OnHost, model.OnHost, model.OnHost},
			{model.OnDevice, model.OnHost, model.OnHost},
			{model.OnDevice, model.OnDevice, model.OnHost},
		}
	}
	var out []Problem
	for _, s := range sizes {
		for _, locs := range combos {
			out = append(out, Problem{
				Routine: routine, Dtype: dt, M: s, N: s, K: s,
				Locs: append([]model.Loc(nil), locs...), Tag: "square",
			})
		}
	}
	for _, s := range GemmSquareSizes(fast) {
		for _, sp := range GemmShapeRatios(s, fast) {
			sp.Routine = routine
			sp.Dtype = dt
			sp.Locs = []model.Loc{model.OnHost, model.OnHost, model.OnHost}
			out = append(out, sp)
		}
	}
	return out
}

// DaxpyPerfSet returns the extended daxpy performance set: eleven large
// vector lengths across the three location combinations.
func DaxpyPerfSet(fast bool) []Problem {
	var sizes []int
	if fast {
		sizes = []int{64 << 20, 256 << 20}
	} else {
		for i := 1; i <= 11; i++ {
			sizes = append(sizes, i*(32<<20))
		}
	}
	var out []Problem
	for _, n := range sizes {
		for _, locs := range model.LocCombos(2) {
			out = append(out, Problem{
				Routine: "daxpy", Dtype: kernelmodel.F64, N: n,
				Locs: append([]model.Loc(nil), locs...), Tag: "vector",
			})
		}
	}
	return out
}

// CampaignCells builds the campaign benchmark's timing-only work-list: a
// tile-size sweep of every level-3 library over square dgemm problems
// across the host/device location combinations, plus a CoCoPeLia daxpy
// sweep — the same cell shapes the Fig. 4-7 campaigns are made of, scaled
// to run in seconds rather than minutes. The full list is 114 cells firing 4,393,143
// events; smoke is a one-size, one-library subset.
func CampaignCells(smoke bool) []MeasureCell {
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
	libs := []Lib{LibCoCoPeLia, LibNoReuse, LibCuBLASXt}
	if smoke {
		libs = []Lib{LibCoCoPeLia}
	}
	var cells []MeasureCell
	for _, s := range sizes {
		for _, locs := range combos {
			p := Problem{
				Routine: "dgemm", Dtype: kernelmodel.F64, M: s, N: s, K: s,
				Locs: append([]model.Loc(nil), locs...), Tag: "square",
			}
			for _, lib := range libs {
				for _, T := range tiles[s] {
					cells = append(cells, MeasureCell{Lib: lib, P: p, T: T})
				}
			}
			if !smoke {
				cells = append(cells, MeasureCell{Lib: LibBLASX, P: p, T: 0})
			}
		}
	}
	if !smoke {
		for _, locs := range model.LocCombos(2) {
			p := Problem{
				Routine: "daxpy", Dtype: kernelmodel.F64, N: 32 << 20,
				Locs: append([]model.Loc(nil), locs...), Tag: "vector",
			}
			for _, T := range []int{1 << 20, 4 << 20} {
				cells = append(cells, MeasureCell{Lib: LibCoCoPeLia, P: p, T: T})
			}
		}
	}
	return cells
}
