package eval

import (
	"math"
	"strings"
	"sync"
	"testing"

	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/microbench"
	"cocopelia/internal/model"
	"cocopelia/internal/stats"
	"cocopelia/internal/trace"
)

// NewCampaign deploys CoCoPeLia on the testbed (running the micro-benchmark
// phase) and returns a ready campaign.
func NewCampaign(tb *machine.Testbed, fast bool) *Campaign {
	dep := microbench.Run(tb, microbench.DefaultConfig())
	return NewCampaignWithDeployment(tb, dep, fast)
}

// Campaigns are expensive to deploy; share them across the package tests.
var (
	onceI, onceII sync.Once
	campI, campII *Campaign
)

func testbedI(t *testing.T) *Campaign {
	t.Helper()
	onceI.Do(func() { campI = NewCampaign(machine.TestbedI(), true) })
	return campI
}

func testbedII(t *testing.T) *Campaign {
	t.Helper()
	onceII.Do(func() { campII = NewCampaign(machine.TestbedII(), true) })
	return campII
}

func TestProblemHelpers(t *testing.T) {
	p := Problem{Routine: "dgemm", Dtype: kernelmodel.F64, M: 4096, N: 4096, K: 4096,
		Locs: []model.Loc{model.OnHost, model.OnDevice, model.OnHost}, Tag: "square"}
	if p.FullOffload() {
		t.Error("mixed locations should not be full offload")
	}
	if !strings.Contains(p.Name(), "HDH") {
		t.Errorf("name %q should encode locations", p.Name())
	}
	if p.Flops() != 2*4096.0*4096*4096 {
		t.Error("flops wrong")
	}
	prm := p.Params()
	if prm.Level != 3 || prm.Operands[1].Get {
		t.Error("params mapping wrong")
	}
	ax := Problem{Routine: "daxpy", Dtype: kernelmodel.F64, N: 1 << 20,
		Locs: []model.Loc{model.OnHost, model.OnHost}}
	if ax.Params().Level != 1 || ax.Flops() != 2*float64(1<<20) {
		t.Error("axpy problem mapping wrong")
	}
}

func TestValidationSetSizes(t *testing.T) {
	// Full (non-fast) sets must match the paper's counts.
	gemm := GemmValidationSet("dgemm", false)
	if len(gemm) != 4*7+4*6 {
		t.Errorf("gemm validation set has %d problems, want %d", len(gemm), 4*7+4*6)
	}
	daxpy := DaxpyValidationSet(false)
	if len(daxpy) != 15 {
		t.Errorf("daxpy validation set has %d problems, want 15", len(daxpy))
	}
	perf := GemmPerfSet("sgemm", false)
	if len(perf) != 25*7+4*6 {
		t.Errorf("gemm perf set has %d problems, want %d", len(perf), 25*7+4*6)
	}
	dperf := DaxpyPerfSet(false)
	if len(dperf) != 33 {
		t.Errorf("daxpy perf set has %d problems, want 33", len(dperf))
	}
}

func TestShapeRatiosBalanceFlops(t *testing.T) {
	for _, s := range []int{8192, 16384} {
		want := float64(s) * float64(s) * float64(s)
		for _, p := range GemmShapeRatios(s, false) {
			got := float64(p.M) * float64(p.N) * float64(p.K)
			if r := got / want; r < 0.8 || r > 1.25 {
				t.Errorf("shape %dx%dx%d volume off by %.2fx from %d^3", p.M, p.N, p.K, r, s)
			}
			if p.Tag == "fat-by-thin" && p.K >= p.M {
				t.Errorf("fat-by-thin should have K < M: %dx%dx%d", p.M, p.N, p.K)
			}
			if p.Tag == "thin-by-fat" && p.K <= p.M {
				t.Errorf("thin-by-fat should have K > M: %dx%dx%d", p.M, p.N, p.K)
			}
		}
	}
}

func TestMeasureCachesAndDeterminism(t *testing.T) {
	c := testbedI(t)
	p := Problem{Routine: "dgemm", Dtype: kernelmodel.F64, M: 4096, N: 4096, K: 4096,
		Locs: []model.Loc{model.OnHost, model.OnHost, model.OnHost}, Tag: "square"}
	a, err := c.Runner.Measure(LibCoCoPeLia, p, 1024)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Runner.Measure(LibCoCoPeLia, p, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cached measurement differs")
	}
	if a.Seconds <= 0 {
		t.Error("non-positive measured time")
	}
}

func TestSweepTilesRespectsFeasibility(t *testing.T) {
	p := Problem{Routine: "dgemm", Dtype: kernelmodel.F64, M: 4096, N: 4096, K: 4096,
		Locs: []model.Loc{model.OnHost, model.OnHost, model.OnHost}}
	grid := []int{256, 512, 1024, 2048, 2730, 2731, 4096}
	tiles := SweepTiles(p, grid, 1)
	for _, T := range tiles {
		if float64(T) > 4096/1.5 {
			t.Errorf("tile %d violates the feasibility rule", T)
		}
	}
	if len(tiles) != 5 {
		t.Errorf("tiles = %v", tiles)
	}
	coarse := SweepTiles(p, grid, 2)
	if len(coarse) >= len(tiles) {
		t.Error("coarsening should reduce the sweep")
	}
}

func TestFig1HasInteriorOptimum(t *testing.T) {
	c := testbedII(t)
	rows, err := c.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("too few sweep points: %d", len(rows))
	}
	// The best tile must be neither the smallest nor the largest of the
	// sweep (the Fig. 1 break-point behaviour).
	bestIdx := 0
	for i, r := range rows {
		if r.Gflops > rows[bestIdx].Gflops {
			bestIdx = i
		}
	}
	if bestIdx == 0 || bestIdx == len(rows)-1 {
		t.Errorf("optimum at sweep edge (idx %d of %d): %+v", bestIdx, len(rows), rows[bestIdx])
	}
}

func TestFig2PhasesShiftTransferToCompute(t *testing.T) {
	c := testbedII(t)
	gantt, phases, err := c.Fig2(8192, 1024, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gantt, "exec") {
		t.Error("gantt missing compute lane")
	}
	if phases[0].Dominant != trace.LaneH2D {
		t.Errorf("run should start transfer-bound, got %s", phases[0].Dominant)
	}
	foundCompute := false
	for _, ph := range phases[len(phases)/2:] {
		if ph.Dominant == trace.LaneCompute {
			foundCompute = true
		}
	}
	if !foundCompute {
		t.Error("run should become compute-bound in its second half")
	}
}

func medians(samples []ErrSample, routine string, kind model.Kind) float64 {
	var v []float64
	for _, s := range samples {
		if s.Routine == routine && s.Model == kind {
			v = append(v, s.ErrPct)
		}
	}
	return stats.Median(v)
}

func TestFig4BTSBeatsCSO(t *testing.T) {
	c := testbedII(t)
	samples, err := c.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	for _, routine := range []string{"daxpy", "sgemm", "dgemm"} {
		cso := medians(samples, routine, model.CSO)
		bts := medians(samples, routine, model.BTS)
		if cso >= 0 {
			t.Errorf("%s: CSO should underpredict (median %.1f%%)", routine, cso)
		}
		if math.Abs(bts) >= math.Abs(cso) {
			t.Errorf("%s: |BTS median| (%.1f%%) should beat |CSO median| (%.1f%%)",
				routine, bts, cso)
		}
	}
	// daxpy predictions should be very accurate, as in the paper.
	if bts := medians(samples, "daxpy", model.BTS); math.Abs(bts) > 5 {
		t.Errorf("daxpy BTS median %.1f%% should be within a few percent", bts)
	}
}

func TestFig5DRBeatsCSO(t *testing.T) {
	c := testbedII(t)
	samples, err := c.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	for _, routine := range []string{"sgemm", "dgemm"} {
		cso := medians(samples, routine, model.CSO)
		dr := medians(samples, routine, model.DR)
		if cso >= 0 {
			t.Errorf("%s: CSO should underpredict the reuse library (median %.1f%%)", routine, cso)
		}
		if math.Abs(dr) >= math.Abs(cso) {
			t.Errorf("%s: |DR median| (%.1f%%) should beat |CSO median| (%.1f%%)", routine, dr, cso)
		}
	}
}

func TestFig6DRNearOptimal(t *testing.T) {
	c := testbedII(t)
	rows, err := c.Fig6("dgemm")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		dr := r.PerModel[model.DR]
		if dr.Gflops < 0.85*r.GflopsOpt {
			t.Errorf("%s: DR selection %.0f GF/s too far below optimum %.0f",
				r.Problem.Name(), dr.Gflops, r.GflopsOpt)
		}
		if r.GflopsOpt+1e-9 < r.GflopsStatic {
			t.Errorf("%s: optimum below static baseline", r.Problem.Name())
		}
	}
}

func TestFig7CoCoPeLiaWins(t *testing.T) {
	c := testbedII(t)
	rows, err := c.Fig7Gemm("dgemm")
	if err != nil {
		t.Fatal(err)
	}
	t4 := Table4(c.Runner.TB.Name, "dgemm", rows)
	var full *Table4Row
	for i := range t4 {
		if t4[i].Offload == "full" {
			full = &t4[i]
		}
	}
	if full == nil {
		t.Fatal("no full-offload group")
	}
	if full.ImprovementPct <= 0 {
		t.Errorf("full-offload improvement %.1f%% should be positive", full.ImprovementPct)
	}
	if full.ImprovementPct > 80 {
		t.Errorf("full-offload improvement %.1f%% implausibly large", full.ImprovementPct)
	}
}

func TestFig7DaxpyBeatsUnified(t *testing.T) {
	c := testbedII(t)
	rows, err := c.Fig7Daxpy()
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	for _, r := range rows {
		if r.Gflops[LibCoCoPeLia] > r.Gflops[LibUnified] {
			wins++
		}
	}
	if wins*2 < len(rows) {
		t.Errorf("CoCoPeLia daxpy wins only %d of %d cases vs unified memory", wins, len(rows))
	}
}

func TestRenderers(t *testing.T) {
	c := testbedII(t)
	f1, err := c.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if s := RenderFig1(f1); !strings.Contains(s, "static T=4096") && !strings.Contains(s, "GFLOP/s") {
		t.Errorf("Fig1 rendering suspicious:\n%s", s)
	}
	samples, err := c.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if s := RenderErrSummary("fig5", samples); !strings.Contains(s, "med") {
		t.Error("error summary missing stats")
	}
	rows, err := c.Fig6("dgemm")
	if err != nil {
		t.Fatal(err)
	}
	if s := RenderFig6("dgemm", rows); !strings.Contains(s, "T_opt") {
		t.Error("Fig6 rendering missing columns")
	}
	f7, err := c.Fig7Gemm("dgemm")
	if err != nil {
		t.Fatal(err)
	}
	if s := RenderFig7("tb", f7, []Lib{LibCoCoPeLia, LibCuBLASXt, LibBLASX}); !strings.Contains(s, "CoCoPeLia") {
		t.Error("Fig7 rendering missing library")
	}
	if s := RenderTable4(Table4("tb", "dgemm", f7)); !strings.Contains(s, "improvement") {
		t.Error("Table4 rendering missing header")
	}
}

func TestCSVWriters(t *testing.T) {
	c := testbedII(t)
	f1, err := c.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	h, rows := Fig1CSV(f1)
	if len(h) != 4 || len(rows) != len(f1) {
		t.Error("Fig1 CSV conversion wrong")
	}
	dir := t.TempDir()
	if err := WriteCSV(dir+"/f1.csv", h, rows); err != nil {
		t.Fatal(err)
	}
}

func TestTable4Aggregation(t *testing.T) {
	mk := func(full bool, coco, other float64) Fig7Row {
		locs := []model.Loc{model.OnHost, model.OnHost, model.OnHost}
		if !full {
			locs[0] = model.OnDevice
		}
		return Fig7Row{
			Problem: Problem{Routine: "dgemm", M: 1, N: 1, K: 1, Locs: locs},
			Gflops:  map[Lib]float64{LibCoCoPeLia: coco, LibCuBLASXt: other, LibBLASX: other / 2},
		}
	}
	rows := []Fig7Row{mk(true, 120, 100), mk(true, 130, 100), mk(false, 105, 100)}
	t4 := Table4("tb", "dgemm", rows)
	if len(t4) != 2 {
		t.Fatalf("want 2 groups, got %d", len(t4))
	}
	for _, r := range t4 {
		switch r.Offload {
		case "full":
			want := 100 * (math.Sqrt(1.2*1.3) - 1)
			if math.Abs(r.ImprovementPct-want) > 1e-9 {
				t.Errorf("full improvement %.2f, want %.2f", r.ImprovementPct, want)
			}
		case "partial":
			if math.Abs(r.ImprovementPct-5) > 1e-9 {
				t.Errorf("partial improvement %.2f, want 5", r.ImprovementPct)
			}
		}
	}
}

func TestXtTileCandidates(t *testing.T) {
	p := Problem{Routine: "dgemm", M: 16384, N: 16384, K: 16384,
		Locs: []model.Loc{model.OnHost, model.OnHost, model.OnHost}}
	c := xtTileCandidates(p)
	if len(c) != 10 {
		t.Errorf("want 10 candidates, got %v", c)
	}
	tiny := Problem{Routine: "dgemm", M: 300, N: 300, K: 300,
		Locs: []model.Loc{model.OnHost, model.OnHost, model.OnHost}}
	c = xtTileCandidates(tiny)
	if len(c) == 0 {
		t.Error("tiny problems still need a candidate")
	}
}

func TestFig4GemvExtension(t *testing.T) {
	// The level-2 extension: BTS must beat CSO on the gemv path too.
	c := testbedII(t)
	samples, err := c.Fig4Gemv()
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	bts := medians(samples, "dgemv", model.BTS)
	cso := medians(samples, "dgemv", model.CSO)
	if math.Abs(bts) >= math.Abs(cso) {
		t.Errorf("gemv: |BTS median| (%.1f%%) should beat |CSO median| (%.1f%%)", bts, cso)
	}
	if math.Abs(bts) > 15 {
		t.Errorf("gemv BTS median %.1f%% implausibly large", bts)
	}
}
