package model

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"cocopelia/internal/machine"
)

// fakeSub is a controllable SubModels implementation for unit tests.
type fakeSub struct {
	h2dLat, h2dInvBw float64 // seconds, seconds/byte
	d2hLat, d2hInvBw float64
	slH, slD         float64
	grid             []int
	tile             func(T int) float64
	full             float64
}

func (f *fakeSub) TransferTime(dir machine.LinkDir, bytes int64) float64 {
	if dir == machine.H2D {
		return f.h2dLat + f.h2dInvBw*float64(bytes)
	}
	return f.d2hLat + f.d2hInvBw*float64(bytes)
}
func (f *fakeSub) BidSlowdown(dir machine.LinkDir) float64 {
	if dir == machine.H2D {
		return f.slH
	}
	return f.slD
}
func (f *fakeSub) KernelTileTime(T int) (float64, error) {
	for _, g := range f.grid {
		if g == T {
			return f.tile(T), nil
		}
	}
	return 0, errors.New("off grid")
}
func (f *fakeSub) KernelFullTime() float64 { return f.full }
func (f *fakeSub) TileGrid() []int         { return f.grid }

// newSub returns a plausible fake: 10 GB/s links, small latencies,
// slowdowns 1.2/1.4, a gemm-like tile-time curve with efficiency loss at
// small T, and a grid of 256..4096.
func newSub() *fakeSub {
	var grid []int
	for T := 256; T <= 4096; T += 256 {
		grid = append(grid, T)
	}
	return &fakeSub{
		h2dLat: 1e-5, h2dInvBw: 1e-10,
		d2hLat: 1e-5, d2hInvBw: 1e-10,
		slH: 1.2, slD: 1.4,
		grid: grid,
		tile: func(T int) float64 {
			flops := 2 * float64(T) * float64(T) * float64(T)
			eff := 0.9 / (1 + 300/float64(T))
			return 5e-6 + flops/(7e12*eff)
		},
		full: 0, // set per test
	}
}

func gemmFull(m, n, k int64) Params {
	return GemmParams("dgemm", 8, m, n, k, OnHost, OnHost, OnHost)
}

func TestSubkernelsPerLevel(t *testing.T) {
	p1 := AxpyParams("daxpy", 8, 1<<20, OnHost, OnHost)
	if got := p1.Subkernels(1 << 18); got != 4 {
		t.Errorf("level-1 k = %d, want 4", got)
	}
	p2 := GemvParams("dgemv", 8, 4096, 2048, OnHost, OnHost, OnHost)
	if got := p2.Subkernels(1024); got != 4*2 {
		t.Errorf("level-2 k = %d, want 8", got)
	}
	p3 := gemmFull(4096, 2048, 1024)
	if got := p3.Subkernels(1024); got != 4*2*1 {
		t.Errorf("level-3 k = %d, want 8", got)
	}
	// Ceiling behaviour for non-divisible dims.
	pc := gemmFull(1000, 1000, 1000)
	if got := pc.Subkernels(512); got != 8 {
		t.Errorf("ceil k = %d, want 8", got)
	}
}

func TestOperandHelpers(t *testing.T) {
	mat := Operand{Rows: 1024, Cols: 512}
	if mat.TileBytes(256, 8) != 256*256*8 {
		t.Error("matrix tile bytes wrong")
	}
	if mat.Tiles(256) != 4*2 {
		t.Error("matrix tiles wrong")
	}
	if mat.Bytes(8) != 1024*512*8 {
		t.Error("matrix bytes wrong")
	}
	vec := Operand{Rows: 1000, Cols: 1}
	if vec.TileBytes(256, 4) != 256*4 {
		t.Error("vector tile bytes wrong")
	}
	if vec.Tiles(256) != 4 {
		t.Error("vector tiles wrong")
	}
}

func TestValidate(t *testing.T) {
	good := gemmFull(512, 512, 512)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Level: 0, DtypeSize: 8, D1: 1, Operands: []Operand{{Rows: 1, Cols: 1}}},
		{Level: 3, DtypeSize: 3, D1: 1, D2: 1, D3: 1, Operands: []Operand{{Rows: 1, Cols: 1}}},
		{Level: 3, DtypeSize: 8, D1: 0, D2: 1, D3: 1, Operands: []Operand{{Rows: 1, Cols: 1}}},
		{Level: 1, DtypeSize: 8, D1: 5},
		{Level: 1, DtypeSize: 8, D1: 5, Operands: []Operand{{Rows: 0, Cols: 1}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestOverlapTimeEq3(t *testing.T) {
	// Manual case matching the link-model test: tIn=1, tOut=0.25,
	// slH=2, slD=4 -> tInBid=2, tOutBid=1 -> 1 + (2-1)/2 = 1.5.
	got := overlapTime(1, 0.25, 2, 4)
	if math.Abs(got-1.5) > 1e-12 {
		t.Errorf("overlapTime = %g, want 1.5", got)
	}
	// Mirror case: tOut longer.
	got = overlapTime(0.25, 1, 2, 4)
	want := 0.5 + (4-0.5)/4
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("mirror overlapTime = %g, want %g", got, want)
	}
	// No opposite traffic: plain times.
	if overlapTime(1, 0, 2, 4) != 1 || overlapTime(0, 1, 2, 4) != 1 {
		t.Error("one-sided overlap should be the plain time")
	}
}

func TestModelOrderingDataLocVsBaseline(t *testing.T) {
	// With B and C on the device, DataLoc must predict strictly less than
	// Baseline (which transfers everything both ways).
	sm := newSub()
	p := GemmParams("dgemm", 8, 8192, 8192, 8192, OnHost, OnDevice, OnDevice)
	base, err := Predict(Baseline, &p, sm, 1024)
	if err != nil {
		t.Fatal(err)
	}
	loc, err := Predict(DataLoc, &p, sm, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if loc >= base {
		t.Errorf("DataLoc (%g) should be below Baseline (%g)", loc, base)
	}
}

func TestBTSAtLeastDataLoc(t *testing.T) {
	// Bidirectional slowdown can only lengthen the dominant transfer term.
	sm := newSub()
	// Make transfers dominate: very slow link.
	sm.h2dInvBw, sm.d2hInvBw = 1e-8, 1e-8
	p := gemmFull(8192, 8192, 8192)
	for _, T := range []int{512, 1024, 2048} {
		loc, _ := Predict(DataLoc, &p, sm, T)
		bts, _ := Predict(BTS, &p, sm, T)
		if bts < loc-1e-15 {
			t.Errorf("T=%d: BTS (%g) below DataLoc (%g)", T, bts, loc)
		}
	}
	// And with both directions busy it must be strictly larger.
	loc, _ := Predict(DataLoc, &p, sm, 1024)
	bts, _ := Predict(BTS, &p, sm, 1024)
	if bts <= loc {
		t.Errorf("BTS (%g) should exceed DataLoc (%g) for transfer-bound full offload", bts, loc)
	}
}

func TestDRBelowBTSForReuseHeavyProblem(t *testing.T) {
	// Full-offload square gemm with a slow link: reuse slashes transfer
	// volume, so DR must predict much less than BTS.
	sm := newSub()
	sm.h2dInvBw, sm.d2hInvBw = 1e-9, 1e-9 // 1 GB/s
	p := gemmFull(8192, 8192, 8192)
	bts, err := Predict(BTS, &p, sm, 1024)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := Predict(DR, &p, sm, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if dr >= bts {
		t.Errorf("DR (%g) should be below BTS (%g)", dr, bts)
	}
}

func TestDRKInClamping(t *testing.T) {
	// 512-cube at T=256: tiles per operand 4, k=8, kIn=3*(4-1)=9 exceeds
	// the pipelined sub-kernel budget k-1=7; the excess serializes.
	sm := newSub()
	p := gemmFull(512, 512, 512)
	got, err := Predict(DR, &p, sm, 256)
	if err != nil {
		t.Fatal(err)
	}
	tGPU, _ := sm.KernelTileTime(256)
	tileH2D := sm.TransferTime(machine.H2D, 256*256*8)
	// kIn = 9, kOut = 4: the h2d slowdown applies for the 4/9 of the
	// fetch phase during which outputs drain.
	fetchBid := tileH2D * (1 + (sm.slH-1)*4.0/9.0)
	tInFirst := 3 * tileH2D
	tOutTail := sm.TransferTime(machine.D2H, 256*256*8)
	want := tInFirst + math.Max(fetchBid, tGPU)*7 + tGPU + fetchBid*2 + tOutTail
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("DR with kIn>k-1: got %g, want %g", got, want)
	}
}

func TestDRComputeBoundApproachesKernelTime(t *testing.T) {
	// With a fast link, DR's prediction is dominated by k * tGPU.
	sm := newSub()
	sm.h2dInvBw, sm.d2hInvBw = 1e-12, 1e-12
	p := gemmFull(8192, 8192, 8192)
	T := 2048
	dr, err := Predict(DR, &p, sm, T)
	if err != nil {
		t.Fatal(err)
	}
	tGPU, _ := sm.KernelTileTime(T)
	k := float64(p.Subkernels(T))
	if dr < k*tGPU {
		t.Errorf("DR (%g) below pure compute bound (%g)", dr, k*tGPU)
	}
	if dr > 1.05*k*tGPU {
		t.Errorf("DR (%g) should approach compute bound (%g) on a fast link", dr, k*tGPU)
	}
}

func TestCSOUnderpredictsWithNonlinearKernel(t *testing.T) {
	// CSO divides the full-problem kernel time (efficient, large kernel)
	// across chunks, ignoring that small tiles are less efficient. Its
	// prediction must therefore fall below DataLoc's for compute-bound
	// problems.
	sm := newSub()
	p := gemmFull(8192, 8192, 8192)
	// Full-problem time from the same curve the tile lookup uses.
	sm.full = sm.tile(8192)
	T := 512
	cso, err := Predict(CSO, &p, sm, T)
	if err != nil {
		t.Fatal(err)
	}
	loc, err := Predict(DataLoc, &p, sm, T)
	if err != nil {
		t.Fatal(err)
	}
	if cso >= loc {
		t.Errorf("CSO (%g) should underpredict vs DataLoc (%g) at small tiles", cso, loc)
	}
}

func TestPredictErrors(t *testing.T) {
	sm := newSub()
	p := gemmFull(4096, 4096, 4096)
	if _, err := Predict(Kind("magic"), &p, sm, 1024); err == nil {
		t.Error("unknown kind should error")
	}
	if _, err := Predict(BTS, &p, sm, 0); err == nil {
		t.Error("T=0 should error")
	}
	if _, err := Predict(BTS, &p, sm, 1000); err == nil {
		t.Error("off-grid tile should error")
	}
	bad := Params{}
	if _, err := Predict(BTS, &bad, sm, 1024); err == nil {
		t.Error("invalid params should error")
	}
}

func TestCandidates(t *testing.T) {
	sm := newSub()
	p := gemmFull(4096, 4096, 4096)
	cands := Candidates(&p, sm)
	// min(D)/1.5 = 2730.67, so largest candidate is 2560.
	if len(cands) == 0 || cands[len(cands)-1] != 2560 {
		t.Errorf("candidates = %v", cands)
	}
	for _, c := range cands {
		if float64(c) > 4096/1.5 {
			t.Errorf("candidate %d violates T <= minD/1.5", c)
		}
	}
	// Tiny problem: falls back to smallest grid entry if it fits.
	tiny := gemmFull(300, 300, 300)
	cands = Candidates(&tiny, sm)
	if len(cands) != 1 || cands[0] != 256 {
		t.Errorf("tiny candidates = %v", cands)
	}
	// Smaller than the whole grid: no candidates.
	micro := gemmFull(100, 100, 100)
	if got := Candidates(&micro, sm); got != nil {
		t.Errorf("micro candidates = %v, want none", got)
	}
	// Level-1 problems are bounded by D1 directly.
	ax := AxpyParams("daxpy", 8, 1024, OnHost, OnHost)
	cands = Candidates(&ax, sm)
	if len(cands) != 4 { // 256, 512, 768, 1024
		t.Errorf("axpy candidates = %v", cands)
	}
}

func TestSelectTIsArgmin(t *testing.T) {
	sm := newSub()
	p := gemmFull(8192, 8192, 8192)
	sel, err := SelectT(DR, &p, sm)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force over candidates.
	bestT, bestV := 0, math.Inf(1)
	for _, T := range Candidates(&p, sm) {
		v, err := Predict(DR, &p, sm, T)
		if err != nil {
			t.Fatal(err)
		}
		if v < bestV {
			bestT, bestV = T, v
		}
	}
	if sel.T != bestT || math.Abs(sel.Predicted-bestV) > 1e-15 {
		t.Errorf("SelectT = %+v, brute force = (%d, %g)", sel, bestT, bestV)
	}
	if sel.T <= 0 {
		t.Error("selected T must be positive")
	}
}

func TestSelectTNoCandidates(t *testing.T) {
	sm := newSub()
	p := gemmFull(10, 10, 10)
	if _, err := SelectT(DR, &p, sm); !errors.Is(err, ErrNoCandidates) {
		t.Errorf("want ErrNoCandidates, got %v", err)
	}
}

func TestSelectTAvoidsTinyTiles(t *testing.T) {
	// Small tiles pay per-tile latency and kernel-efficiency costs in
	// every model, so the selected T must not be the smallest candidate
	// and the smallest candidate must predict strictly worse.
	sm := newSub()
	sm.h2dInvBw, sm.d2hInvBw = 5e-10, 5e-10 // 2 GB/s
	p := gemmFull(16384, 16384, 16384)
	cands := Candidates(&p, sm)
	for _, kind := range []Kind{Baseline, DataLoc, BTS, DR} {
		sel, err := SelectT(kind, &p, sm)
		if err != nil {
			t.Fatal(err)
		}
		if sel.T == cands[0] {
			t.Errorf("%s: optimum T=%d is the smallest candidate", kind, sel.T)
		}
		worst, err := Predict(kind, &p, sm, cands[0])
		if err != nil {
			t.Fatal(err)
		}
		if worst <= sel.Predicted {
			t.Errorf("%s: smallest tile (%g) not worse than optimum (%g)", kind, worst, sel.Predicted)
		}
	}
}

func TestGemmParamsFlags(t *testing.T) {
	p := GemmParams("dgemm", 8, 100, 200, 300, OnHost, OnDevice, OnHost)
	if len(p.Operands) != 3 {
		t.Fatal("gemm should have 3 operands")
	}
	a, b, c := p.Operands[0], p.Operands[1], p.Operands[2]
	if !a.Get || a.Set {
		t.Error("A on host: get only")
	}
	if b.Get || b.Set {
		t.Error("B on device: no transfers")
	}
	if !c.Get || !c.Set {
		t.Error("C on host: get and set")
	}
	if a.Rows != 100 || a.Cols != 300 || b.Rows != 300 || b.Cols != 200 || c.Rows != 100 || c.Cols != 200 {
		t.Error("operand shapes wrong")
	}
}

func TestAxpyParamsFlags(t *testing.T) {
	p := AxpyParams("daxpy", 8, 1000, OnDevice, OnHost)
	x, y := p.Operands[0], p.Operands[1]
	if x.Get || x.Set {
		t.Error("x on device: no transfers")
	}
	if !y.Get || !y.Set {
		t.Error("y on host: get and set")
	}
	if p.Level != 1 {
		t.Error("axpy is level 1")
	}
}

func TestLocCombos(t *testing.T) {
	combos := LocCombos(3)
	if len(combos) != 7 {
		t.Fatalf("3 operands should give 7 combos, got %d", len(combos))
	}
	for _, l := range combos[0] {
		if l != OnHost {
			t.Error("first combo should be all-on-host")
		}
	}
	seen := map[string]bool{}
	for _, c := range combos {
		key := ComboName([]string{"A", "B", "C"}, c)
		if seen[key] {
			t.Errorf("duplicate combo %s", key)
		}
		seen[key] = true
	}
	if LocCombos(0) != nil {
		t.Error("zero operands should give nil")
	}
}

func TestComboName(t *testing.T) {
	got := ComboName([]string{"A", "B"}, []Loc{OnHost, OnDevice})
	if got != "A:host B:device" {
		t.Errorf("ComboName = %q", got)
	}
}

// ComboName renders a location combination like "A:host B:device C:host".
func ComboName(names []string, locs []Loc) string {
	s := ""
	for i, l := range locs {
		if i > 0 {
			s += " "
		}
		name := "?"
		if i < len(names) {
			name = names[i]
		}
		s += fmt.Sprintf("%s:%s", name, l)
	}
	return s
}
