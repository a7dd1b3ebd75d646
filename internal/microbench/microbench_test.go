package microbench

import (
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cocopelia/internal/machine"
)

// deployI caches a Testbed I deployment for the package's tests.
var deployI = func() *Deployment {
	return Run(machine.TestbedI(), DefaultConfig())
}()

func relErr(got, want float64) float64 { return math.Abs(got-want) / want }

func TestFitsRecoverGroundTruthBandwidth(t *testing.T) {
	tb := machine.TestbedI()
	if e := relErr(1/deployI.H2D.SecPerByte, tb.H2D.BandwidthBps); e > 0.03 {
		t.Errorf("h2d bandwidth fit off by %.1f%%", 100*e)
	}
	if e := relErr(1/deployI.D2H.SecPerByte, tb.D2H.BandwidthBps); e > 0.03 {
		t.Errorf("d2h bandwidth fit off by %.1f%%", 100*e)
	}
}

func TestFitsRecoverLatency(t *testing.T) {
	tb := machine.TestbedI()
	if e := relErr(deployI.H2D.LatencyS, tb.H2D.LatencyS); e > 0.25 {
		t.Errorf("h2d latency fit %g vs truth %g", deployI.H2D.LatencyS, tb.H2D.LatencyS)
	}
}

func TestFitsRecoverSlowdown(t *testing.T) {
	tb := machine.TestbedI()
	if e := relErr(deployI.H2D.Slowdown, tb.H2D.BidSlowdown); e > 0.05 {
		t.Errorf("h2d slowdown fit %g vs truth %g", deployI.H2D.Slowdown, tb.H2D.BidSlowdown)
	}
	if e := relErr(deployI.D2H.Slowdown, tb.D2H.BidSlowdown); e > 0.05 {
		t.Errorf("d2h slowdown fit %g vs truth %g", deployI.D2H.Slowdown, tb.D2H.BidSlowdown)
	}
	if deployI.H2D.Slowdown < 1 || deployI.D2H.Slowdown < 1 {
		t.Error("slowdowns must be >= 1")
	}
}

func TestD2HMoreAffectedThanH2D(t *testing.T) {
	// The paper's observation: d2h suffers more from bidirectional use.
	if deployI.D2H.Slowdown <= deployI.H2D.Slowdown {
		t.Errorf("d2h slowdown (%g) should exceed h2d (%g)",
			deployI.D2H.Slowdown, deployI.H2D.Slowdown)
	}
}

func TestTransferFitTimeFor(t *testing.T) {
	f := TransferFit{LatencyS: 1e-5, SecPerByte: 1e-9}
	if got := f.TimeFor(1e9); math.Abs(got-1.00001) > 1e-12 {
		t.Errorf("TimeFor = %g", got)
	}
}

func TestKernelTablesComplete(t *testing.T) {
	for _, name := range []string{"dgemm", "sgemm", "daxpy"} {
		kt, err := deployI.Kernel(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(kt.Grid) != len(kt.Times) {
			t.Fatalf("%s: grid/time length mismatch", name)
		}
		for i, v := range kt.Times {
			if v <= 0 {
				t.Fatalf("%s: non-positive time at grid[%d]=%d", name, i, kt.Grid[i])
			}
		}
	}
	if len(deployI.Kernels["dgemm"].Grid) != 64 {
		t.Errorf("gemm grid should have 64 entries, has %d", len(deployI.Kernels["dgemm"].Grid))
	}
	if len(deployI.Kernels["daxpy"].Grid) != 256 {
		t.Errorf("daxpy grid should have 256 entries, has %d", len(deployI.Kernels["daxpy"].Grid))
	}
	if _, err := deployI.Kernel("zgemm"); err == nil {
		t.Error("unknown routine should error")
	}
}

func TestKernelTableMonotoneOverall(t *testing.T) {
	// Times grow with tile size; noise may wiggle neighbours, so compare
	// entries 4 apart.
	kt := deployI.Kernels["dgemm"]
	for i := 4; i < len(kt.Times); i++ {
		if kt.Times[i] <= kt.Times[i-4] {
			t.Errorf("dgemm lookup not increasing: T=%d (%g) vs T=%d (%g)",
				kt.Grid[i], kt.Times[i], kt.Grid[i-4], kt.Times[i-4])
		}
	}
}

func TestKernelLookup(t *testing.T) {
	kt := deployI.Kernels["dgemm"]
	v, err := kt.Lookup(2048)
	if err != nil || v <= 0 {
		t.Errorf("lookup(2048) = %g, %v", v, err)
	}
	if _, err := kt.Lookup(2000); err == nil {
		t.Error("off-grid lookup should error")
	}
}

func TestDeploymentFitAccessor(t *testing.T) {
	if deployI.Fit(machine.H2D) != deployI.H2D || deployI.Fit(machine.D2H) != deployI.D2H {
		t.Error("Fit accessor mismatch")
	}
}

func TestVirtualSecondsReported(t *testing.T) {
	if deployI.VirtualSeconds <= 0 {
		t.Error("campaign should consume virtual time")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deploy.json")
	if err := deployI.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.TestbedName != deployI.TestbedName || got.H2D != deployI.H2D {
		t.Error("round trip mismatch")
	}
	if len(got.Kernels) != len(deployI.Kernels) {
		t.Error("kernel tables lost in round trip")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing file should error")
	}
}

func TestDeterministicCampaign(t *testing.T) {
	// Same seed, same machine: identical fits.
	a := Run(machine.TestbedI(), DefaultConfig())
	if a.H2D != deployI.H2D || a.D2H != deployI.D2H {
		t.Error("deployment campaign is not deterministic")
	}
}

func TestTableIIRendering(t *testing.T) {
	out := TableII(deployI)
	for _, want := range []string{"Testbed I", "h2d", "d2h", "sl"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II output missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 3 {
		t.Errorf("Table II should have header + 2 rows, got %d lines", lines)
	}
}

func TestGrids(t *testing.T) {
	tg := TransferGrid()
	if len(tg) != 64 || tg[0] != 256 || tg[63] != 16384 {
		t.Errorf("transfer grid wrong: len=%d", len(tg))
	}
	ag := AxpyTileGrid()
	if len(ag) != 256 || ag[0] != 1<<18 || ag[255] != 1<<26 {
		t.Errorf("axpy grid wrong: len=%d", len(ag))
	}
}

// TestDeploymentParallelDeterminism checks the parallel campaign's core
// guarantee at the deployment layer: every micro-benchmark cell seeds its
// noise from the cell key, so the fitted databases are identical at any
// worker count.
func TestDeploymentParallelDeterminism(t *testing.T) {
	serial := DefaultConfig()
	serial.Workers = 1
	fanned := DefaultConfig()
	fanned.Workers = 8
	a := Run(machine.TestbedII(), serial)
	b := Run(machine.TestbedII(), fanned)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("deployments differ between 1 and 8 workers:\nserial: %+v\nparallel: %+v", a, b)
	}
}

// TestReusedRunnerMatchesFresh runs every campaign cell twice, once on a
// new runner and once on one runner reset from cell to cell, as Run does:
// the measured values must be identical bit for bit.
func TestReusedRunnerMatchesFresh(t *testing.T) {
	tb, cfg := machine.TestbedII(), DefaultConfig()
	var reused *runner
	for _, c := range campaignCells(tb, cfg) {
		seed := cellSeed(cfg.Seed, c.key)
		fresh := newRunner(tb, cfg, seed)
		want, wantEnd := c.run(fresh), fresh.eng.Now()
		if reused == nil {
			reused = newRunner(tb, cfg, seed)
		} else {
			reused.reset(seed)
		}
		got, gotEnd := c.run(reused), reused.eng.Now()
		if math.Float64bits(got) != math.Float64bits(want) || gotEnd != wantEnd {
			t.Fatalf("cell %s: reused runner measured %v at %v, new runner %v at %v", c.key, got, gotEnd, want, wantEnd)
		}
	}
}

// TestDeployAllocs bounds what a warm serial deployment allocates: the
// cells share one reused simulation stack, so the campaign allocates its
// work-list and fits, not 706 engines, devices and noise streams.
func TestDeployAllocs(t *testing.T) {
	tb, cfg := machine.TestbedII(), DefaultConfig()
	cfg.Workers = 1
	Run(tb, cfg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Run(tb, cfg)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("warm Run allocated %d bytes, want under 1 MB", got)
	}
}

func BenchmarkRun(b *testing.B) {
	tb, cfg := machine.TestbedII(), DefaultConfig()
	cfg.Workers = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(tb, cfg)
	}
}
