package eval

import (
	"fmt"
	"sync"
	"testing"

	"cocopelia/internal/cudart"
	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/model"
	"cocopelia/internal/operand"
	"cocopelia/internal/parallel"
	"cocopelia/internal/plan"
	"cocopelia/internal/sched"
	"cocopelia/internal/sim"
)

// TestMeasureConcurrentSingleflight drives many concurrent Measure calls
// with overlapping keys through one Runner and checks that every caller
// sees the same result per key, that each distinct cell simulates exactly
// once (singleflight), and that the cache statistics account for every
// call. Run under -race this is also the Runner's data-race regression
// test.
func TestMeasureConcurrentSingleflight(t *testing.T) {
	r := NewRunner(machine.TestbedI())
	r.Reps = 1

	p := Problem{Routine: "dgemm", Dtype: kernelmodel.F64, M: 2048, N: 2048, K: 2048,
		Locs: []model.Loc{model.OnHost, model.OnHost, model.OnHost}, Tag: "square"}
	tiles := []int{512, 1024, 2048}

	const callers = 8
	results := make([][]operand.Result, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks the same tile list from a different
			// offset so calls overlap on every key.
			for i := range tiles {
				T := tiles[(g+i)%len(tiles)]
				res, err := r.Measure(LibCoCoPeLia, p, T)
				if err != nil {
					t.Error(err)
					return
				}
				results[g] = append(results[g], res)
			}
		}(g)
	}
	wg.Wait()

	// Every goroutine must have seen the same result for the same key.
	byTile := map[int]operand.Result{}
	for g := 0; g < callers; g++ {
		for i := range tiles {
			T := tiles[(g+i)%len(tiles)]
			got := results[g][i]
			if want, ok := byTile[T]; ok && got != want {
				t.Errorf("T=%d: goroutine %d saw %+v, another saw %+v", T, g, got, want)
			}
			byTile[T] = got
		}
	}

	hits, misses, waits := r.CacheStats()
	total := callers * len(tiles)
	if misses != len(tiles) {
		t.Errorf("misses = %d, want %d (one simulation per distinct cell)", misses, len(tiles))
	}
	if hits+misses+waits != total {
		t.Errorf("hits+misses+waits = %d+%d+%d, want %d calls accounted for",
			hits, misses, waits, total)
	}

	// Serial re-measure must agree with the concurrent results: the noise
	// seed depends only on the cell key.
	fresh := NewRunner(machine.TestbedI())
	fresh.Reps = 1
	for T, want := range byTile {
		got, err := fresh.Measure(LibCoCoPeLia, p, T)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("T=%d: serial %+v != concurrent %+v", T, got, want)
		}
	}
}

// TestMeasureBatchDeduplicates prefetches a cell list containing
// duplicates and checks that the cache simulates each distinct cell once.
func TestMeasureBatchDeduplicates(t *testing.T) {
	r := NewRunner(machine.TestbedI())
	r.Reps = 1
	p := Problem{Routine: "dgemm", Dtype: kernelmodel.F64, M: 2048, N: 2048, K: 2048,
		Locs: []model.Loc{model.OnHost, model.OnHost, model.OnHost}, Tag: "square"}
	cells := []MeasureCell{
		{LibCoCoPeLia, p, 1024},
		{LibCoCoPeLia, p, 1024},
		{LibCoCoPeLia, p, 2048},
		{LibCoCoPeLia, p, 1024},
	}
	if err := r.MeasureBatch(parallel.NewPool(4), cells); err != nil {
		t.Fatal(err)
	}
	_, misses, _ := r.CacheStats()
	if misses != 2 {
		t.Errorf("misses = %d, want 2 distinct cells", misses)
	}
}

// TestPlanMemoization checks that repetitions and libraries sharing an
// invocation shape replay one memoized plan — each distinct (routine
// variant, geometry, T, locations) key is planned once, every further
// repetition is a hit — without perturbing the measured results (each
// repetition still runs on its own seeded device).
func TestPlanMemoization(t *testing.T) {
	r := NewRunner(machine.TestbedI())
	p := Problem{Routine: "dgemm", Dtype: kernelmodel.F64, M: 2048, N: 2048, K: 2048,
		Locs: []model.Loc{model.OnHost, model.OnHost, model.OnHost}, Tag: "square"}
	first, err := r.Measure(LibCoCoPeLia, p, 1024)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := r.PlanCacheStats()
	if misses != 1 || hits != r.Reps-1 {
		t.Errorf("plan cache after one cell: hits=%d misses=%d, want %d/1", hits, misses, r.Reps-1)
	}
	// The no-reuse library shares the geometry but is a distinct routine
	// variant, so it plans once more.
	if _, err := r.Measure(LibNoReuse, p, 1024); err != nil {
		t.Fatal(err)
	}
	hits, misses, _ = r.PlanCacheStats()
	if misses != 2 || hits != 2*(r.Reps-1) {
		t.Errorf("plan cache after two libs: hits=%d misses=%d, want %d/2", hits, misses, 2*(r.Reps-1))
	}
	// A second runner (planning from scratch) reproduces the result
	// exactly: memoization must not leak state between repetitions.
	fresh := NewRunner(machine.TestbedI())
	again, err := fresh.Measure(LibCoCoPeLia, p, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Errorf("memoized rerun %+v != first run %+v", again, first)
	}
}

// TestCampaignParallelDeterminism is the determinism regression test the
// parallel engine is built around: the same campaign rendered serially and
// with 8 workers must produce byte-identical text and CSV, because every
// cell's noise seed derives from the cell key, never from execution order.
//
// Each of Fig. 4's three sub-sweeps is compared on its own fresh campaigns,
// then the whole figure is. The race detector multiplies the campaign's
// memory several times over, so under -race each sub-sweep runs a reduced
// work-list (raceWorkList) and the whole-figure comparison runs only in the
// normal build.
func TestCampaignParallelDeterminism(t *testing.T) {
	dep := testbedI(t).Pred.Deployment()
	tb := machine.TestbedI()
	kinds := []model.Kind{model.CSO, model.BTS}
	compare := func(t *testing.T, render func(c *Campaign) ([]ErrSample, error)) {
		t.Helper()
		out := func(workers int) (string, string) {
			c := NewCampaignWithDeployment(tb, dep, true)
			c.SetParallel(workers)
			samples, err := render(c)
			if err != nil {
				t.Fatal(err)
			}
			h, cells := ErrCSV(samples)
			return RenderErrSummary("fig4", samples), fmt.Sprint(h, cells)
		}
		serialText, serialCSV := out(1)
		parText, parCSV := out(8)
		if serialText != parText {
			t.Errorf("rendered text differs between serial and parallel runs:\nserial:\n%s\nparallel:\n%s",
				serialText, parText)
		}
		if serialCSV != parCSV {
			t.Error("CSV cells differ between serial and parallel runs")
		}
	}

	for _, sw := range []struct {
		name     string
		problems []Problem
		lib      Lib
	}{
		{"daxpy", DaxpyValidationSet(true), LibCoCoPeLia},
		{"sgemm", GemmValidationSet("sgemm", true), LibNoReuse},
		{"dgemm", GemmValidationSet("dgemm", true), LibNoReuse},
	} {
		problems := sw.problems
		if raceEnabled {
			problems = raceWorkList(problems)
		}
		t.Run(sw.name, func(t *testing.T) {
			compare(t, func(c *Campaign) ([]ErrSample, error) {
				return c.modelErrors(problems, sw.lib, kinds)
			})
		})
	}
	t.Run("fig4", func(t *testing.T) {
		if raceEnabled {
			t.Skip("whole-figure comparison runs in the normal build; the sub-sweeps above cover the race build")
		}
		compare(t, (*Campaign).Fig4)
	})
}

// TestPlanEvictions drives planFor directly with oversized synthetic plans
// so FIFO eviction triggers without simulating anything: once the op
// budget overflows, the oldest plan is dropped (and counted), a re-request
// of the dropped key misses again, and a stale queue record left by the
// eviction must not evict the rebuilt plan.
func TestPlanEvictions(t *testing.T) {
	r := NewRunner(machine.TestbedI())
	big := func() (*plan.Plan, error) {
		return &plan.Plan{Ops: make([]plan.Op, planOpsBudget/2+1)}, nil
	}
	key := func(m int) plan.Key { return plan.Key{Routine: "synthetic", M: m} }

	for m := 0; m < 3; m++ {
		if _, err := r.planFor(key(m), big); err != nil {
			t.Fatal(err)
		}
	}
	// Three plans of budget/2+1 ops each: inserting the second evicts the
	// first, inserting the third evicts the second.
	hits, misses, evictions := r.PlanCacheStats()
	if hits != 0 || misses != 3 || evictions != 2 {
		t.Fatalf("after 3 oversized inserts: hits=%d misses=%d evictions=%d, want 0/3/2", hits, misses, evictions)
	}
	// Key 0 was evicted, so it misses and rebuilds; its stale queue record
	// is long gone, but key 2's record is still queued — rebuilding key 0
	// evicts key 2, not the fresh key 0.
	if _, err := r.planFor(key(0), big); err != nil {
		t.Fatal(err)
	}
	if _, err := r.planFor(key(0), func() (*plan.Plan, error) {
		t.Fatal("rebuilt plan was evicted by its own stale queue record")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	hits, misses, evictions = r.PlanCacheStats()
	if hits != 1 || misses != 4 || evictions != 3 {
		t.Errorf("after re-request of evicted key: hits=%d misses=%d evictions=%d, want 1/4/3", hits, misses, evictions)
	}
}

// TestNormalizeGemmCanonical covers the mirror fold itself: canonical
// orientations pass through untouched, non-canonical ones are mirrored
// (M/N and the A/B locations exchange), and the shared Locs backing slice
// of the input problem is never mutated.
func TestNormalizeGemmCanonical(t *testing.T) {
	h, d := model.OnHost, model.OnDevice
	mk := func(m, n int, la, lb model.Loc) Problem {
		return Problem{Routine: "dgemm", Dtype: kernelmodel.F64, M: m, N: n, K: 64,
			Locs: []model.Loc{la, lb, h}}
	}
	cases := []struct {
		name     string
		in, want Problem
	}{
		{"square symmetric is fixed", mk(64, 64, h, h), mk(64, 64, h, h)},
		{"m<n is canonical", mk(32, 64, d, h), mk(32, 64, d, h)},
		{"m>n mirrors", mk(64, 32, d, h), mk(32, 64, h, d)},
		{"square with locA>locB mirrors", mk(64, 64, d, h), mk(64, 64, h, d)},
		{"square with locA<locB is canonical", mk(64, 64, h, d), mk(64, 64, h, d)},
	}
	for _, c := range cases {
		locsBefore := append([]model.Loc(nil), c.in.Locs...)
		got := normalizeGemm(c.in)
		if got.M != c.want.M || got.N != c.want.N || got.K != c.want.K ||
			got.Locs[0] != c.want.Locs[0] || got.Locs[1] != c.want.Locs[1] || got.Locs[2] != c.want.Locs[2] {
			t.Errorf("%s: normalizeGemm = %dx%d %v, want %dx%d %v",
				c.name, got.M, got.N, got.Locs, c.want.M, c.want.N, c.want.Locs)
		}
		for i, l := range c.in.Locs {
			if l != locsBefore[i] {
				t.Fatalf("%s: normalizeGemm mutated the input Locs slice", c.name)
			}
		}
	}
	// Mirror keys coincide: both orientations produce the same plan key.
	keyOf := func(p Problem) plan.Key {
		rt := cudart.New(device.New(sim.New(), machine.TestbedI(), 1, false))
		req, err := Request(rt, LibCoCoPeLia, p, 16)
		if err != nil {
			t.Fatal(err)
		}
		k, err := sched.NewContext(rt, false).Key(req)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	a, b := normalizeGemm(mk(64, 32, d, h)), normalizeGemm(mk(32, 64, h, d))
	if keyOf(a) != keyOf(b) {
		t.Errorf("mirror orientations map to distinct plan keys: %+v vs %+v", a, b)
	}
}

// TestNormalizeKeysFoldsMirrors measures a rectangular cell and its
// transpose mirror on a NormalizeKeys runner: the pair shares one plan
// (one miss, 2*Reps-1 hits) and the structural result fields coincide by
// symmetry. A default runner keeps the orientations separate.
func TestNormalizeKeysFoldsMirrors(t *testing.T) {
	h, d := model.OnHost, model.OnDevice
	p := Problem{Routine: "dgemm", Dtype: kernelmodel.F64, M: 2048, N: 1024, K: 1024,
		Locs: []model.Loc{d, h, h}, Tag: "mirror"}
	q := Problem{Routine: "dgemm", Dtype: kernelmodel.F64, M: 1024, N: 2048, K: 1024,
		Locs: []model.Loc{h, d, h}, Tag: "mirror"}

	r := NewRunner(machine.TestbedI())
	r.NormalizeKeys = true
	resP, err := r.Measure(LibCoCoPeLia, p, 512)
	if err != nil {
		t.Fatal(err)
	}
	resQ, err := r.Measure(LibCoCoPeLia, q, 512)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := r.PlanCacheStats()
	if misses != 1 || hits != 2*r.Reps-1 {
		t.Errorf("normalized mirror pair: hits=%d misses=%d, want %d/1", hits, misses, 2*r.Reps-1)
	}
	if resP.Subkernels != resQ.Subkernels || resP.BytesH2D != resQ.BytesH2D || resP.BytesD2H != resQ.BytesD2H {
		t.Errorf("mirror structural fields differ: %+v vs %+v", resP, resQ)
	}

	plain := NewRunner(machine.TestbedI())
	if _, err := plain.Measure(LibCoCoPeLia, p, 512); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Measure(LibCoCoPeLia, q, 512); err != nil {
		t.Fatal(err)
	}
	if _, misses, _ := plain.PlanCacheStats(); misses != 2 {
		t.Errorf("default runner folded mirrors: misses=%d, want 2", misses)
	}
}
