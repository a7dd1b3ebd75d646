package eval

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"cocopelia/internal/cudart"
	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/model"
	"cocopelia/internal/operand"
	"cocopelia/internal/parallel"
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

// TestPlanMemoization checks that a cell's repetitions replay one plan —
// each cell is planned once by its first repetition, every further
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
	// The comparator libraries run as plans too: each cell plans once.
	vec := Problem{Routine: "daxpy", Dtype: kernelmodel.F64, N: 1 << 20,
		Locs: []model.Loc{model.OnHost, model.OnHost}, Tag: "vector"}
	for _, c := range []MeasureCell{{LibCuBLASXt, p, 1024}, {LibBLASX, p, 0}, {LibUnified, vec, 0}} {
		if _, err := r.Measure(c.Lib, c.P, c.T); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, _ = r.PlanCacheStats()
	if misses != 5 || hits != 5*(r.Reps-1) {
		t.Errorf("plan cache after the comparators: hits=%d misses=%d, want %d/5", hits, misses, 5*(r.Reps-1))
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

// TestPlanCountersIndependentOfWorkers runs a work-list of every library,
// comparators included, whose plans together exceed 2^18 ops, more than an
// op-bounded plan store of that size could keep, serially and on eight
// workers with default settings. Each cell builds its plan once and
// replays it on every further repetition, so both runs report
// cells*(Reps-1) replays, one build per cell and no evictions.
func TestPlanCountersIndependentOfWorkers(t *testing.T) {
	h := model.OnHost
	var cells []MeasureCell
	for _, n := range []int{1024, 1536, 2048} {
		p := Problem{Routine: "dgemm", Dtype: kernelmodel.F64, M: n, N: n, K: n,
			Locs: []model.Loc{h, h, h}, Tag: "counters"}
		cells = append(cells, MeasureCell{LibNoReuse, p, 64}, MeasureCell{LibCoCoPeLia, p, 64},
			MeasureCell{LibCuBLASXt, p, 128}, MeasureCell{LibBLASX, p, 0})
		v := Problem{Routine: "daxpy", Dtype: kernelmodel.F64, N: n << 10,
			Locs: []model.Loc{h, h}, Tag: "counters"}
		cells = append(cells, MeasureCell{LibUnified, v, 0})
	}

	ops := 0
	for _, c := range cells {
		rt := cudart.New(device.New(sim.New(), machine.TestbedI(), 1, false))
		req, err := Request(rt, c.Lib, c.P, c.T)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := sched.NewContext(rt, false).Plan(req)
		if err != nil {
			t.Fatal(err)
		}
		ops += len(pl.Ops)
	}
	if ops <= 1<<18 {
		t.Fatalf("work-list plans total %d ops, want more than %d", ops, 1<<18)
	}

	for _, pool := range []*parallel.Pool{nil, parallel.NewPool(8)} {
		r := NewRunner(machine.TestbedI())
		r.Reps = 2
		if err := r.MeasureBatch(pool, cells); err != nil {
			t.Fatal(err)
		}
		hits, misses, evictions := r.PlanCacheStats()
		if want := len(cells) * (r.Reps - 1); hits != want || misses != len(cells) || evictions != 0 {
			t.Errorf("workers=%d: plan counters %d/%d/%d, want %d/%d/0",
				pool.Workers(), hits, misses, evictions, want, len(cells))
		}
	}
}

// TestMeasureFailureBeforePlan drives a cell whose repetition 0 runs out of
// device memory while materializing its operands, before the cell's plan
// exists, with the other repetitions fanned out and waiting for that plan.
// The named eval error must reach the caller and a singleflight waiter,
// the waiting repetitions must return, no goroutine may outlive the call,
// the failed bundle must not be pooled, and the cell must succeed on retry
// with the result a fresh runner computes.
func TestMeasureFailureBeforePlan(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(3, runtime.GOMAXPROCS(0))))
	p := Problem{Routine: "dgemm", Dtype: kernelmodel.F64, M: 2048, N: 2048, K: 2048,
		Locs: []model.Loc{model.OnDevice, model.OnHost, model.OnHost}, Tag: "square"}
	const T = 512
	r := NewRunner(machine.TestbedI())

	// Repetition 0 takes the runner's first pooled bundle. Poison it: its
	// device has 1 MiB of memory, too little for the 32 MiB A operand.
	tiny := *r.TB
	tiny.GPU.MemBytes = 1 << 20
	eng := sim.New()
	dev := device.New(eng, &tiny, 1, false)
	rt := cudart.New(dev)
	bad := &simBundle{eng: eng, dev: dev, rt: rt, ctx: sched.NewContext(rt, false)}
	r.bundleFree = []*simBundle{bad}

	goroutines := runtime.NumGoroutine()

	// Hold the bundle pool so the first caller stalls inside the cell with
	// its call registered, and the second caller finds it in flight.
	r.bundleMu.Lock()
	type outcome struct {
		res operand.Result
		err error
	}
	first, second := make(chan outcome), make(chan outcome)
	measure := func(out chan<- outcome) {
		res, err := r.Measure(LibCoCoPeLia, p, T)
		out <- outcome{res, err}
	}
	go measure(first)
	for {
		r.mu.Lock()
		n := len(r.inflight)
		r.mu.Unlock()
		if n == 1 {
			break
		}
		runtime.Gosched()
	}
	go measure(second)
	for r.waits.Load() != 1 {
		runtime.Gosched()
	}
	r.bundleMu.Unlock()
	a, b := <-first, <-second

	const prefix = "eval: CoCoPeLia on "
	if a.err == nil || !strings.HasPrefix(a.err.Error(), prefix) || !errors.Is(a.err, device.ErrOutOfMemory) {
		t.Fatalf("caller got %v, want an %q error wrapping device.ErrOutOfMemory", a.err, prefix+"...")
	}
	if b.err == nil || b.err.Error() != a.err.Error() {
		t.Errorf("singleflight waiter got %v, want the caller's %v", b.err, a.err)
	}
	for i := 0; runtime.NumGoroutine() > goroutines; i++ {
		if i == 100000 {
			t.Fatalf("%d goroutines after the failed cell, %d before", runtime.NumGoroutine(), goroutines)
		}
		runtime.Gosched()
	}
	for _, bd := range r.bundleFree {
		if bd == bad {
			t.Error("the failed repetition's bundle was pooled")
		}
	}
	if hits, misses, _ := r.PlanCacheStats(); hits != 0 || misses != 0 {
		t.Errorf("failed cell counted %d plan replays and %d builds, want none", hits, misses)
	}

	got, err := r.Measure(LibCoCoPeLia, p, T)
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	want, err := NewRunner(machine.TestbedI()).Measure(LibCoCoPeLia, p, T)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("retry measured %+v, a fresh runner %+v", got, want)
	}
}

// TestRepetitionFanOutMatchesSerial runs the campaign work-list with each
// cell's repetitions fanned out (Measure, no pool) and again through
// MeasureBatch on eight workers, and checks both against a GOMAXPROCS = 1
// run, where repetitions run inline: every result bit for bit, the event
// count and the plan counters. Under -race this is the data-race test of
// the repetition fan-out.
func TestRepetitionFanOutMatchesSerial(t *testing.T) {
	cells := CampaignCells(false)
	type run struct {
		res    []operand.Result
		events int64
		plans  [3]int
	}
	measure := func(procs int, pool *parallel.Pool) run {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r := NewRunner(machine.TestbedI())
		if pool != nil {
			if err := r.MeasureBatch(pool, cells); err != nil {
				t.Fatal(err)
			}
		}
		var out run
		for _, c := range cells {
			res, err := r.Measure(c.Lib, c.P, c.T)
			if err != nil {
				t.Fatal(err)
			}
			out.res = append(out.res, res)
		}
		out.events = r.EventsProcessed()
		out.plans[0], out.plans[1], out.plans[2] = r.PlanCacheStats()
		return out
	}
	ref := measure(1, nil)
	if ref.events != 4393143 || ref.plans != [3]int{228, 114, 0} {
		t.Fatalf("serial reference: %d events, plan counters %v; want 4393143 and [228 114 0]", ref.events, ref.plans)
	}
	procs := max(2, runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		name string
		pool *parallel.Pool
	}{
		{"fan-out", nil},
		{"batch-8", parallel.NewPool(8)},
	} {
		got := measure(procs, tc.pool)
		if got.events != ref.events || got.plans != ref.plans {
			t.Errorf("%s: %d events, plan counters %v; serial %d and %v", tc.name, got.events, got.plans, ref.events, ref.plans)
		}
		for i, res := range got.res {
			want := ref.res[i]
			if math.Float64bits(res.Seconds) != math.Float64bits(want.Seconds) || res != want {
				c := cells[i]
				t.Errorf("%s: %s %s T=%d measured %+v, serial %+v", tc.name, c.Lib, c.P.Name(), c.T, res, want)
			}
		}
	}
}
