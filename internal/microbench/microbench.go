// Package microbench implements the CoCoPeLia deployment phase (the
// paper's Section IV-A): the offline micro-benchmarks that instantiate the
// prediction models on a machine.
//
// It measures, on the simulated testbed:
//
//   - t_l per direction, as the average latency of multiple single-byte
//     transfers;
//   - t_b per direction, by least-squares regression (zero intercept,
//     latency excluded) over 64 square double-precision transfers of
//     256..16384 elements per side;
//   - the bidirectional t_b and the slowdown factor sl per direction, by
//     coupling each transfer with saturating traffic in the opposite
//     direction;
//   - the per-routine kernel-time lookup tables over the tile grids the
//     paper uses (gemm: T = 256..16384 step 256; axpy: N = 2^18..2^26 step
//     2^18).
//
// Every measurement repeats until the 95% confidence interval of its mean
// falls within 5% of the mean, exactly the paper's stopping rule. The
// result is a serializable Deployment database that the tile-selection
// runtime consumes.
package microbench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/parallel"
	"cocopelia/internal/sim"
	"cocopelia/internal/stats"
)

// Config controls the micro-benchmark campaign.
type Config struct {
	// CITolerance is the stopping-rule tolerance (paper: 0.05).
	CITolerance float64
	// MinReps and MaxReps bound the repetitions per measurement.
	MinReps, MaxReps int
	// LatencyProbes is the number of single-byte transfers averaged for
	// t_l.
	LatencyProbes int
	// Seed drives the simulated machine's measurement noise. Every
	// measurement cell derives its own noise stream from (Seed, cell
	// key), so the campaign's result is independent of execution order.
	Seed int64
	// Workers bounds the campaign's parallel fan-out over measurement
	// cells (0 = all cores, 1 = serial). The deployment database is
	// identical at every setting.
	Workers int
}

// DefaultConfig returns the paper-faithful configuration.
func DefaultConfig() Config {
	return Config{CITolerance: 0.05, MinReps: 3, MaxReps: 100, LatencyProbes: 32, Seed: 20210328}
}

// TransferFit is one direction's fitted transfer sub-model (a Table II
// row).
type TransferFit struct {
	// LatencyS is the fitted t_l in seconds.
	LatencyS float64 `json:"latency_s"`
	// SecPerByte is the fitted t_b (1/bandwidth) in seconds/byte.
	SecPerByte float64 `json:"sec_per_byte"`
	// RSE is the residual standard error of the unidirectional fit.
	RSE float64 `json:"rse"`
	// SecPerByteBid is t_b fitted while the opposite direction is
	// saturated.
	SecPerByteBid float64 `json:"sec_per_byte_bid"`
	// RSEBid is the residual standard error of the bidirectional fit.
	RSEBid float64 `json:"rse_bid"`
	// Slowdown is sl = SecPerByteBid / SecPerByte, clamped to >= 1.
	Slowdown float64 `json:"slowdown"`
}

// TimeFor returns the fitted unidirectional transfer time for a payload.
func (f TransferFit) TimeFor(bytes int64) float64 {
	return f.LatencyS + f.SecPerByte*float64(bytes)
}

// KernelTable is the empirically measured sub-kernel execution-time lookup
// table of one routine (the t_GPU^T predictor).
type KernelTable struct {
	Routine string    `json:"routine"`
	Dtype   string    `json:"dtype"`
	Grid    []int     `json:"grid"`
	Times   []float64 `json:"times_s"`
}

// Lookup returns the measured time for tile size T. Following the paper,
// only direct value lookups on the benchmarked grid are supported.
func (kt *KernelTable) Lookup(T int) (float64, error) {
	i := sort.SearchInts(kt.Grid, T)
	if i < len(kt.Grid) && kt.Grid[i] == T {
		return kt.Times[i], nil
	}
	return 0, fmt.Errorf("microbench: tile size %d not in the %s lookup grid", T, kt.Routine)
}

// Deployment is the machine database produced by the deployment phase.
type Deployment struct {
	TestbedName string                  `json:"testbed"`
	H2D         TransferFit             `json:"h2d"`
	D2H         TransferFit             `json:"d2h"`
	Kernels     map[string]*KernelTable `json:"kernels"`
	// VirtualSeconds is the simulated machine time the campaign consumed
	// (the paper reports minutes per testbed).
	VirtualSeconds float64 `json:"virtual_seconds"`
}

// Fit returns the transfer fit for a direction.
func (d *Deployment) Fit(dir machine.LinkDir) TransferFit {
	if dir == machine.H2D {
		return d.H2D
	}
	return d.D2H
}

// Kernel returns the lookup table for a routine name (e.g. "dgemm").
func (d *Deployment) Kernel(routine string) (*KernelTable, error) {
	kt, ok := d.Kernels[routine]
	if !ok {
		return nil, fmt.Errorf("microbench: routine %q not deployed", routine)
	}
	return kt, nil
}

// Save writes the deployment database as JSON.
func (d *Deployment) Save(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fmt.Errorf("microbench: marshal: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a deployment database from JSON.
func Load(path string) (*Deployment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("microbench: %w", err)
	}
	var d Deployment
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("microbench: parse %s: %w", path, err)
	}
	return &d, nil
}

// runner executes one measurement cell on a simulated device seeded from
// the cell's key, so cells are mutually independent and can run in any
// order or concurrently. Run reuses runners across cells: reset returns
// one to the state newRunner gives it.
type runner struct {
	cfg     Config
	tb      *machine.Testbed
	eng     *sim.Engine
	dev     *device.Device
	end     sim.Time  // completion time of the last probed transfer or kernel
	samples []float64 // measure's repetitions, reused from cell to cell
}

// Complete records the completion time of the probed transfer or kernel.
func (r *runner) Complete(int32) { r.end = r.eng.Now() }

// probe is the completion handle of a probed transfer or kernel.
func (r *runner) probe() sim.Handle { return sim.Handle{To: r} }

func newRunner(tb *machine.Testbed, cfg Config, seed int64) *runner {
	eng := sim.New()
	return &runner{cfg: cfg, tb: tb, eng: eng, dev: device.New(eng, tb, seed, false)}
}

// reset readies a drained runner for the next cell, on the noise streams
// of seed: the engine, device and link keep their free lists, and the cell
// draws and fires exactly what it would on a new runner.
func (r *runner) reset(seed int64) {
	r.eng.Reset()
	r.dev.Reset(seed)
	r.end = 0
}

// runners is the free list of drained runners a campaign's workers share.
type runners struct {
	mu   sync.Mutex
	free []*runner
}

// get returns a runner for one cell: a reset free one, or a new one.
func (p *runners) get(tb *machine.Testbed, cfg Config, seed int64) *runner {
	p.mu.Lock()
	var r *runner
	if n := len(p.free); n > 0 {
		r = p.free[n-1]
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if r == nil {
		return newRunner(tb, cfg, seed)
	}
	r.reset(seed)
	return r
}

// put parks a runner whose cell has finished.
func (p *runners) put(r *runner) {
	p.mu.Lock()
	p.free = append(p.free, r)
	p.mu.Unlock()
}

// cellSeed derives a cell's noise seed from the campaign seed and the
// cell key (FNV-1a mix, matching the style of eval's per-repetition
// seeds).
func cellSeed(base int64, key string) int64 {
	h := int64(1469598103934665603)
	for _, c := range key {
		h ^= int64(c)
		h *= 1099511628211
	}
	return h ^ (base * 6364136223846793005)
}

// measure repeats fn (which must return one sample of the measured
// quantity) until the CI stopping rule is satisfied, and returns the mean.
func (r *runner) measure(fn func() float64) float64 {
	r.samples = r.samples[:0]
	for i := 0; i < r.cfg.MaxReps; i++ {
		r.samples = append(r.samples, fn())
		if len(r.samples) >= r.cfg.MinReps && stats.MeanWithinCI(r.samples, r.cfg.CITolerance) {
			break
		}
	}
	return stats.Mean(r.samples)
}

// timedTransfer runs one transfer and returns its duration on the virtual
// clock.
func (r *runner) timedTransfer(dir machine.LinkDir, bytes int64) float64 {
	start := r.eng.Now()
	r.dev.Link().Submit(dir, bytes, r.probe())
	r.eng.Run()
	return r.end - start
}

// timedTransferBid runs one transfer while the opposite direction is kept
// saturated, and returns the transfer's duration.
func (r *runner) timedTransferBid(dir machine.LinkDir, bytes int64) float64 {
	opposite := otherDir(dir)
	// Saturate the opposite direction with a transfer several times
	// larger, submitted first so it is in its data phase throughout.
	r.dev.Link().Submit(opposite, bytes*8, sim.Handle{})
	var start sim.Time
	started := false
	// Submit the measured transfer after the opposite's latency phase.
	r.eng.After(r.tb.Link(opposite).LatencyS*2, func() {
		start = r.eng.Now()
		started = true
		r.dev.Link().Submit(dir, bytes, r.probe())
	})
	r.eng.Run()
	if !started {
		panic("microbench: bidirectional probe never started")
	}
	return r.end - start
}

func otherDir(dir machine.LinkDir) machine.LinkDir {
	if dir == machine.H2D {
		return machine.D2H
	}
	return machine.H2D
}

// TransferGrid returns the square transfer sizes of the paper's campaign:
// sides 256..16384 step 256 (64 samples) of double-precision elements.
func TransferGrid() []int {
	var g []int
	for d := 256; d <= 16384; d += 256 {
		g = append(g, d)
	}
	return g
}

// GemmTileGrid returns the gemm kernel lookup grid (T = 256..16384 step
// 256, 64 entries).
func GemmTileGrid() []int { return TransferGrid() }

// AxpyTileGrid returns the daxpy kernel lookup grid (N = 2^18..2^26 step
// 2^18, 256 entries).
func AxpyTileGrid() []int {
	var g []int
	for n := 1 << 18; n <= 1<<26; n += 1 << 18 {
		g = append(g, n)
	}
	return g
}

// assembleFit fits the Table II coefficients of one direction from the
// campaign's measured cell values.
func assembleFit(dirName string, vals map[string]float64) TransferFit {
	tl := vals["lat|"+dirName]
	var xs, ysUni, ysBid []float64
	for _, d := range TransferGrid() {
		bytes := int64(d) * int64(d) * 8
		xs = append(xs, float64(bytes))
		ysUni = append(ysUni, vals[fmt.Sprintf("uni|%s|%d", dirName, d)]-tl)
		ysBid = append(ysBid, vals[fmt.Sprintf("bid|%s|%d", dirName, d)]-tl)
	}
	tb, rse, err := stats.FitZeroIntercept(xs, ysUni)
	if err != nil {
		panic(fmt.Sprintf("microbench: unidirectional fit: %v", err))
	}
	tbBid, rseBid, err := stats.FitZeroIntercept(xs, ysBid)
	if err != nil {
		panic(fmt.Sprintf("microbench: bidirectional fit: %v", err))
	}
	sl := tbBid / tb
	if sl < 1 {
		sl = 1
	}
	return TransferFit{
		LatencyS:      tl,
		SecPerByte:    tb,
		RSE:           rse,
		SecPerByteBid: tbBid,
		RSEBid:        rseBid,
		Slowdown:      sl,
	}
}

// timedKernel executes one kernel of the given ground-truth duration and
// returns its measured (noisy) duration.
func (r *runner) timedKernel(name string, baseDuration float64) float64 {
	start := r.eng.Now()
	r.dev.LaunchKernel(name, baseDuration, r.probe())
	r.eng.Run()
	return r.end - start
}

// mcell is one independent measurement cell of the deployment campaign:
// a unique key (which also seeds the cell's noise stream) and the probe
// routine producing the measured value on the cell's private device.
type mcell struct {
	key string
	run func(r *runner) float64
}

// campaignCells enumerates the full deployment work-list: per-direction
// latency, unidirectional and bidirectional bandwidth over the transfer
// grid, and the per-routine kernel lookup tables.
func campaignCells(tb *machine.Testbed, cfg Config) []mcell {
	var cells []mcell
	add := func(key string, run func(r *runner) float64) {
		cells = append(cells, mcell{key: key, run: run})
	}

	for _, d := range []struct {
		name string
		dir  machine.LinkDir
	}{{"h2d", machine.H2D}, {"d2h", machine.D2H}} {
		dir := d.dir
		// t_l: average of single-byte transfers.
		add("lat|"+d.name, func(r *runner) float64 {
			r.samples = r.samples[:0]
			for i := 0; i < r.cfg.LatencyProbes; i++ {
				r.samples = append(r.samples, r.timedTransfer(dir, 1))
			}
			return stats.Mean(r.samples)
		})
		for _, side := range TransferGrid() {
			bytes := int64(side) * int64(side) * 8
			add(fmt.Sprintf("uni|%s|%d", d.name, side), func(r *runner) float64 {
				return r.measure(func() float64 { return r.timedTransfer(dir, bytes) })
			})
			add(fmt.Sprintf("bid|%s|%d", d.name, side), func(r *runner) float64 {
				return r.measure(func() float64 { return r.timedTransferBid(dir, bytes) })
			})
		}
	}

	gpu := &tb.GPU
	for _, spec := range []struct {
		name string
		dt   kernelmodel.Dtype
	}{{"dgemm", kernelmodel.F64}, {"sgemm", kernelmodel.F32}} {
		spec := spec
		for _, T := range GemmTileGrid() {
			base := kernelmodel.GemmTime(gpu, spec.dt, T, T, T)
			add(fmt.Sprintf("kern|%s|%d", spec.name, T), func(r *runner) float64 {
				return r.measure(func() float64 { return r.timedKernel(spec.name, base) })
			})
		}
	}
	// Level-2: square TxT tiles of the matrix operand.
	for _, T := range GemmTileGrid() {
		base := kernelmodel.GemvTime(gpu, kernelmodel.F64, T, T)
		add(fmt.Sprintf("kern|dgemv|%d", T), func(r *runner) float64 {
			return r.measure(func() float64 { return r.timedKernel("dgemv", base) })
		})
	}
	for _, n := range AxpyTileGrid() {
		base := kernelmodel.AxpyTime(gpu, kernelmodel.F64, n)
		add(fmt.Sprintf("kern|daxpy|%d", n), func(r *runner) float64 {
			return r.measure(func() float64 { return r.timedKernel("daxpy", base) })
		})
	}
	return cells
}

// Cells returns the number of measurement cells of the deployment campaign
// Run performs on tb with cfg.
func Cells(tb *machine.Testbed, cfg Config) int { return len(campaignCells(tb, cfg)) }

// kernelTable assembles one routine's lookup table from measured cells.
func kernelTable(routine, dtype string, grid []int, vals map[string]float64) *KernelTable {
	times := make([]float64, len(grid))
	for i, T := range grid {
		times[i] = vals[fmt.Sprintf("kern|%s|%d", routine, T)]
	}
	return &KernelTable{Routine: routine, Dtype: dtype, Grid: grid, Times: times}
}

// Run executes the full deployment campaign on a testbed. The campaign
// enumerates its measurement cells up front, fans them across
// cfg.Workers cores (each cell simulating on a device reset to noise
// streams seeded from the cell key), and assembles the fits sequentially —
// so the resulting database is bit-for-bit identical at any worker count.
// The cells share a free list of runners, so a campaign builds one
// simulation stack per concurrent cell, not one per cell.
func Run(tb *machine.Testbed, cfg Config) *Deployment {
	cells := campaignCells(tb, cfg)
	type cellOut struct {
		value   float64
		virtual float64
	}
	var stacks runners
	outs, err := parallel.Map(parallel.NewPool(cfg.Workers), cells,
		func(_ int, c mcell) (cellOut, error) {
			r := stacks.get(tb, cfg, cellSeed(cfg.Seed, c.key))
			out := cellOut{value: c.run(r), virtual: r.eng.Now()}
			stacks.put(r)
			return out, nil
		})
	if err != nil {
		panic(fmt.Sprintf("microbench: %v", err)) // cells never return errors
	}
	vals := make(map[string]float64, len(cells))
	virtual := 0.0
	for i, c := range cells {
		vals[c.key] = outs[i].value
		virtual += outs[i].virtual
	}

	gemmGrid := GemmTileGrid()
	return &Deployment{
		TestbedName: tb.Name,
		H2D:         assembleFit("h2d", vals),
		D2H:         assembleFit("d2h", vals),
		Kernels: map[string]*KernelTable{
			"dgemm": kernelTable("dgemm", kernelmodel.F64.String(), gemmGrid, vals),
			"sgemm": kernelTable("sgemm", kernelmodel.F32.String(), gemmGrid, vals),
			"dgemv": kernelTable("dgemv", kernelmodel.F64.String(), gemmGrid, vals),
			"daxpy": kernelTable("daxpy", kernelmodel.F64.String(), AxpyTileGrid(), vals),
		},
		VirtualSeconds: virtual,
	}
}

// TableII renders the fitted transfer sub-models in the format of the
// paper's Table II.
func TableII(deps ...*Deployment) string {
	s := fmt.Sprintf("%-12s %-5s %12s %14s %12s %16s %12s %8s\n",
		"System", "dir", "t_l (s)", "1/t_b (GB/s)", "RSE", "1/t_b bid (GB/s)", "RSE bid", "sl")
	for _, d := range deps {
		for _, row := range []struct {
			dir string
			f   TransferFit
		}{{"h2d", d.H2D}, {"d2h", d.D2H}} {
			s += fmt.Sprintf("%-12s %-5s %12.3g %14.2f %12.3g %16.2f %12.3g %8.2f\n",
				d.TestbedName, row.dir,
				row.f.LatencyS,
				1/row.f.SecPerByte/1e9,
				row.f.RSE,
				1/row.f.SecPerByteBid/1e9,
				row.f.RSEBid,
				row.f.Slowdown)
		}
	}
	return s
}
