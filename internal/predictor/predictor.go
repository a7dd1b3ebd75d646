// Package predictor is the CoCoPeLia tile-selection runtime (the paper's
// Section IV-B): it binds the deployment database (fitted transfer
// sub-models and kernel lookup tables) to the analytic models and answers
// "which tiling size should this routine invocation use?".
//
// Following the paper, model initialization happens on the first invocation
// with a given parameter set (routine, problem size, location flags, model
// kind) and the selected tile is cached and reused by subsequent identical
// calls.
package predictor

import (
	"fmt"
	"strings"

	"cocopelia/internal/machine"
	"cocopelia/internal/microbench"
	"cocopelia/internal/model"
)

// SubModels adapts a deployment database (plus an optional full-problem
// kernel-time estimate for the CSO comparator) to the model.SubModels
// interface for one routine.
type SubModels struct {
	dep      *microbench.Deployment
	table    *microbench.KernelTable
	fullTime float64
}

var _ model.SubModels = (*SubModels)(nil)

// TransferTime implements model.SubModels with the fitted t_l + t_b*bytes.
func (s *SubModels) TransferTime(dir machine.LinkDir, bytes int64) float64 {
	return s.dep.Fit(dir).TimeFor(bytes)
}

// BidSlowdown implements model.SubModels with the fitted slowdown.
func (s *SubModels) BidSlowdown(dir machine.LinkDir) float64 {
	return s.dep.Fit(dir).Slowdown
}

// KernelTileTime implements model.SubModels by direct lookup in the
// measured table.
func (s *SubModels) KernelTileTime(T int) (float64, error) { return s.table.Lookup(T) }

// KernelFullTime implements model.SubModels; it returns the caller-supplied
// full-problem estimate (used only by the CSO comparator) or 0 when unset.
func (s *SubModels) KernelFullTime() float64 { return s.fullTime }

// TileGrid implements model.SubModels.
func (s *SubModels) TileGrid() []int { return s.table.Grid }

// Predictor answers tile-size selection queries against one deployment.
type Predictor struct {
	dep    *microbench.Deployment
	cache  map[string]model.Selection
	hits   int
	misses int
}

// New creates a predictor over a deployment database.
func New(dep *microbench.Deployment) *Predictor {
	return &Predictor{dep: dep, cache: map[string]model.Selection{}}
}

// Deployment returns the underlying deployment database.
func (p *Predictor) Deployment() *microbench.Deployment { return p.dep }

// SubModels builds the model sub-model bundle for a routine.
// fullKernelTime may be zero unless the CSO comparator will be used.
func (p *Predictor) SubModels(routine string, fullKernelTime float64) (*SubModels, error) {
	kt, err := p.dep.Kernel(routine)
	if err != nil {
		return nil, err
	}
	return &SubModels{dep: p.dep, table: kt, fullTime: fullKernelTime}, nil
}

// signature builds the model-reuse cache key: routine, problem size and
// location flags plus the model kind, per Section IV-C.
func signature(kind model.Kind, prm *model.Params) string {
	key := fmt.Sprintf("%s|%s|%d|%dx%dx%d", kind, prm.Routine, prm.DtypeSize, prm.D1, prm.D2, prm.D3)
	for _, o := range prm.Operands {
		key += fmt.Sprintf("|%s:%dx%d:%t:%t", o.Name, o.Rows, o.Cols, o.Get, o.Set)
	}
	return key
}

// Select returns the model-optimal tiling size for the invocation,
// consulting the selection cache first.
func (p *Predictor) Select(kind model.Kind, prm *model.Params) (model.Selection, error) {
	return p.Cached(signature(kind, prm), func() (model.Selection, error) {
		sm, err := p.SubModels(prm.Routine, 0)
		if err != nil {
			return model.Selection{}, err
		}
		return model.SelectT(kind, prm, sm)
	})
}

// Cached is the model-reuse cache every tile selection of the session goes
// through: it returns the selection stored under the signature key,
// counting a hit, or runs pick, stores its selection and counts a miss.
// Errors are returned uncached, so a failing signature fails on every
// call. The key is copied on store, so it may alias a caller's scratch
// buffer.
func (p *Predictor) Cached(key string, pick func() (model.Selection, error)) (model.Selection, error) {
	if sel, ok := p.cache[key]; ok {
		p.hits++
		return sel, nil
	}
	sel, err := pick()
	if err != nil {
		return model.Selection{}, err
	}
	p.cache[strings.Clone(key)] = sel
	p.misses++
	return sel, nil
}

// Predict evaluates one model at an explicit tiling size (no caching).
func (p *Predictor) Predict(kind model.Kind, prm *model.Params, T int, fullKernelTime float64) (float64, error) {
	sm, err := p.SubModels(prm.Routine, fullKernelTime)
	if err != nil {
		return 0, err
	}
	return model.Predict(kind, prm, sm, T)
}

// CacheStats reports selection-cache activity (model reuse).
func (p *Predictor) CacheStats() (hits, misses int) { return p.hits, p.misses }
