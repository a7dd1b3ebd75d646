// Package parallel provides the bounded worker pool behind the campaign
// execution engine: fan-out of independent simulation work items across
// cores with in-order result placement, first-error capture with
// cancellation of not-yet-started work, and utilization accounting for the
// run summaries of the cmd/ binaries.
//
// Determinism contract: callers must make each work item's result a pure
// function of the item itself (the evaluation campaigns derive every noise
// seed from the work item's cell key, never from execution order), so Map
// returns identical results at any worker count — including the inline
// serial path selected by a nil pool.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Pool bounds the concurrency of Map and ForEach calls and accumulates
// utilization statistics across them. The zero Pool is not useful; use
// NewPool. A nil *Pool is valid everywhere and selects inline serial
// execution on the calling goroutine.
type Pool struct {
	workers int
	clock   Clock
	jobs    atomic.Int64
	busyNS  atomic.Int64
}

// NewPool returns a pool bounded to n concurrent workers; n <= 0 selects
// runtime.GOMAXPROCS(0). Utilization accounting samples the wall clock;
// use NewPoolClock to inject a synthetic clock.
func NewPool(n int) *Pool {
	return NewPoolClock(n, wallClock)
}

// NewPoolClock is NewPool with an injected time source for the busy-time
// accounting. The clock is sampled concurrently from every worker, so it
// must be safe for concurrent use.
func NewPoolClock(n int, clock Clock) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if clock == nil {
		clock = wallClock
	}
	return &Pool{workers: n, clock: clock}
}

// Workers returns the pool's worker bound (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Stats reports the work executed through a pool so far.
type Stats struct {
	// Jobs is the number of completed work items.
	Jobs int64
	// Busy is the cumulative wall-clock time workers spent inside work
	// items, summed across workers (so Busy may exceed elapsed time).
	Busy time.Duration
}

// Stats returns the accumulated counters (zero for a nil pool).
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	return Stats{Jobs: p.jobs.Load(), Busy: time.Duration(p.busyNS.Load())}
}

// Utilization returns the fraction of worker capacity kept busy over an
// elapsed wall-clock window (1 = every worker busy the whole time).
func (p *Pool) Utilization(elapsed time.Duration) float64 {
	if p == nil || elapsed <= 0 {
		return 0
	}
	return float64(p.busyNS.Load()) / (float64(elapsed.Nanoseconds()) * float64(p.workers))
}

// Map applies fn to every item and returns the results in item order. A
// nil pool runs inline on the calling goroutine; otherwise up to
// p.Workers() goroutines pull items from a shared counter. The first error
// cancels the fan-out — no new items start, in-flight items finish — and
// is returned with the partial results discarded.
func Map[T, R any](p *Pool, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	if len(items) == 0 {
		return out, nil
	}
	workers := p.Workers()
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		for i, item := range items {
			var start time.Time
			if p != nil {
				start = p.clock()
			}
			r, err := fn(i, item)
			if p != nil {
				p.busyNS.Add(int64(p.clock().Sub(start)))
				p.jobs.Add(1)
			}
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}

	var (
		next     atomic.Int64
		stop     atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) || stop.Load() {
					return
				}
				start := p.clock()
				r, err := fn(i, items[i])
				p.busyNS.Add(int64(p.clock().Sub(start)))
				p.jobs.Add(1)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					stop.Store(true)
					return
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// ForEach is Map without result collection: it applies fn to every item
// and returns the first error.
func ForEach[T any](p *Pool, items []T, fn func(i int, item T) error) error {
	_, err := Map(p, items, func(i int, item T) (struct{}, error) {
		return struct{}{}, fn(i, item)
	})
	return err
}
