package plan

import "sync"

// Released plans hand their op and dependency arrays to these free lists,
// and later plans build into them (Graph.Grow). A
// caller that builds one plan per measured cell and drops it when the cell
// ends, the eval runner, so reuses a few arrays instead of allocating a
// plan's worth of memory per cell. The lists are caches like a sync.Pool,
// but a sync.Pool empties at every collection and cannot hand out the
// smallest array that fits; pools by power-of-two size class let a
// campaign pass allocate 85 MB where these lists let it allocate 26 MB.
var (
	freeOps  freeList[Op]
	freeDeps freeList[int32]
)

// maxFree bounds the arrays one free list keeps: about one per plan that
// can be in flight at once. The smallest goes first.
const maxFree = 4

// freeList is a mutex-guarded list of cleared arrays.
type freeList[T any] struct {
	mu   sync.Mutex
	free [][]T
}

// take returns an empty slice with capacity at least n whose backing array
// is all zero: the smallest free array that fits, or a new one.
func (f *freeList[T]) take(n int) []T {
	f.mu.Lock()
	defer f.mu.Unlock()
	best := -1
	for i, s := range f.free {
		if cap(s) >= n && (best < 0 || cap(s) < cap(f.free[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]T, 0, n)
	}
	s := f.free[best]
	f.drop(best)
	return s
}

// put clears s and keeps its array for a later take, dropping the
// smallest kept array past maxFree. Users write only below len (past it
// the array is still zero from its last clear or make), so clearing
// s[:len] zeroes the whole array.
func (f *freeList[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	clear(s)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.free = append(f.free, s[:0])
	if len(f.free) > maxFree {
		small := 0
		for i, a := range f.free {
			if cap(a) < cap(f.free[small]) {
				small = i
			}
		}
		f.drop(small)
	}
}

// drop removes entry i, not keeping order.
func (f *freeList[T]) drop(i int) {
	last := len(f.free) - 1
	f.free[i], f.free[last] = f.free[last], nil
	f.free = f.free[:last]
}

// Release hands the plan's op and dependency arrays to the free lists for
// plans built later. The caller must hold the only reference to the plan
// and must not use it afterwards.
func (p *Plan) Release() {
	freeOps.put(p.Ops)
	freeDeps.put(p.deps)
	p.Ops, p.deps, p.hazards.g = nil, nil, nil
}
