package parallel

import "sync"

// DAG is a task graph over tasks 0..len(NPred)-1 in compressed form: task
// i waits for NPred[i] other tasks, and Succ[SuccOff[i]:SuccOff[i+1]] are
// the tasks that wait for task i. The graph must be acyclic.
type DAG struct {
	NPred   []int32
	SuccOff []int32
	Succ    []int32
}

// Succs returns the tasks that wait for task i.
func (g *DAG) Succs(i int) []int32 { return g.Succ[g.SuccOff[i]:g.SuccOff[i+1]] }

// RunDAG runs the tasks of g on up to p.Workers() goroutines, the calling
// goroutine among them, and returns once no task is running and none can
// start. A task starts only after every task it waits for has returned
// nil; among the tasks ready to start, the lowest id starts first, so a
// one-worker run (a nil or one-wide pool) runs the tasks in id order
// whenever every edge runs from a lower id to a higher one.
//
// run receives the task id and the pool its own parallel work may use:
// p when no other task is ready or running, so that a lone task gets every
// worker, and nil (run inline) otherwise.
//
// A task that fails is not retried, and no task that waits for it,
// directly or through other tasks, ever starts; every other task still
// runs. RunDAG returns the error of the lowest failing task id, or nil.
func RunDAG(p *Pool, g *DAG, run func(task int, pool *Pool) error) error {
	n := len(g.NPred)
	r := &dagRun{g: g, run: run, pool: p, pending: append([]int32(nil), g.NPred...), failed: -1}
	r.cond.L = &r.mu
	for i, c := range g.NPred {
		if c == 0 {
			r.ready.push(int32(i))
		}
	}
	workers := min(p.Workers(), n)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work()
		}()
	}
	r.work()
	wg.Wait()
	return r.err
}

// dagRun is the shared state of one RunDAG call, guarded by mu.
type dagRun struct {
	g    *DAG
	run  func(int, *Pool) error
	pool *Pool

	mu      sync.Mutex
	cond    sync.Cond
	ready   minHeap
	pending []int32 // per task: predecessors that have not yet succeeded
	running int
	failed  int32 // lowest failing task id, -1 when none
	err     error
}

// work is one worker's loop: take the lowest ready task, run it, release
// its successors, until nothing is ready and nothing is running.
func (r *dagRun) work() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		for len(r.ready) == 0 && r.running > 0 {
			r.cond.Wait()
		}
		if len(r.ready) == 0 {
			return
		}
		i := r.ready.pop()
		r.running++
		var sub *Pool
		if len(r.ready) == 0 && r.running == 1 {
			sub = r.pool
		}
		r.mu.Unlock()
		err := r.run(int(i), sub)
		r.mu.Lock()
		r.running--
		if err != nil {
			if r.failed < 0 || i < r.failed {
				r.failed, r.err = i, err
			}
		} else {
			for _, s := range r.g.Succs(int(i)) {
				if r.pending[s]--; r.pending[s] == 0 {
					r.ready.push(s)
				}
			}
		}
		r.cond.Broadcast()
	}
}

// minHeap is a binary min-heap of task ids.
type minHeap []int32

func (h *minHeap) push(x int32) {
	*h = append(*h, x)
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if a[p] <= a[i] {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *minHeap) pop() int32 {
	a := *h
	top, n := a[0], len(a)-1
	a[0] = a[n]
	a = a[:n]
	for i := 0; ; {
		l, s := 2*i+1, i
		if l < n && a[l] < a[s] {
			s = l
		}
		if l+1 < n && a[l+1] < a[s] {
			s = l + 1
		}
		if s == i {
			break
		}
		a[i], a[s] = a[s], a[i]
		i = s
	}
	*h = a
	return top
}
