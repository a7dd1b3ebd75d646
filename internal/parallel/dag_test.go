package parallel

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
)

// randomDAG returns a random acyclic graph of n tasks with edges from
// lower to higher ids (each pair with probability density/n), as a DAG and
// as per-task predecessor lists.
func randomDAG(rng *rand.Rand, n int, density float64) (*DAG, [][]int32) {
	preds := make([][]int32, n)
	succs := make([][]int32, n)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			if rng.Float64() < density/float64(n) {
				preds[j] = append(preds[j], int32(i))
				succs[i] = append(succs[i], int32(j))
			}
		}
	}
	g := &DAG{NPred: make([]int32, n), SuccOff: make([]int32, n+1)}
	for i := range succs {
		g.NPred[i] = int32(len(preds[i]))
		g.Succ = append(g.Succ, succs[i]...)
		g.SuccOff[i+1] = int32(len(g.Succ))
	}
	return g, preds
}

// TestRunDAGRandom runs random DAGs of up to 200 tasks at widths 1, 2 and
// 8, some with failing tasks. Every task must start only after all its
// predecessors have finished and run at most once; exactly the tasks with
// no failing ancestor run; the error must be the lowest failing id's among
// the tasks that run; a task is handed the pool only while no other task
// runs; and RunDAG must return only after every started task has finished.
func TestRunDAGRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 60; iter++ {
		n := 1 + rng.Intn(200)
		density := []float64{0.5, 2, 8}[iter%3]
		g, preds := randomDAG(rng, n, density)
		fails := make([]bool, n)
		if iter%2 == 1 {
			for k := rng.Intn(4); k >= 0; k-- {
				fails[rng.Intn(n)] = true
			}
		}
		// blocked[i]: some ancestor of i fails, so i must never start.
		blocked := make([]bool, n)
		wantErr := -1
		for i := 0; i < n; i++ {
			for _, p := range preds[i] {
				blocked[i] = blocked[i] || blocked[p] || fails[p]
			}
			if fails[i] && !blocked[i] && wantErr < 0 {
				wantErr = i
			}
		}
		for _, width := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("iter=%d/n=%d/width=%d", iter, n, width), func(t *testing.T) {
				pool := NewPool(width)
				runs := make([]atomic.Int32, n)
				done := make([]atomic.Bool, n)
				var active atomic.Int32
				var bad atomic.Value
				fail := func(format string, args ...any) { bad.CompareAndSwap(nil, fmt.Sprintf(format, args...)) }
				err := RunDAG(pool, g, func(i int, sub *Pool) error {
					if a := active.Add(1); sub != nil && (sub != pool || a != 1) {
						fail("task %d got pool %p with %d tasks running", i, sub, a)
					}
					defer active.Add(-1)
					if runs[i].Add(1) != 1 {
						fail("task %d ran twice", i)
					}
					for _, p := range preds[i] {
						if !done[p].Load() {
							fail("task %d started before its predecessor %d finished", i, p)
						}
					}
					if blocked[i] {
						fail("task %d started below a failed task", i)
					}
					if fails[i] {
						return fmt.Errorf("task %d failed", i)
					}
					done[i].Store(true)
					return nil
				})
				if a := active.Load(); a != 0 {
					t.Fatalf("RunDAG returned with %d tasks still running", a)
				}
				if msg := bad.Load(); msg != nil {
					t.Fatal(msg)
				}
				for i := range runs {
					want := int32(1)
					if blocked[i] {
						want = 0
					}
					if got := runs[i].Load(); got != want {
						t.Fatalf("task %d ran %d times, want %d", i, got, want)
					}
				}
				switch {
				case wantErr < 0 && err != nil:
					t.Fatalf("RunDAG error %v, want nil", err)
				case wantErr >= 0 && (err == nil || err.Error() != fmt.Sprintf("task %d failed", wantErr)):
					t.Fatalf("RunDAG error %v, want task %d's", err, wantErr)
				}
			})
		}
	}
}

// TestRunDAGLowestReadyFirst pins the start order on one worker: the
// lowest ready id first, which for edges from lower to higher ids is the
// id order, and a nil pool runs inline the same way.
func TestRunDAGLowestReadyFirst(t *testing.T) {
	// 0 -> 3, 1 -> 2: ready {0, 1} at the start.
	g := &DAG{NPred: []int32{0, 0, 1, 1}, SuccOff: []int32{0, 1, 2, 2, 2}, Succ: []int32{3, 2}}
	for _, p := range []*Pool{nil, NewPool(1)} {
		var order []int
		if err := RunDAG(p, g, func(i int, _ *Pool) error { order = append(order, i); return nil }); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(order) != "[0 1 2 3]" {
			t.Fatalf("order %v, want [0 1 2 3]", order)
		}
	}
	// An empty graph runs nothing.
	if err := RunDAG(NewPool(4), &DAG{SuccOff: []int32{0}}, func(int, *Pool) error {
		return errors.New("ran")
	}); err != nil {
		t.Fatal(err)
	}
}
