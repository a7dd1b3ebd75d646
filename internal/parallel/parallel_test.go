package parallel

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, p := range []*Pool{nil, NewPool(1), NewPool(4), NewPool(64)} {
		got, err := Map(p, items, func(i, item int) (int, error) { return item * item, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", p.Workers(), i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(NewPool(4), nil, func(i, item int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty map: %v, %v", got, err)
	}
}

func TestMapFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	items := make([]int, 1000)
	var ran atomic.Int64
	_, err := Map(NewPool(4), items, func(i, _ int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, boom
		}
		return 0, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("error should cancel remaining work, %d items ran", n)
	}
}

func TestMapSerialErrorStopsImmediately(t *testing.T) {
	boom := errors.New("boom")
	var ran int
	_, err := Map(nil, make([]int, 10), func(i, _ int) (int, error) {
		ran++
		if i == 2 {
			return 0, boom
		}
		return 0, nil
	})
	if !errors.Is(err, boom) || ran != 3 {
		t.Fatalf("serial error path: ran=%d err=%v", ran, err)
	}
}

func TestConcurrencyBound(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	_, err := Map(NewPool(workers), make([]int, 50), func(_, _ int) (int, error) {
		n := cur.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent items, bound is %d", p, workers)
	}
}

func TestPoolStatsAccumulate(t *testing.T) {
	p := NewPool(2)
	if err := ForEach(p, make([]int, 8), func(_, _ int) error {
		time.Sleep(time.Millisecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Jobs != 8 {
		t.Errorf("jobs = %d, want 8", st.Jobs)
	}
	if st.Busy < 8*time.Millisecond {
		t.Errorf("busy = %v, want >= 8ms", st.Busy)
	}
	if u := p.Utilization(st.Busy); u <= 0 {
		t.Errorf("utilization = %g, want > 0", u)
	}
}

func TestNilPoolIsServiceable(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Error("nil pool should report one worker")
	}
	if st := p.Stats(); st.Jobs != 0 || st.Busy != 0 {
		t.Error("nil pool stats should be zero")
	}
	if p.Utilization(time.Second) != 0 {
		t.Error("nil pool utilization should be zero")
	}
	if err := ForEach(p, []int{1, 2, 3}, func(_, _ int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// fakeClock is a deterministic Clock: every sample advances virtual time
// by step. Each work item gets its own (perJobClock), so its measured busy
// span is exactly step (one sample at start, one at end) no matter how the
// workers interleave.
type fakeClock struct {
	ticks int64
	step  time.Duration
}

func (c *fakeClock) now() time.Time {
	c.ticks++
	return time.Unix(0, c.ticks*int64(c.step))
}

// perJobClock returns a pool clock factory handing every work item a
// fresh fakeClock of the given step.
func perJobClock(step time.Duration) func() Clock {
	return func() Clock { return (&fakeClock{step: step}).now }
}

func TestInjectedClockMakesStatsExact(t *testing.T) {
	const items = 16
	for _, workers := range []int{1, 4} {
		p := NewPoolClock(workers, perJobClock(time.Millisecond))
		if err := ForEach(p, make([]int, items), func(_, _ int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		if st.Jobs != items {
			t.Errorf("workers=%d: jobs = %d, want %d", workers, st.Jobs, items)
		}
		// Each item samples the clock twice, so busy is exactly one step
		// per item regardless of real scheduling.
		if want := items * time.Millisecond; st.Busy != want {
			t.Errorf("workers=%d: busy = %v, want exactly %v", workers, st.Busy, want)
		}
	}
}

func TestInjectedClockUtilization(t *testing.T) {
	p := NewPoolClock(2, perJobClock(time.Millisecond))
	if err := ForEach(p, make([]int, 10), func(_, _ int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// 10 items x 1ms busy over a 5ms window on 2 workers = fully utilized.
	if u := p.Utilization(5 * time.Millisecond); u != 1 {
		t.Errorf("utilization = %g, want exactly 1", u)
	}
}

func TestNewPoolClockNilFallsBackToWallClock(t *testing.T) {
	p := NewPoolClock(2, nil)
	if err := ForEach(p, make([]int, 4), func(_, _ int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Jobs != 4 {
		t.Errorf("jobs = %d, want 4", st.Jobs)
	}
}

func TestNewPoolDefaultsToGOMAXPROCS(t *testing.T) {
	if NewPool(0).Workers() < 1 {
		t.Error("default pool must have at least one worker")
	}
	if NewPool(-3).Workers() < 1 {
		t.Error("negative worker count must be normalized")
	}
}
