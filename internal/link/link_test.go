package link

import (
	"math"
	"math/rand"
	"testing"

	"cocopelia/internal/machine"
	"cocopelia/internal/sim"
)

// testbed returns a link-test machine with round numbers: h2d 1 GB/s with
// slowdown 2, d2h 1 GB/s with slowdown 4, zero latency unless lat is set.
func testbed(lat float64) *machine.Testbed {
	tb := machine.TestbedI()
	tb.H2D = machine.LinkParams{LatencyS: lat, BandwidthBps: 1e9, BidSlowdown: 2}
	tb.D2H = machine.LinkParams{LatencyS: lat, BandwidthBps: 1e9, BidSlowdown: 4}
	return tb
}

// fnDone adapts a test closure to a completion receiver.
type fnDone func()

func (f fnDone) Complete(int32) { f() }

// on wraps fn as a completion handle.
func on(fn func()) sim.Handle { return sim.Handle{To: fnDone(fn)} }

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %.9g, want %.9g", what, got, want)
	}
}

func TestSingleTransferTime(t *testing.T) {
	eng := sim.New()
	l := New(eng, testbed(1e-5), 0, nil)
	var doneAt sim.Time
	l.Submit(machine.H2D, 1e9, on(func() { doneAt = eng.Now() }))
	eng.Run()
	almost(t, doneAt, 1.00001, 1e-12, "h2d 1GB at 1GB/s + 10us latency")
}

func TestZeroByteTransfer(t *testing.T) {
	eng := sim.New()
	l := New(eng, testbed(5e-6), 0, nil)
	var doneAt sim.Time
	l.Submit(machine.D2H, 0, on(func() { doneAt = eng.Now() }))
	eng.Run()
	almost(t, doneAt, 5e-6, 1e-15, "zero-byte transfer costs latency only")
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative size should panic")
		}
	}()
	New(sim.New(), testbed(0), 0, nil).Submit(machine.H2D, -1, sim.Handle{})
}

func TestSameDirectionSerializesFIFO(t *testing.T) {
	eng := sim.New()
	l := New(eng, testbed(0), 0, nil)
	var order []int
	var times []sim.Time
	for i := 0; i < 3; i++ {
		i := i
		l.Submit(machine.H2D, 1e9, on(func() {
			order = append(order, i)
			times = append(times, eng.Now())
		}))
	}
	eng.Run()
	for i := 0; i < 3; i++ {
		if order[i] != i {
			t.Fatalf("FIFO violated: %v", order)
		}
		almost(t, times[i], float64(i+1), 1e-9, "serialized completion")
	}
}

func TestFullBidirectionalSlowdown(t *testing.T) {
	// Equal 1 GB transfers in both directions starting together:
	// h2d takes sl_h2d * 1s only while d2h is active. d2h at rate 1/4
	// finishes at 4s; h2d at rate 1/2 finishes at 2s, after which d2h has
	// 0.5 GB left draining at full rate -> d2h total 2 + 0.5 = 2.5s.
	eng := sim.New()
	l := New(eng, testbed(0), 0, nil)
	var h2dAt, d2hAt sim.Time
	l.Submit(machine.H2D, 1e9, on(func() { h2dAt = eng.Now() }))
	l.Submit(machine.D2H, 1e9, on(func() { d2hAt = eng.Now() }))
	eng.Run()
	almost(t, h2dAt, 2.0, 1e-9, "h2d under contention")
	almost(t, d2hAt, 2.5, 1e-9, "d2h piecewise")
}

func TestPartialOverlapMatchesEq3(t *testing.T) {
	// The scenario of the paper's Eq. 3: t_out_bid shorter than t_in_bid.
	// h2d 1 GB (bid rate 0.5 GB/s), d2h 0.25 GB (bid rate 0.25 GB/s).
	// d2h done at 1.0s; h2d then has 0.5 GB at full speed -> 1.5s total,
	// which equals t_out_bid + (t_in_bid - t_out_bid)/sl_h2d = 1 + 1/2.
	eng := sim.New()
	l := New(eng, testbed(0), 0, nil)
	var h2dAt, d2hAt sim.Time
	l.Submit(machine.H2D, 1e9, on(func() { h2dAt = eng.Now() }))
	l.Submit(machine.D2H, 25e7, on(func() { d2hAt = eng.Now() }))
	eng.Run()
	almost(t, d2hAt, 1.0, 1e-9, "short d2h")
	almost(t, h2dAt, 1.5, 1e-9, "long h2d piecewise (Eq. 3)")
}

func TestLateOppositeArrivalSlowsInFlight(t *testing.T) {
	// h2d 1 GB starts at 0 (uncontended). At t=0.5 a d2h 0.125 GB starts.
	// h2d has 0.5 GB left; rate drops to 0.5 GB/s while d2h active.
	// d2h rate 0.25 finishes at 0.5+0.5=1.0; h2d drained 0.25 in that
	// window, 0.25 left at full rate -> total 1.25s.
	eng := sim.New()
	tb := testbed(0)
	l := New(eng, tb, 0, nil)
	var h2dAt sim.Time
	l.Submit(machine.H2D, 1e9, on(func() { h2dAt = eng.Now() }))
	eng.Schedule(0.5, func() {
		l.Submit(machine.D2H, 125e6, sim.Handle{})
	})
	eng.Run()
	almost(t, h2dAt, 1.25, 1e-9, "in-flight h2d slowed by late d2h")
}

func TestObserverAndStats(t *testing.T) {
	eng := sim.New()
	l := New(eng, testbed(1e-6), 0, nil)
	var observed []int64
	l.SetObserver(func(dir machine.LinkDir, start, end sim.Time, bytes int64) {
		if dir == machine.H2D {
			observed = append(observed, bytes)
		}
		if end < start {
			t.Error("observer interval reversed")
		}
	})
	l.Submit(machine.H2D, 1000, sim.Handle{})
	l.Submit(machine.H2D, 2000, sim.Handle{})
	l.Submit(machine.D2H, 500, sim.Handle{})
	eng.Run()
	if len(observed) != 2 || observed[0] != 1000 || observed[1] != 2000 {
		t.Errorf("observer saw %v", observed)
	}
	st := l.Stats(machine.H2D)
	if st.Bytes != 3000 || st.Transfers != 2 {
		t.Errorf("h2d stats %+v", st)
	}
	if st.BusySeconds <= 0 {
		t.Error("busy time should accumulate")
	}
	if d := l.Stats(machine.D2H); d.Bytes != 500 || d.Transfers != 1 {
		t.Errorf("d2h stats %+v", d)
	}
}

func TestNoiseDeterminism(t *testing.T) {
	run := func() sim.Time {
		eng := sim.New()
		l := New(eng, testbed(0), 0.05, rand.New(rand.NewSource(42)))
		var at sim.Time
		l.Submit(machine.H2D, 1e8, on(func() { at = eng.Now() }))
		return func() sim.Time { eng.Run(); return at }()
	}
	if run() != run() {
		t.Error("same seed must give identical transfer times")
	}
}

func TestNoiseVariesAcrossTransfers(t *testing.T) {
	eng := sim.New()
	l := New(eng, testbed(0), 0.05, rand.New(rand.NewSource(1)))
	var t1, t2 sim.Time
	start2 := sim.Time(0)
	l.Submit(machine.H2D, 1e8, on(func() { t1 = eng.Now() }))
	eng.Schedule(10, func() {
		start2 = eng.Now()
		l.Submit(machine.H2D, 1e8, on(func() { t2 = eng.Now() - start2 }))
	})
	eng.Run()
	if t1 == t2 {
		t.Error("noise should differ across transfers")
	}
	// Both must stay within a few sigma of the ideal 0.1s.
	for _, v := range []sim.Time{t1, t2} {
		if v < 0.07 || v > 0.15 {
			t.Errorf("noisy duration %g outside plausible band", v)
		}
	}
}

// Conservation: with no noise, total busy data time per direction equals
// bytes/bandwidth when the other direction is idle.
func TestBusyConservationUncontended(t *testing.T) {
	eng := sim.New()
	l := New(eng, testbed(0), 0, nil)
	const n = 7
	for i := 0; i < n; i++ {
		l.Submit(machine.H2D, 3e8, sim.Handle{})
	}
	eng.Run()
	st := l.Stats(machine.H2D)
	almost(t, st.BusySeconds, n*0.3, 1e-9, "uncontended busy time")
}
