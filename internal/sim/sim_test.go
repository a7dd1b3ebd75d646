package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	end := e.Run()
	if end != 3 {
		t.Errorf("end time = %v, want 3", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of issue order: %v", got)
		}
	}
}

func TestAfter(t *testing.T) {
	e := New()
	var at Time
	e.Schedule(2, func() {
		e.After(3, func() { at = e.Now() })
	})
	e.Run()
	if at != 5 {
		t.Errorf("After fired at %v, want 5", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.Schedule(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		e.Schedule(1, func() {})
	})
	e.Run()
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil callback should panic")
		}
	}()
	New().Schedule(1, nil)
}

func TestReschedule(t *testing.T) {
	e := New()
	var at Time
	ev := e.Schedule(10, func() { at = e.Now() })
	e.Schedule(1, func() { e.Reschedule(ev, 4) })
	e.Run()
	if at != 4 {
		t.Errorf("rescheduled event fired at %v, want 4", at)
	}
}

func TestRescheduleFiredPanics(t *testing.T) {
	e := New()
	ev := e.Schedule(1, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("rescheduling a fired event should panic")
		}
	}()
	e.Reschedule(ev, 5)
}

func TestProcessedCount(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Processed() != 7 {
		t.Errorf("Processed = %d, want 7", e.Processed())
	}
}

// Property: random schedules fire in non-decreasing time order and the
// clock never moves backwards.
func TestRandomScheduleOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var fired []Time
		k := int(n)%100 + 1
		times := make([]Time, k)
		for i := 0; i < k; i++ {
			times[i] = rng.Float64() * 100
			at := times[i]
			e.Schedule(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != k {
			return false
		}
		sorted := append([]Time(nil), times...)
		sort.Float64s(sorted)
		for i := range sorted {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEventRecycling(t *testing.T) {
	// Fired events return to the free list and back future Schedule calls,
	// so steady-state simulation allocates no events.
	e := New()
	ev1 := e.Schedule(1, func() {})
	e.Run()
	ev2 := e.Schedule(2, func() {})
	if ev1 != ev2 {
		t.Error("fired event should be recycled by the next Schedule")
	}
	if !ev2.Pending() || ev2.At() != 2 {
		t.Error("recycled event should be pending at its new time")
	}
	e.Run()

	// Events Reset drops recycle too, and the stale reference reads as dead.
	ev3 := e.Schedule(5, func() { t.Error("a dropped event must not fire") })
	e.Reset()
	if ev3.Pending() {
		t.Error("dropped event should not be pending")
	}
	ev4 := e.Schedule(6, func() {})
	if ev4 != ev3 {
		t.Error("dropped event should be recycled")
	}
	e.Run()
}

// runWorkload drives one randomized schedule workload on e and returns the
// fired (time, id) sequence and the final clock. Callbacks schedule
// children and reschedule pending siblings, so the heap sees the full
// operation mix the link model generates.
func runWorkload(e *Engine, seed int64) (fired [][2]float64, end Time) {
	rng := rand.New(rand.NewSource(seed))
	id := 0
	var pending []*Event
	var schedule func(at Time, depth int)
	schedule = func(at Time, depth int) {
		myID := id
		id++
		ev := e.Schedule(at, func() {
			fired = append(fired, [2]float64{e.Now(), float64(myID)})
			switch op := rng.Intn(3); {
			case op == 0 && depth < 3:
				schedule(e.Now()+rng.Float64(), depth+1)
			case op == 1 && len(pending) > 0:
				victim := pending[rng.Intn(len(pending))]
				if victim.Pending() {
					e.Reschedule(victim, e.Now()+rng.Float64())
				}
			}
		})
		pending = append(pending, ev)
	}
	for i := 0; i < 60; i++ {
		schedule(rng.Float64()*10, 0)
	}
	return fired, e.Run()
}

// Property: a Reset()-reused engine replays a workload with the identical
// event order and final clock as a fresh engine (the invariant that lets
// the campaign engine share one engine across repetitions and cells).
func TestResetReuseIdenticalToFreshEngine(t *testing.T) {
	reused := New()
	// Dirty the reused engine with a different workload, including pending
	// events at Reset time, so Reset has real state to clear.
	reused.Schedule(1, func() {})
	runWorkload(reused, 999)
	reused.Schedule(reused.Now()+5, func() {})

	f := func(seed int64) bool {
		reused.Reset()
		if reused.Now() != 0 || reused.Pending() != 0 || reused.Processed() != 0 {
			t.Fatal("Reset did not clear engine state")
		}
		gotFired, gotEnd := runWorkload(reused, seed)
		wantFired, wantEnd := runWorkload(New(), seed)
		if gotEnd != wantEnd || len(gotFired) != len(wantFired) {
			return false
		}
		for i := range wantFired {
			if gotFired[i] != wantFired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the specialized 4-ary heap pops the same sequence as a naive
// sorted reference under a random mix of schedules, reschedules and
// steps.
func TestHeapMatchesReferenceProperty(t *testing.T) {
	type refEvent struct {
		at  Time
		seq uint64
		id  int
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var ref []refEvent // alive reference events, unordered
		live := map[int]*Event{}
		var fired []int
		nextID := 0
		seq := uint64(0)
		for op := 0; op < 400; op++ {
			switch rng.Intn(4) {
			case 0, 1: // schedule
				at := e.Now() + rng.Float64()*5
				id := nextID
				nextID++
				live[id] = e.Schedule(at, func() { fired = append(fired, id) })
				ref = append(ref, refEvent{at: at, seq: seq, id: id})
				seq++
			case 2: // reschedule a random live event
				if len(ref) == 0 {
					continue
				}
				i := rng.Intn(len(ref))
				at := e.Now() + rng.Float64()*5
				e.Reschedule(live[ref[i].id], at)
				ref[i].at = at
			case 3: // step: the reference min must fire
				if len(ref) == 0 {
					continue
				}
				minI := 0
				for i := 1; i < len(ref); i++ {
					if ref[i].at < ref[minI].at ||
						(ref[i].at == ref[minI].at && ref[i].seq < ref[minI].seq) {
						minI = i
					}
				}
				want := ref[minI].id
				before := len(fired)
				step(e)
				if len(fired) != before+1 || fired[before] != want {
					return false
				}
				delete(live, want)
				ref = append(ref[:minI], ref[minI+1:]...)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestScheduleSteadyStateDoesNotAllocateEvents(t *testing.T) {
	e := New()
	var fn func()
	fn = func() {}
	// Warm up the free list and the pre-sized heap.
	for i := 0; i < 100; i++ {
		e.After(1, fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(1, fn)
		step(e)
	})
	if allocs != 0 {
		t.Errorf("steady-state schedule+step allocates %.1f objects/op, want 0", allocs)
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		step(e)
	}
}

// BenchmarkEngineChurn mimics the fluid-flow link's workload: a standing
// population of events with frequent reschedules.
func BenchmarkEngineChurn(b *testing.B) {
	e := New()
	b.ReportAllocs()
	const standing = 64
	evs := make([]*Event, standing)
	for i := range evs {
		evs[i] = e.Schedule(e.Now()+1+Time(i), func() {})
	}
	for i := 0; i < b.N; i++ {
		slot := i % standing
		if evs[slot].Pending() {
			e.Reschedule(evs[slot], e.Now()+2)
		} else {
			evs[slot] = e.Schedule(e.Now()+2, func() {})
		}
		step(e)
	}
}

// engine is the scheduling surface the Run oracle drives, implemented by
// both the real engine and naiveEngine.
type engine interface {
	Now() Time
	Schedule(at Time, fn func()) *Event
	Reschedule(ev *Event, at Time)
	Run() Time
}

// naiveEngine is the reference for Run: one slice kept sorted by (at, seq),
// fired from the front. It never recycles events, so drivers must drop
// their references to fired events, as the real engine's
// Event lifetime contract requires.
type naiveEngine struct {
	now     Time
	seq     uint64
	pending []*Event
}

func (n *naiveEngine) Now() Time { return n.now }

func (n *naiveEngine) insert(ev *Event) {
	i := sort.Search(len(n.pending), func(i int) bool {
		return entBefore(ev.at, ev.seq, n.pending[i].at, n.pending[i].seq)
	})
	n.pending = append(n.pending, nil)
	copy(n.pending[i+1:], n.pending[i:])
	n.pending[i] = ev
}

func (n *naiveEngine) remove(ev *Event) {
	for i, p := range n.pending {
		if p == ev {
			n.pending = append(n.pending[:i], n.pending[i+1:]...)
			return
		}
	}
}

func (n *naiveEngine) Schedule(at Time, fn func()) *Event {
	ev := &Event{at: at, seq: n.seq, fn: fn}
	n.seq++
	n.insert(ev)
	return ev
}

func (n *naiveEngine) Reschedule(ev *Event, at Time) {
	n.remove(ev)
	ev.at = at
	n.insert(ev)
}

func (n *naiveEngine) Run() Time {
	for len(n.pending) > 0 {
		ev := n.pending[0]
		n.pending = n.pending[1:]
		n.now = ev.at
		ev.fn()
	}
	return n.now
}

// runTieWorkload drives a workload whose timestamps are quantized to a
// coarse grid, so same-timestamp runs are the common case rather than a
// measure-zero accident. Callbacks schedule children at the CURRENT
// timestamp and reschedule siblings onto the current timestamp — every
// operation that races the next-event slot against the heap root inside
// Run. check runs after every callback.
func runTieWorkload(e engine, seed int64, check func()) (fired [][2]float64, end Time) {
	rng := rand.New(rand.NewSource(seed))
	const tick = 0.25
	quant := func(x float64) Time { return Time(int(x/tick)) * tick }
	var live []*Event // pending events, dropped as they fire
	drop := func(ev *Event) {
		for i, l := range live {
			if l == ev {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	id := 0
	var schedule func(at Time, depth int)
	schedule = func(at Time, depth int) {
		myID := id
		id++
		var ev *Event
		ev = e.Schedule(at, func() {
			drop(ev)
			fired = append(fired, [2]float64{e.Now(), float64(myID)})
			switch op := rng.Intn(5); {
			case op == 0 && depth < 4:
				// Half of these children land exactly on e.Now().
				schedule(e.Now()+quant(rng.Float64()*0.5), depth+1)
			case op == 1 && len(live) > 0:
				// Quantized retime, possibly onto the current timestamp.
				e.Reschedule(live[rng.Intn(len(live))], e.Now()+quant(rng.Float64()*2))
			}
			check()
		})
		live = append(live, ev)
	}
	for i := 0; i < 80; i++ {
		schedule(quant(rng.Float64()*8), 0)
	}
	return fired, e.Run()
}

// runFixedSequence is a pinned same-timestamp run mutated while it fires:
// the first event moves a later same-timestamp event past the others and
// reschedules a late event onto the current timestamp.
func runFixedSequence(e engine) (got []int, end Time) {
	var evB, evE *Event
	e.Schedule(1, func() {
		got = append(got, 1)
		e.Reschedule(evB, 3) // same timestamp, still queued -> last
		e.Reschedule(evE, 1) // late time -> current timestamp
	})
	evB = e.Schedule(1, func() { got = append(got, 2) })
	e.Schedule(1, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 4) })
	evE = e.Schedule(5, func() { got = append(got, 5) })
	e.Schedule(2, func() { got = append(got, 6) })
	return got, e.Run()
}

// Property: Run — the slot-versus-heap loop the campaign spends its time
// in — fires the identical sequence and ends at the identical time as the
// naive sorted-slice engine, on tie-heavy workloads with in-callback
// schedule and reschedule onto the current time. The heap's
// live+dead == len(queue) counter invariant holds after every callback.
func TestRunMatchesNaiveProperty(t *testing.T) {
	t.Run("fixed", func(t *testing.T) {
		got, end := runFixedSequence(New())
		want, wantEnd := runFixedSequence(&naiveEngine{})
		// 1 fires, moves 2 to t=3 and retimes 5 to t=1 (it keeps its issue
		// order, after 3 and 4); then 3, 4, 5, 6 at t=2 and 2 at t=3.
		if fmt.Sprint(want) != fmt.Sprint([]int{1, 3, 4, 5, 6, 2}) || wantEnd != 3 {
			t.Fatalf("naive engine fired %v ending at %v, want [1 3 4 5 6 2] ending at 3", want, wantEnd)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) || end != wantEnd {
			t.Fatalf("Run fired %v ending at %v, want %v ending at %v", got, end, want, wantEnd)
		}
	})
	t.Run("ties", func(t *testing.T) {
		f := func(seed int64) bool {
			e := New()
			check := func() {
				if e.live+e.dead != len(e.queue) {
					t.Fatalf("heap counter invariant broken: live=%d dead=%d len=%d",
						e.live, e.dead, len(e.queue))
				}
			}
			got, end := runTieWorkload(e, seed, check)
			want, wantEnd := runTieWorkload(&naiveEngine{}, seed, func() {})
			if !slices.Equal(got, want) || end != wantEnd {
				t.Logf("seed %d: Run fired %d events ending at %v, naive fired %d ending at %v",
					seed, len(got), end, len(want), wantEnd)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Error(err)
		}
	})
}

// step fires the earliest pending event — the (at, seq) minimum of the
// pruned heap root and the slot — advancing the clock to its timestamp,
// and reports false when no events remain: one iteration of Run, for the
// tests that interleave single firings with other operations.
func step(e *Engine) bool {
	e.pruneHead()
	ev := e.next
	if len(e.queue) > 0 {
		if h := &e.queue[0]; ev == nil || entBefore(h.at, h.seq, ev.at, ev.seq) {
			ev = h.ev
			e.popMin()
			e.live--
			ev.where = notQueued
			e.fire(ev)
			return true
		}
	}
	if ev == nil {
		return false
	}
	e.next = nil
	ev.where = notQueued
	e.fire(ev)
	return true
}
