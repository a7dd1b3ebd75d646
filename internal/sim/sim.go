// Package sim implements the deterministic discrete-event simulation engine
// that underpins the simulated GPU testbeds. All hardware models (PCIe link,
// copy engines, compute engine) are expressed as events on a single virtual
// clock measured in seconds.
//
// The engine keeps one pending set of timestamped callbacks ordered by
// (at, seq): virtual time first, then a monotonically increasing issue
// number as the tie-breaker, so that runs are bit-for-bit reproducible.
//
// Events may be cancelled and rescheduled, which the fluid-flow transfer
// model uses to re-plan completion times whenever link contention changes.
//
// Three structural choices keep the per-event cost down, none of which can
// change simulated results because (at, seq) is a total order:
//
//   - The heap is hand-specialized rather than container/heap, stores
//     (at, seq, stamp, ev) entries by value — every sift comparison reads
//     the entry, never chases the *Event — and is 4-ary, roughly halving
//     the sift-down depth for the queue sizes the campaign sustains.
//   - A one-slot "next event" buffer sits beside the heap: a schedule that
//     finds the slot empty parks there without touching the heap at all.
//     The dominant fire-then-schedule-successor pattern (cudart ops that
//     complete and immediately schedule the next op) cycles through the
//     slot, so steady-state chains pay no sift in either direction.
//   - Cancel and Reschedule never perform heap surgery. Every heap entry
//     carries a stamp (a per-engine push counter) snapshotted from the
//     event at insertion; cancelling or rescheduling an event invalidates
//     the stamp in O(1), and stale entries are skipped when a pop or peek
//     reaches them.
package sim

import "fmt"

// Time is a point on the virtual clock, in seconds since simulation start.
type Time = float64

// Event.where states: an event is on the heap (inHeap), parked in the
// next-event slot (inSlot), or not queued at all (notQueued — fired,
// cancelled, or recycled).
const (
	notQueued int8 = iota
	inHeap
	inSlot
)

// Event is a scheduled callback. The zero value is not useful; events are
// created through Engine.Schedule or Engine.After.
//
// Lifetime: an *Event reference is only valid while the event is pending.
// Once it fires or is cancelled the engine recycles the Event object
// through a free list, and a later Schedule call may reuse it — holders
// must drop their references at that point (the link model clears its
// completion-event pointer when a transfer finishes).
type Event struct {
	at  Time
	seq uint64
	// stamp identifies the event's live heap entry: entries snapshot it at
	// insertion, and any entry whose snapshot no longer matches is stale
	// (the event fired from the slot, was cancelled, was rescheduled, or
	// the object was recycled). Stamps come from a per-engine monotonic
	// push counter and are never reused, so a match is exact.
	stamp    uint64
	fn       func()
	where    int8
	canceled bool
}

// At returns the virtual time at which the event is scheduled to fire.
func (ev *Event) At() Time { return ev.at }

// Pending reports whether the event is still queued (not fired, not
// cancelled). Slot-parked events are pending too: where an event waits is
// a throughput detail invisible to the hardware models.
func (ev *Event) Pending() bool { return ev != nil && ev.where != notQueued && !ev.canceled }

// entBefore is the total event order on (at, seq) pairs: earlier time
// first, then issue order. The heap and the slot both agree on it.
func entBefore(aAt Time, aSeq uint64, bAt Time, bSeq uint64) bool {
	//lint:ignore floatorder exact tie-break on stored event times; both sides are loaded values, no rounding happens here
	if aAt != bAt {
		return aAt < bAt
	}
	return aSeq < bSeq
}

// heapEnt is one heap element. Entries are values — at and seq are copied
// from the event at push time — so sift comparisons never dereference the
// event, and lazy deletion (see Event.stamp) leaves stale entries behind
// instead of restructuring the heap.
type heapEnt struct {
	at    Time
	seq   uint64
	stamp uint64
	ev    *Event
}

// live reports whether the entry is still the event's current residence.
func (ent *heapEnt) live() bool { return ent.stamp == ent.ev.stamp }

// Engine is a discrete-event simulator instance. It is not safe for
// concurrent use: callbacks always execute sequentially on the goroutine
// calling Step/Run, in (at, seq) order.
//
// The earliest pending event is the (at, seq) minimum of the pruned heap
// root and the next-event slot.
type Engine struct {
	now     Time
	seq     uint64
	stepped uint64
	// stamps is the heap push counter behind Event.stamp. It survives
	// Reset — stamps must never repeat while any stale entry could still
	// reference an event object, and monotonicity is the cheapest proof.
	stamps uint64
	// free recycles fired and cancelled events so steady-state scheduling
	// allocates no *Event per call (the per-simulation constant the
	// campaign engine's hot path pays millions of times).
	free []*Event

	queue []heapEnt // 4-ary min-heap ordered by (at, seq); may hold stale entries
	next  *Event    // next-event slot: filled by Schedule when empty
	live  int       // live (non-stale) heap entries
	// dead counts stale heap entries (live + dead == len(queue)). It lets
	// the pop path skip the per-entry staleness dereference entirely
	// between invalidations: most campaign windows cancel nothing, and
	// loading ent.ev.stamp for every pop would be the one cache miss the
	// value-typed heap was built to avoid.
	dead int
}

// initialHeapCap pre-sizes the event heap so short simulations never grow
// it and long ones grow it logarithmically few times.
const initialHeapCap = 256

// New returns an engine with the clock at zero and no pending events.
func New() *Engine {
	return &Engine{queue: make([]heapEnt, 0, initialHeapCap)}
}

// Reset returns the engine to its initial state — clock at zero, empty
// queue, zeroed counters — while keeping the event free list and the heap
// backing array, so a reused engine runs its next simulation without
// re-paying the warm-up allocations. Events still pending (queued or
// slot-parked) are cancelled and recycled; as with fired events, callers
// must drop their references. Stale heap entries are dropped without
// touching their (already recycled) events.
func (e *Engine) Reset() {
	for i := range e.queue {
		if ent := &e.queue[i]; ent.live() {
			e.retire(ent.ev)
		}
	}
	clear(e.queue)
	e.queue = e.queue[:0]
	e.live, e.dead = 0, 0
	if sl := e.next; sl != nil {
		e.next = nil
		e.retire(sl)
	}
	e.now, e.seq, e.stepped = 0, 0, 0
}

// retire cancels a still-pending event during Reset and parks it on the
// free list.
func (e *Engine) retire(ev *Event) {
	ev.where = notQueued
	ev.canceled = true
	ev.stamp = 0
	ev.fn = nil
	e.free = append(e.free, ev)
}

// alloc returns a reset Event from the free list, or a fresh one.
func (e *Engine) alloc(at Time, fn func()) *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.at, ev.seq, ev.stamp, ev.fn, ev.where, ev.canceled = at, e.seq, 0, fn, notQueued, false
		return ev
	}
	return &Event{at: at, seq: e.seq, fn: fn, where: notQueued}
}

// recycle parks a no-longer-pending event on the free list, dropping its
// callback so captured state can be collected.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	e.free = append(e.free, ev)
}

// push stamps ev, appends its heap entry and restores the heap order. The
// fresh stamp makes any previous heap entry for ev stale.
func (e *Engine) push(ev *Event) {
	e.stamps++
	ev.stamp = e.stamps
	ev.where = inHeap
	e.queue = append(e.queue, heapEnt{at: ev.at, seq: ev.seq, stamp: ev.stamp, ev: ev})
	e.siftUp(len(e.queue) - 1)
	e.live++
}

// popMin removes the heap's root entry. Callers prune stale roots first
// when they need a live event.
func (e *Engine) popMin() {
	q := e.queue
	n := len(q) - 1
	last := q[n]
	q[n] = heapEnt{}
	e.queue = q[:n]
	if n > 0 {
		q[0] = last
		e.siftDown(0)
	}
}

// pruneHead pops stale entries off the heap root so the head, if any, is
// live. This is the "staleness check at pop": lazy deletion settles its
// debt here, one sift-down per stale entry, instead of O(log n) surgery at
// every Cancel/Reschedule. With no stale entries outstanding (dead == 0)
// it returns without touching any event.
func (e *Engine) pruneHead() {
	if e.dead == 0 {
		return
	}
	for len(e.queue) > 0 && !e.queue[0].live() {
		e.popMin()
		e.dead--
	}
}

// siftUp moves the entry at position i toward the root until its parent is
// not after it.
func (e *Engine) siftUp(i int) {
	q := e.queue
	ent := q[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !entBefore(ent.at, ent.seq, q[p].at, q[p].seq) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ent
}

// siftDown moves the entry at position i toward the leaves, swapping with
// its earliest child while that child precedes it.
func (e *Engine) siftDown(i int) {
	q := e.queue
	n := len(q)
	ent := q[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if entBefore(q[j].at, q[j].seq, q[m].at, q[m].seq) {
				m = j
			}
		}
		if !entBefore(q[m].at, q[m].seq, ent.at, ent.seq) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = ent
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events fired so far (for diagnostics and
// performance reporting).
func (e *Engine) Processed() uint64 { return e.stepped }

// Pending returns the number of events currently queued or slot-parked.
func (e *Engine) Pending() int {
	if e.next != nil {
		return e.live + 1
	}
	return e.live
}

// Schedule queues fn to run at virtual time at. Scheduling in the past
// panics: it always indicates a model bug, and silently clamping would hide
// causality violations.
//
// The monotonic fast path lives here: when the next-event slot is empty
// the event parks there in O(1), so the dominant
// fire-then-schedule-successor chains never touch the heap.
//
//cocolint:hotpath
func (e *Engine) Schedule(at Time, fn func()) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %.12g before now %.12g", at, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	ev := e.alloc(at, fn)
	e.seq++
	if e.next == nil {
		e.next = ev
		ev.where = inSlot
		return ev
	}
	e.push(ev)
	return ev
}

// After queues fn to run d seconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) *Event {
	return e.Schedule(e.now+d, fn)
}

// Cancel removes a pending event — queued or slot-parked — from the engine
// in O(1). A heap resident just has its entry invalidated (the stamp stops
// matching); the entry itself is dropped when a pop or peek reaches it.
// Cancelling a fired or already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.where == notQueued || ev.canceled {
		return
	}
	ev.canceled = true
	if ev.where == inSlot {
		e.next = nil
	} else {
		e.live--
		e.dead++
	}
	ev.where = notQueued
	ev.stamp = 0
	e.recycle(ev)
}

// Reschedule moves a pending event to a new time, keeping its callback and
// issue order. A slot-parked event is retimed in place; a heap resident is
// re-pushed under a fresh stamp, leaving its old entry stale — no heap
// surgery in either direction. Rescheduling a fired or cancelled event
// panics, as does a time in the past.
func (e *Engine) Reschedule(ev *Event, at Time) {
	if ev == nil || ev.where == notQueued || ev.canceled {
		panic("sim: reschedule of non-pending event")
	}
	if at < e.now {
		panic(fmt.Sprintf("sim: reschedule at %.12g before now %.12g", at, e.now))
	}
	ev.at = at
	if ev.where == inSlot {
		return
	}
	e.live--
	e.dead++
	e.push(ev)
}

// peek returns the next event to fire — the (at, seq) minimum of the
// pruned heap root and the slot — or nil when nothing is pending.
func (e *Engine) peek() *Event {
	e.pruneHead()
	sl := e.next
	if len(e.queue) > 0 {
		if h := &e.queue[0]; sl == nil || entBefore(h.at, h.seq, sl.at, sl.seq) {
			return h.ev
		}
	}
	return sl
}

// take removes ev — located by peek — from its container and marks it no
// longer pending.
func (e *Engine) take(ev *Event) {
	if ev == e.next {
		e.next = nil
	} else { // ev is the pruned heap root
		e.popMin()
		e.live--
	}
	ev.where = notQueued
}

// fire advances the clock to ev, runs its callback, and recycles it.
//
//cocolint:hotpath
func (e *Engine) fire(ev *Event) {
	e.now = ev.at
	e.stepped++
	//lint:ignore hotpath the event callback IS the simulation; each model's callback is proved free at its own hot root
	ev.fn()
	// Recycle only after the callback returns: the callback may consult
	// the firing event (it is no longer pending), and recycling earlier
	// would let a Schedule inside the callback reuse it mid-flight.
	e.recycle(ev)
}

// Step fires the earliest pending event, advancing the clock to its
// timestamp. It returns false when no events remain.
//
//cocolint:hotpath
func (e *Engine) Step() bool {
	ev := e.peek()
	if ev == nil {
		return false
	}
	e.take(ev)
	e.fire(ev)
	return true
}

// Run fires events until the queue drains, returning the final clock value.
// It is Step in a loop with the peek/take pair inlined: each iteration
// fires the earlier of the pruned heap root and the slot.
//
//cocolint:hotpath
func (e *Engine) Run() Time {
	for {
		e.pruneHead()
		sl := e.next
		if len(e.queue) > 0 {
			h := &e.queue[0]
			if sl == nil || entBefore(h.at, h.seq, sl.at, sl.seq) {
				ev := h.ev
				e.popMin()
				e.live--
				ev.where = notQueued
				e.fire(ev)
				continue
			}
		}
		if sl == nil {
			return e.now
		}
		e.next = nil
		sl.where = notQueued
		e.fire(sl)
	}
}

// RunUntil fires events with timestamps <= deadline (advancing the clock to
// at most deadline) and returns the number of events fired.
func (e *Engine) RunUntil(deadline Time) uint64 {
	fired := uint64(0)
	for {
		ev := e.peek()
		if ev == nil || ev.at > deadline {
			break
		}
		e.take(ev)
		e.fire(ev)
		fired++
	}
	if e.now < deadline {
		e.now = deadline
	}
	return fired
}
