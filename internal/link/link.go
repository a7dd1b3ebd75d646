// Package link simulates the host-device interconnect (PCIe) of a testbed
// as two directional channels that share a physical medium.
//
// Each direction behaves like a CUDA copy engine: transfers are processed
// one at a time in FIFO order. A transfer consists of a fixed latency phase
// (t_l) followed by a fluid data phase that drains bytes at the current
// effective rate. While BOTH directions are in their data phase, each
// side's rate is divided by its direction-specific bidirectional slowdown
// factor — the paper's sl_{h2d,bid} and sl_{d2h,bid}. Rates are recomputed,
// and in-flight completion events rescheduled, at every instant the set of
// active transfers changes, so partially-overlapped opposite transfers are
// modeled exactly (the situation the paper's Eq. 3 approximates
// analytically).
//
// Per-transfer multiplicative bandwidth noise makes repeated measurements
// differ, which exercises the confidence-interval stopping rule of the
// deployment micro-benchmarks.
package link

import (
	"fmt"
	"math/rand"

	"cocopelia/internal/machine"
	"cocopelia/internal/sim"
)

// Observer receives the completed data-phase interval of every transfer.
// It is used by the trace package to build timelines. start marks the end
// of the latency phase; bytes is the payload size.
type Observer func(dir machine.LinkDir, start, end sim.Time, bytes int64)

// transfer is one queued or in-flight copy. Transfers recycle through the
// link free list at completion, and completion reaches the submitter
// through a handle, so a transfer holds no callback of its own and
// steady-state submissions allocate nothing.
type transfer struct {
	bytes     int64
	remaining float64 // bytes left to drain in the data phase
	rate      float64 // current drain rate, bytes/s
	bwFactor  float64 // per-transfer multiplicative noise on bandwidth
	dataStart sim.Time
	updated   sim.Time // when `remaining` was last settled
	inData    bool     // latency phase finished
	done      sim.Handle
	complete  *sim.Event
}

// channel is one direction of the link. One transfer is active per
// direction at a time, so the two engine callbacks that drive it (enterFn
// ends the latency phase, finishFn completes the transfer) are created
// once per channel.
type channel struct {
	params machine.LinkParams
	// queue is a FIFO over a reusable backing array, qHead its head; it
	// compacts like the device's compute queue (see device.Device).
	queue    []*transfer
	qHead    int
	active   *transfer // nil when idle
	busy     float64   // accumulated busy seconds (latency + data)
	started  sim.Time
	bytes    int64 // total payload bytes completed
	count    int64 // total transfers completed
	enterFn  func()
	finishFn func()
}

// Link is the simulated interconnect. It must be driven by the same
// sim.Engine as the rest of the device.
type Link struct {
	eng      *sim.Engine
	dirs     [2]*channel
	rng      *rand.Rand
	noise    float64
	observer Observer
	free     []*transfer
}

// New creates a link on eng with the testbed's parameters. noiseSigma is
// the relative standard deviation of per-transfer bandwidth noise; rng may
// be nil for a noiseless link.
func New(eng *sim.Engine, tb *machine.Testbed, noiseSigma float64, rng *rand.Rand) *Link {
	l := &Link{
		eng:   eng,
		noise: noiseSigma,
		rng:   rng,
	}
	for _, dir := range []machine.LinkDir{machine.H2D, machine.D2H} {
		params := tb.H2D
		if dir == machine.D2H {
			params = tb.D2H
		}
		l.dirs[dir] = &channel{
			params:   params,
			enterFn:  func() { l.enterData(dir) },
			finishFn: func() { l.finish(dir) },
		}
	}
	return l
}

// SetObserver installs a trace observer (may be nil to remove).
func (l *Link) SetObserver(obs Observer) { l.observer = obs }

// Reset returns the link to its just-created state — empty channels, zeroed
// counters, no observer — while keeping the transfer free list, and reseeds
// the noise stream so the next run draws the exact sequence a freshly
// constructed link with that seed would. Transfers still queued or in
// flight are abandoned (their completion events belong to an engine the
// caller is resetting in the same breath). A noiseless link stays
// noiseless.
func (l *Link) Reset(seed int64) {
	if l.rng != nil {
		l.rng.Seed(seed)
	}
	for _, c := range l.dirs {
		clear(c.queue)
		c.queue = c.queue[:0]
		c.qHead = 0
		c.active = nil
		c.busy, c.started = 0, 0
		c.bytes, c.count = 0, 0
	}
	l.observer = nil
}

// Stats describes one direction's accumulated activity.
type Stats struct {
	BusySeconds float64
	Bytes       int64
	Transfers   int64
}

// Stats returns the accumulated activity of the given direction.
func (l *Link) Stats(dir machine.LinkDir) Stats {
	c := l.dirs[dir]
	return Stats{BusySeconds: c.busy, Bytes: c.bytes, Transfers: c.count}
}

// Submit enqueues a transfer of the given size; done is notified (as a
// simulation event) when the last byte lands. Zero-byte transfers cost the
// latency only. Negative sizes panic: they always indicate a caller bug.
// The bandwidth noise is drawn at submission.
//
//cocolint:hotpath
func (l *Link) Submit(dir machine.LinkDir, bytes int64, done sim.Handle) {
	if bytes < 0 {
		panic(fmt.Sprintf("link: negative transfer size %d", bytes))
	}
	c := l.dirs[dir]
	if len(c.queue) == cap(c.queue) && 2*c.qHead >= len(c.queue) {
		n := copy(c.queue, c.queue[c.qHead:])
		clear(c.queue[n:])
		c.queue, c.qHead = c.queue[:n], 0
	}
	t := l.allocTransfer()
	t.bytes, t.remaining, t.bwFactor, t.done = bytes, float64(bytes), l.bwFactor(), done
	//lint:ignore hotpath per-direction queue compacts whenever it drains or half of it has run; the backing array grows only to twice the deepest backlog
	c.queue = append(c.queue, t)
	if c.active == nil {
		l.startNext(dir)
	}
}

// allocTransfer returns a recycled (or fresh) zeroed transfer.
func (l *Link) allocTransfer() *transfer {
	if n := len(l.free); n > 0 {
		t := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return t
	}
	return &transfer{}
}

// bwFactor draws the per-transfer bandwidth noise.
func (l *Link) bwFactor() float64 {
	if l.rng == nil || l.noise == 0 {
		return 1
	}
	f := 1 + l.noise*l.rng.NormFloat64()
	if f < 0.5 {
		f = 0.5 // clamp pathological draws
	}
	return f
}

// startNext pops the queue head of dir and begins its latency phase.
func (l *Link) startNext(dir machine.LinkDir) {
	c := l.dirs[dir]
	if c.active != nil {
		return
	}
	if c.qHead == len(c.queue) {
		if c.qHead > 0 {
			c.queue = c.queue[:0]
			c.qHead = 0
		}
		return
	}
	c.active = c.queue[c.qHead]
	c.queue[c.qHead] = nil
	c.qHead++
	if c.qHead == len(c.queue) {
		c.queue = c.queue[:0]
		c.qHead = 0
	}
	c.started = l.eng.Now()
	l.eng.After(c.params.LatencyS, c.enterFn)
}

// enterData moves dir's active transfer from its latency phase into the
// fluid data phase and recomputes rates on both directions.
func (l *Link) enterData(dir machine.LinkDir) {
	t := l.dirs[dir].active
	t.inData = true
	t.dataStart = l.eng.Now()
	t.updated = l.eng.Now()
	l.replan()
}

// otherDir returns the opposite direction.
func otherDir(dir machine.LinkDir) machine.LinkDir {
	if dir == machine.H2D {
		return machine.D2H
	}
	return machine.H2D
}

// replan settles the progress of every in-flight data-phase transfer at the
// current instant, assigns new rates based on whether the opposite
// direction is simultaneously active, and reschedules completion events.
// It is the hottest function in the link (every transfer boundary calls it),
// so the two directions are unrolled rather than ranged over.
func (l *Link) replan() {
	now := l.eng.Now()
	ch, cd := l.dirs[machine.H2D], l.dirs[machine.D2H]
	th, td := ch.active, cd.active
	hData := th != nil && th.inData
	dData := td != nil && td.inData
	bothActive := hData && dData
	if hData {
		l.replanOne(machine.H2D, ch, th, now, bothActive)
	}
	if dData {
		l.replanOne(machine.D2H, cd, td, now, bothActive)
	}
}

// replanOne settles one in-flight data-phase transfer at now and
// reschedules its completion. The remaining bytes are always settled at the
// old rate and the finish recomputed from scratch — even when the effective
// rate is unchanged — because reusing a previously scheduled finish time
// instead of recomputing now + remaining/rate can differ in the last ulp,
// and event times must be bit-identical across replay paths.
func (l *Link) replanOne(dir machine.LinkDir, c *channel, t *transfer, now sim.Time, bothActive bool) {
	if t.rate > 0 {
		t.remaining -= t.rate * (now - t.updated)
		if t.remaining < 0 {
			t.remaining = 0
		}
	}
	t.updated = now
	rate := c.params.BandwidthBps * t.bwFactor
	if bothActive {
		rate /= c.params.BidSlowdown
	}
	t.rate = rate
	finish := now
	if t.remaining > 0 {
		finish = now + t.remaining/rate
	}
	if t.complete != nil && t.complete.Pending() {
		l.eng.Reschedule(t.complete, finish)
	} else {
		t.complete = l.eng.Schedule(finish, c.finishFn)
	}
}

// inData reports whether dir has a transfer in its data phase.
func (l *Link) inData(dir machine.LinkDir) bool {
	t := l.dirs[dir].active
	return t != nil && t.inData
}

// finish completes the active transfer of dir, notifies the observer and
// the caller, starts the next queued transfer, and re-plans the opposite
// direction (whose contention just disappeared).
func (l *Link) finish(dir machine.LinkDir) {
	c := l.dirs[dir]
	t := c.active
	if t == nil {
		panic("link: completion with no active transfer")
	}
	now := l.eng.Now()
	c.active = nil
	c.busy += now - c.started
	c.bytes += t.bytes
	c.count++
	if l.observer != nil {
		l.observer(dir, t.dataStart, now, t.bytes)
	}
	// The opposite direction speeds up now that we are done. The transfer
	// recycles before its completion handle is notified (the handle is saved
	// locally), so a submitter that queues more transfers may reuse it. Its
	// completion event has fired and the engine may recycle it, so the
	// reference is dropped with the rest of the transfer.
	l.replan()
	l.startNext(dir)
	done := t.done
	*t = transfer{}
	l.free = append(l.free, t)
	done.Fire()
}
