package cudart

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/parallel"
	"cocopelia/internal/sim"
)

func newRT() *Runtime {
	eng := sim.New()
	return New(device.New(eng, machine.TestbedI(), 1, true))
}

func TestStreamOrdering(t *testing.T) {
	rt := newRT()
	s := rt.NewStream()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Callback(func() { order = append(order, i) })
	}
	if _, err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("stream order violated: %v", order)
		}
	}
}

func TestCrossStreamEventOrdering(t *testing.T) {
	rt := newRT()
	s1, s2 := rt.NewStream(), rt.NewStream()
	var order []string
	s1.Callback(func() { order = append(order, "a") })
	ev := s1.Record()
	s2.WaitEvent(ev)
	s2.Callback(func() { order = append(order, "b") })
	if _, err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Errorf("cross-stream order: %v", order)
	}
}

func TestWaitOnDoneEventIsNoop(t *testing.T) {
	rt := newRT()
	s := rt.NewStream()
	s.WaitEvent(DoneEvent())
	s.WaitEvent(nil)
	ran := false
	s.Callback(func() { ran = true })
	if _, err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("callback after done-event wait did not run")
	}
}

func TestMemcpyRoundTrip(t *testing.T) {
	rt := newRT()
	s := rt.NewStream()
	n := int64(1000)
	buf, err := rt.Malloc(kernelmodel.F64, n, true)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]float64, n)
	for i := range src {
		src[i] = float64(i)
	}
	dst := make([]float64, n)
	if _, err := s.MemcpyH2DAsync(buf, 0, src, nil, n); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MemcpyD2HAsync(dst, nil, buf, 0, n); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestMemcpyBounds(t *testing.T) {
	rt := newRT()
	s := rt.NewStream()
	buf, _ := rt.Malloc(kernelmodel.F64, 10, false)
	if _, err := s.MemcpyH2DAsync(buf, 5, nil, nil, 6); err == nil {
		t.Error("out-of-range h2d should error")
	}
	if _, err := s.MemcpyH2DAsync(nil, 0, nil, nil, 1); err == nil {
		t.Error("nil buffer should error")
	}
	if _, err := s.MemcpyD2HAsync(nil, nil, buf, -1, 2); err == nil {
		t.Error("negative offset should error")
	}
}

func TestMemcpyTiming(t *testing.T) {
	rt := newRT()
	tb := rt.Device().Testbed()
	s := rt.NewStream()
	buf, _ := rt.Malloc(kernelmodel.F64, 1<<20, false)
	start := rt.Now()
	if _, err := s.MemcpyH2DAsync(buf, 0, nil, nil, 1<<20); err != nil {
		t.Fatal(err)
	}
	end, err := rt.Sync()
	if err != nil {
		t.Fatal(err)
	}
	want := tb.H2D.LatencyS + float64(8<<20)/tb.H2D.BandwidthBps
	if math.Abs((end-start)-want) > 1e-9 {
		t.Errorf("h2d took %g, want %g", end-start, want)
	}
}

// TestTransferWindowSubmatrix moves a 2x3 submatrix of a 4x4 host matrix
// (ld 4) into a packed device buffer (ld 2) and back into a packed host
// buffer through 2-D transfer windows.
func TestTransferWindowSubmatrix(t *testing.T) {
	rt := newRT()
	s := rt.NewStream()
	host := make([]float64, 16)
	for i := range host {
		host[i] = float64(i)
	}
	dev, _ := rt.Malloc(kernelmodel.F64, 6, true)
	out := make([]float64, 6)
	s.TransferOp(machine.H2D, 48, &Window{Buf: dev, F64: host[1+4:], Rows: 2, Cols: 3, Ldh: 4, Ldd: 2})
	s.TransferOp(machine.D2H, 48, &Window{Buf: dev, F64: out, Rows: 2, Cols: 3, Ldh: 2, Ldd: 2})
	if _, err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 6, 9, 10, 13, 14}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("submatrix copy: got %v, want %v", out, want)
		}
	}
}

// TestKernelPayloads pins the kernel payload contract: a payload runs when
// its kernel completes, on the runtime's payload pool, before the ops
// waiting on the kernel start; and the first failing payload of a batch is
// the error Sync returns, named by its kernel and wrapping the payload's
// error. The batch still drains, so the runtime stays usable.
func TestKernelPayloads(t *testing.T) {
	rt := newRT()
	pool := parallel.NewPool(2)
	rt.SetPayloadPool(pool)
	s, waiter := rt.NewStream(), rt.NewStream()
	errFirst, errSecond := errors.New("first"), errors.New("second")
	var order []string
	var got []*parallel.Pool
	ev := s.KernelOp(NameDgemm, 1e-6, func(p *parallel.Pool) error {
		order, got = append(order, "payload"), append(got, p)
		return nil
	})
	waiter.WaitEvent(ev)
	waiter.Callback(func() { order = append(order, "waiter") })
	s.KernelOp(NameDpotrf, 1e-6, func(*parallel.Pool) error { return errFirst })
	s.KernelOp(NameDtrsm, 1e-6, func(*parallel.Pool) error { return errSecond })
	_, err := rt.Sync()
	if len(got) != 1 || got[0] != pool {
		t.Errorf("payload ran %d times on pools %v, want once on the runtime's", len(got), got)
	}
	if len(order) != 2 || order[0] != "payload" {
		t.Errorf("order %v, want the payload before its waiter", order)
	}
	if !errors.Is(err, errFirst) || errors.Is(err, errSecond) || !strings.Contains(err.Error(), "dpotrf payload") {
		t.Fatalf("Sync error %v, want the dpotrf payload's first error only", err)
	}
	s.KernelOp(NameDgemm, 1e-6, nil)
	if _, err := rt.Sync(); err != nil {
		t.Fatalf("batch after a payload failure: %v", err)
	}
}

// TestDefaultPayloadPool pins that New and Reset both install a pool as
// wide as GOMAXPROCS at the time of the call, whatever pool was set
// before.
func TestDefaultPayloadPool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	rt := newRT()
	if got := rt.payloadPool.Workers(); rt.payloadPool == nil || got != 3 {
		t.Fatalf("New: payload pool of %d workers (nil %v), want 3", got, rt.payloadPool == nil)
	}
	for _, p := range []*parallel.Pool{nil, parallel.NewPool(5)} {
		rt.SetPayloadPool(p)
		if rt.payloadPool != p {
			t.Fatalf("SetPayloadPool(%v) did not install the pool", p)
		}
		rt.Reset(rt.Device())
		if got := rt.payloadPool.Workers(); rt.payloadPool == nil || got != 3 {
			t.Fatalf("Reset after SetPayloadPool(%v): payload pool of %d workers (nil %v), want 3",
				p, got, rt.payloadPool == nil)
		}
	}
}

func TestThreeWayOverlap(t *testing.T) {
	// The core 3-way concurrency behaviour: an h2d copy, a kernel and a
	// d2h copy on three streams overlap; makespan ~ max of the three, not
	// their sum.
	rt := newRT()
	tb := rt.Device().Testbed()
	sIn, sK, sOut := rt.NewStream(), rt.NewStream(), rt.NewStream()
	elems := int64(16 << 20)
	in, _ := rt.Malloc(kernelmodel.F64, elems, false)
	out, _ := rt.Malloc(kernelmodel.F64, elems, false)
	_, _ = sIn.MemcpyH2DAsync(in, 0, nil, nil, elems)
	sK.KernelOp(NameDgemm, kernelmodel.GemmTime(&tb.GPU, kernelmodel.F64, 2048, 2048, 2048), nil)
	_, _ = sOut.MemcpyD2HAsync(nil, nil, out, 0, elems)
	end, err := rt.Sync()
	if err != nil {
		t.Fatal(err)
	}
	bytes := float64(elems * 8)
	tH2D := bytes / (tb.H2D.BandwidthBps / tb.H2D.BidSlowdown)
	tD2H := bytes / (tb.D2H.BandwidthBps / tb.D2H.BidSlowdown)
	tK := kernelmodel.GemmTime(&tb.GPU, kernelmodel.F64, 2048, 2048, 2048)
	serial := tH2D + tD2H + tK
	if end >= serial*0.95 {
		t.Errorf("no overlap: makespan %g vs serial %g", end, serial)
	}
}

func TestSyncDetectsDeadlock(t *testing.T) {
	rt := newRT()
	s := rt.NewStream()
	never := &Event{} // recorded nowhere, never fires
	s.WaitEvent(never)
	s.Callback(func() {})
	_, err := rt.Sync()
	want := "cudart: deadlock: 1 operations still blocked after drain; first: op 0 (callback) waiting on 1 dependency"
	if err == nil || err.Error() != want {
		t.Errorf("Sync error %v, want %q", err, want)
	}

	// The report names the lowest blocked op by its index in the batch,
	// even when ops ahead of it ran and ops behind it are blocked too.
	rt = newRT()
	s = rt.NewStream()
	s.KernelOp(NameDgemm, 1e-6, nil)
	s.WaitEvent(&Event{})
	s.WaitEvent(&Event{})
	s.KernelOp(NameDpotrf, 1e-6, nil)
	s.Callback(func() {})
	_, err = rt.Sync()
	want = "cudart: deadlock: 2 operations still blocked after drain; first: op 1 (kernel dpotrf) waiting on 2 dependencies"
	if err == nil || err.Error() != want {
		t.Errorf("Sync error %v, want %q", err, want)
	}
}

// TestFanOutReleasesInRegistrationOrder pins the waiter order of one event
// with several waiters: the inline first waiter is released before the
// overflow, and the overflow in registration order, on a fresh and on a
// reused arena alike.
func TestFanOutReleasesInRegistrationOrder(t *testing.T) {
	rt := newRT()
	for batch := 0; batch < 2; batch++ {
		src := rt.NewStream()
		src.KernelOp(NameDgemm, 1e-6, nil)
		ev := src.Record()
		var order []int
		for i := 0; i < 4; i++ {
			s := rt.NewStream()
			s.WaitEvent(ev)
			s.Callback(func() { order = append(order, i) })
		}
		if _, err := rt.Sync(); err != nil {
			t.Fatal(err)
		}
		if len(order) != 4 || order[0] != 0 || order[1] != 1 || order[2] != 2 || order[3] != 3 {
			t.Errorf("batch %d: waiters released in order %v, want [0 1 2 3]", batch, order)
		}
	}
}

func TestMallocFree(t *testing.T) {
	rt := newRT()
	b, err := rt.Malloc(kernelmodel.F32, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	if b.Dtype() != kernelmodel.F32 || b.Elems() != 100 || !b.Backed() {
		t.Error("buffer metadata wrong")
	}
	if b.F32() == nil || b.F64() != nil {
		t.Error("backing storage wrong")
	}
	if rt.Device().MemUsed() != 400 {
		t.Errorf("mem used %d, want 400", rt.Device().MemUsed())
	}
	if err := rt.Free(b); err != nil {
		t.Fatal(err)
	}
	if rt.Device().MemUsed() != 0 {
		t.Error("free did not release")
	}
	if err := rt.Free(nil); err == nil {
		t.Error("nil free should error")
	}
	if _, err := rt.Malloc(kernelmodel.F64, -1, false); err == nil {
		t.Error("negative malloc should error")
	}
}

// TestLaunchSyncSteadyStateDoesNotAllocate pins the zero-allocation
// invariant of the timing-only launch path: once the op arena and the
// kernel-task and transfer free lists are warm, a full enqueue+Sync cycle
// over all three engines allocates nothing (the cudart analog of the sim package's
// TestScheduleSteadyStateDoesNotAllocateEvents).
func TestLaunchSyncSteadyStateDoesNotAllocate(t *testing.T) {
	rt := newRT()
	s := rt.NewStream()
	buf, err := rt.Malloc(kernelmodel.F64, 4096, false)
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		if _, err := s.MemcpyH2DAsync(buf, 0, nil, nil, 1024); err != nil {
			t.Fatal(err)
		}
		s.KernelOp(NameDgemm, 1e-6, nil)
		if _, err := s.MemcpyD2HAsync(nil, nil, buf, 0, 1024); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(500, cycle)
	if allocs != 0 {
		t.Errorf("steady-state launch+sync allocates %.1f objects/op, want 0", allocs)
	}

	// A batch deeper than one arena chunk, fanned across streams, allocates
	// nothing either once its chunks exist.
	streams := []*Stream{s, rt.NewStream(), rt.NewStream()}
	big := func() {
		for i := 0; i < 2*opChunk+opChunk/2; i++ {
			st := streams[i%len(streams)]
			if i%7 == 0 {
				st.WaitEvent(streams[(i+1)%len(streams)].Record())
			}
			switch i % 3 {
			case 0:
				st.TransferOp(machine.H2D, 4096, nil)
			case 1:
				st.KernelOp(NameDgemm, 1e-6, nil)
			default:
				st.TransferOp(machine.D2H, 4096, nil)
			}
		}
		if _, err := rt.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	big()
	if len(rt.chunks) < 3 {
		t.Fatalf("batch used %d arena chunks, want at least 3", len(rt.chunks))
	}
	if allocs := testing.AllocsPerRun(20, big); allocs != 0 {
		t.Errorf("steady-state multi-chunk launch+sync allocates %.1f objects/op, want 0", allocs)
	}

	// One event released to many waiters threads an overflow list through
	// the runtime's waiter nodes, whose chunks the next replay reuses.
	fan := []*Stream{rt.NewStream(), rt.NewStream(), rt.NewStream(), rt.NewStream()}
	fanOut := func() {
		ev := s.KernelOp(NameDgemm, 1e-6, nil)
		for _, st := range fan {
			st.WaitEvent(ev)
			st.TransferOp(machine.D2H, 4096, nil)
		}
		if _, err := rt.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	fanOut()
	if rt.nwaiters != 0 || len(rt.waiters) == 0 {
		t.Fatalf("after a fan-out and Sync: %d waiter nodes live in %d chunks; want 0 in at least 1",
			rt.nwaiters, len(rt.waiters))
	}
	if allocs := testing.AllocsPerRun(100, fanOut); allocs != 0 {
		t.Errorf("steady-state fan-out launch+sync allocates %.1f objects/op, want 0", allocs)
	}

	// The handle-typed device and link entry points themselves: a kernel
	// and a transfer in each direction, completing into a pointer receiver.
	dev := rt.Device()
	var c counter
	hw := func() {
		dev.LaunchKernel("k", 1e-6, sim.Handle{To: &c, Slot: 1})
		dev.Link().Submit(machine.H2D, 4096, sim.Handle{To: &c, Slot: 2})
		dev.Link().Submit(machine.D2H, 4096, sim.Handle{To: &c, Slot: 3})
		dev.Engine().Run()
	}
	hw()
	if c.n != 3 || c.sum != 6 {
		t.Fatalf("handles notified %d times with slot sum %d, want 3 and 6", c.n, c.sum)
	}
	if allocs := testing.AllocsPerRun(500, hw); allocs != 0 {
		t.Errorf("steady-state device/link handle completions allocate %.1f objects/op, want 0", allocs)
	}
}

// counter is a completion receiver that counts notifications.
type counter struct {
	n, sum int
}

func (c *counter) Complete(slot int32) { c.n, c.sum = c.n+1, c.sum+int(slot) }

// TestOpLayout pins the arena slot size: an op stays within 64 bytes, so
// two live arenas of a deep batch cost less than one did with the
// 120-byte op and its two per-slot callbacks.
func TestOpLayout(t *testing.T) {
	if n := unsafe.Sizeof(op{}); n > 64 {
		t.Errorf("op is %d bytes, want at most 64", n)
	}
}
