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

// TestMemcpyBounds checks the 1-D copies' validation: the device range,
// and a given host slice's dtype and length (nil/nil is a timing-only
// copy); a rejected copy names its direction and sizes.
func TestMemcpyBounds(t *testing.T) {
	rt := newRT()
	s := rt.NewStream()
	unbacked, _ := rt.Malloc(kernelmodel.F64, 10, false)
	f64, _ := rt.Malloc(kernelmodel.F64, 8, true)
	f32, _ := rt.Malloc(kernelmodel.F32, 4, true)
	h2d := func(b *DevBuffer, off, n int64, h64 []float64, h32 []float32) error {
		_, err := s.MemcpyH2DAsync(b, off, h64, h32, n)
		return err
	}
	d2h := func(b *DevBuffer, off, n int64, h64 []float64, h32 []float32) error {
		_, err := s.MemcpyD2HAsync(h64, h32, b, off, n)
		return err
	}
	cases := []struct {
		name string
		err  error
		want string // a substring of the error; "" accepts the copy
	}{
		{"h2d past the end", h2d(unbacked, 5, 6, nil, nil), "h2d: range [5, 11)"},
		{"nil buffer", h2d(nil, 0, 1, nil, nil), "h2d: nil device buffer"},
		{"negative offset", d2h(unbacked, -1, 2, nil, nil), "d2h: range [-1, 1)"},
		{"timing-only h2d", h2d(f64, 0, 8, nil, nil), ""},
		{"timing-only d2h", d2h(f32, 0, 4, nil, nil), ""},
		{"h2d f64", h2d(f64, 2, 4, make([]float64, 4), nil), ""},
		{"d2h f32", d2h(f32, 0, 4, nil, make([]float32, 5)), ""},
		{"h2d float64 into f32", h2d(f32, 0, 4, []float64{1, 2, 3, 4}, nil), "h2d of 4 f32 elements with host []float64 of 4"},
		{"d2h f32 into float64", d2h(f32, 0, 4, make([]float64, 4), nil), "d2h of 4 f32 elements with host []float64 of 4"},
		{"h2d float32 into f64", h2d(f64, 0, 2, nil, make([]float32, 2)), "h2d of 2 f64 elements with host []float32 of 2"},
		{"h2d short slice", h2d(f64, 0, 8, make([]float64, 4), nil), "h2d of 8 f64 elements with host []float64 of 4"},
		{"d2h short slice", d2h(f32, 1, 3, nil, make([]float32, 2)), "d2h of 3 f32 elements with host []float32 of 2"},
		{"both host slices", h2d(f64, 0, 1, make([]float64, 1), make([]float32, 1)), "h2d of 1 f64 elements with host []float64 of 1 and []float32 of 1"},
		{"unbacked short slice", h2d(unbacked, 0, 10, make([]float64, 9), nil), "h2d of 10 f64 elements with host []float64 of 9"},
	}
	for _, tc := range cases {
		switch {
		case tc.want == "" && tc.err != nil:
			t.Errorf("%s: %v", tc.name, tc.err)
		case tc.want != "" && (tc.err == nil || !strings.Contains(tc.err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, tc.err, tc.want)
		case errors.Is(tc.err, ErrHostSlice) != strings.Contains(tc.want, "with host"):
			t.Errorf("%s: error %v: ErrHostSlice must mark exactly the host-slice rejections", tc.name, tc.err)
		}
	}
	if _, err := rt.Sync(); err != nil {
		t.Fatal(err)
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
// buffer through 2-D transfer windows, moved by a job at Sync.
func TestTransferWindowSubmatrix(t *testing.T) {
	rt := newRT()
	s := rt.NewStream()
	host := make([]float64, 16)
	for i := range host {
		host[i] = float64(i)
	}
	dev, _ := rt.Malloc(kernelmodel.F64, 6, true)
	out := make([]float64, 6)
	up := Window{Buf: dev, F64: host[1+4:], Rows: 2, Cols: 3, Ldh: 4, Ldd: 2}
	down := Window{Buf: dev, F64: out, Rows: 2, Cols: 3, Ldh: 2, Ldd: 2}
	s.TransferOp(machine.H2D, 48)
	s.TransferOp(machine.D2H, 48)
	rt.AddJob(func(*parallel.Pool) error {
		up.Move(machine.H2D)
		down.Move(machine.D2H)
		return nil
	})
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

// TestSyncRunsJobs pins the job contract: Sync runs a batch's jobs after
// the engine has drained (after every callback of the batch), in
// registration order, on the runtime's payload pool. The first failing
// job's error is the one Sync returns, unwrapped, and the jobs after it are
// dropped; the ops are reused as on success, so the runtime stays usable.
// A deadlocked Sync drops its jobs unrun.
func TestSyncRunsJobs(t *testing.T) {
	rt := newRT()
	pool := parallel.NewPool(2)
	rt.SetPayloadPool(pool)
	s := rt.NewStream()
	errFirst := errors.New("first")
	var order []string
	var got []*parallel.Pool
	rt.AddJob(func(p *parallel.Pool) error {
		order, got = append(order, "job 0"), append(got, p)
		return nil
	})
	s.KernelOp(NameDgemm, 1e-6)
	s.Callback(func() { order = append(order, "callback") })
	rt.AddJob(func(*parallel.Pool) error {
		order = append(order, "job 1")
		return errFirst
	})
	rt.AddJob(func(*parallel.Pool) error {
		order = append(order, "job 2")
		return nil
	})
	_, err := rt.Sync()
	if len(got) != 1 || got[0] != pool {
		t.Errorf("job ran %d times on pools %v, want once on the runtime's", len(got), got)
	}
	if strings.Join(order, ",") != "callback,job 0,job 1" {
		t.Errorf("order %v, want the callback, then jobs 0 and 1, and job 2 dropped", order)
	}
	if err != errFirst {
		t.Fatalf("Sync error %v, want the failing job's own", err)
	}
	s.KernelOp(NameDgemm, 1e-6)
	if _, err := rt.Sync(); err != nil {
		t.Fatalf("batch after a job failure: %v", err)
	}

	ran := false
	s.WaitEvent(&Event{}) // never fires
	s.KernelOp(NameDgemm, 1e-6)
	rt.AddJob(func(*parallel.Pool) error { ran = true; return nil })
	if _, err := rt.Sync(); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("deadlocked Sync: error %v", err)
	}
	rt.Reset(rt.Device())
	if _, err := rt.Sync(); err != nil || ran {
		t.Fatalf("after a deadlock and Reset: Sync error %v, dropped job ran %v", err, ran)
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
	sK.KernelOp(NameDgemm, kernelmodel.GemmTime(&tb.GPU, kernelmodel.F64, 2048, 2048, 2048))
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
	s.KernelOp(NameDgemm, 1e-6)
	s.WaitEvent(&Event{})
	s.WaitEvent(&Event{})
	s.KernelOp(NameDpotrf, 1e-6)
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
		src.KernelOp(NameDgemm, 1e-6)
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
		s.KernelOp(NameDgemm, 1e-6)
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
				st.TransferOp(machine.H2D, 4096)
			case 1:
				st.KernelOp(NameDgemm, 1e-6)
			default:
				st.TransferOp(machine.D2H, 4096)
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
		ev := s.KernelOp(NameDgemm, 1e-6)
		for _, st := range fan {
			st.WaitEvent(ev)
			st.TransferOp(machine.D2H, 4096)
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
