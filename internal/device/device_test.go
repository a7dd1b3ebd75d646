package device

import (
	"errors"
	"math"
	"testing"

	"cocopelia/internal/machine"
	"cocopelia/internal/sim"
)

// fnDone adapts a test closure to a completion receiver.
type fnDone func()

func (f fnDone) Complete(int32) { f() }

// on wraps fn as a completion handle.
func on(fn func()) sim.Handle { return sim.Handle{To: fnDone(fn)} }

func newDev(noiseless bool) (*sim.Engine, *Device) {
	eng := sim.New()
	return eng, New(eng, machine.TestbedI(), 1, noiseless)
}

func TestKernelSerialization(t *testing.T) {
	eng, d := newDev(true)
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		d.LaunchKernel("k", 1.0, on(func() { ends = append(ends, eng.Now()) }))
	}
	eng.Run()
	want := []sim.Time{1, 2, 3}
	for i := range want {
		if math.Abs(ends[i]-want[i]) > 1e-12 {
			t.Errorf("kernel %d ended at %v, want %v", i, ends[i], want[i])
		}
	}
	st := d.ComputeStats()
	if st.Kernels != 3 || math.Abs(st.BusySeconds-3) > 1e-12 {
		t.Errorf("compute stats %+v", st)
	}
}

func TestKernelObserver(t *testing.T) {
	eng, d := newDev(true)
	var names []string
	d.SetKernelObserver(func(name string, start, end sim.Time) {
		names = append(names, name)
		if end <= start {
			t.Error("empty kernel interval")
		}
	})
	d.LaunchKernel("dgemm", 0.1, sim.Handle{})
	d.LaunchKernel("sgemm", 0.1, sim.Handle{})
	eng.Run()
	if len(names) != 2 || names[0] != "dgemm" || names[1] != "sgemm" {
		t.Errorf("observed %v", names)
	}
}

func TestNegativeDurationPanics(t *testing.T) {
	_, d := newDev(true)
	defer func() {
		if recover() == nil {
			t.Error("negative duration should panic")
		}
	}()
	d.LaunchKernel("k", -1, sim.Handle{})
}

func TestCompletionCallbackCanEnqueue(t *testing.T) {
	eng, d := newDev(true)
	var secondEnd sim.Time
	d.LaunchKernel("a", 1, on(func() {
		d.LaunchKernel("b", 1, on(func() { secondEnd = eng.Now() }))
	}))
	eng.Run()
	if math.Abs(secondEnd-2) > 1e-12 {
		t.Errorf("chained kernel ended at %v, want 2", secondEnd)
	}
}

func TestNoiseDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) sim.Time {
		eng := sim.New()
		d := New(eng, machine.TestbedII(), seed, false)
		var end sim.Time
		d.LaunchKernel("k", 1.0, on(func() { end = eng.Now() }))
		eng.Run()
		return end
	}
	if run(7) != run(7) {
		t.Error("same seed should reproduce exactly")
	}
	if run(7) == run(8) {
		t.Error("different seeds should differ")
	}
	if v := run(7); v < 0.8 || v > 1.2 {
		t.Errorf("noisy duration %v too far from nominal 1.0", v)
	}
}

func TestMalloc(t *testing.T) {
	_, d := newDev(true)
	total := d.Testbed().GPU.MemBytes
	b1, err := d.Malloc(total / 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.MemUsed() != total/2 || b1.Size() != total/2 {
		t.Error("accounting wrong after alloc")
	}
	if _, err := d.Malloc(total); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("over-allocation should be ErrOutOfMemory, got %v", err)
	}
	if _, err := d.Malloc(-5); err == nil {
		t.Error("negative allocation should error")
	}
	if err := d.Free(b1); err != nil {
		t.Fatal(err)
	}
	if d.MemUsed() != 0 {
		t.Error("free did not release memory")
	}
	if err := d.Free(b1); err == nil {
		t.Error("double free should error")
	}
	if err := d.Free(nil); err == nil {
		t.Error("nil free should error")
	}
	if d.MemPeak() != total/2 {
		t.Errorf("peak = %d, want %d", d.MemPeak(), total/2)
	}
}

func TestTransferAndComputeOverlap(t *testing.T) {
	// A 1-second kernel launched together with a h2d transfer: both make
	// progress concurrently, ending near max(t_kernel, t_transfer).
	eng, d := newDev(true)
	tb := d.Testbed()
	bytes := int64(tb.H2D.BandwidthBps) // ~1 second of transfer
	var kernelEnd, xferEnd sim.Time
	d.LaunchKernel("k", 1.0, on(func() { kernelEnd = eng.Now() }))
	d.Link().Submit(machine.H2D, bytes, on(func() { xferEnd = eng.Now() }))
	end := eng.Run()
	if kernelEnd == 0 || xferEnd == 0 {
		t.Fatal("callbacks missing")
	}
	if end > 1.1 {
		t.Errorf("overlapped execution took %v, want ~1.0 (no serialization)", end)
	}
}
