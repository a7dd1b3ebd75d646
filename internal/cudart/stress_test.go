package cudart

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/parallel"
	"cocopelia/internal/sim"
)

// TestRandomDAGOrderingStress builds random operation DAGs across several
// streams with random cross-stream event dependencies, and verifies that
// execution respects both in-stream ordering and every event edge.
func TestRandomDAGOrderingStress(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.New()
		rt := New(device.New(eng, machine.TestbedI(), seed, false))
		return runDAG(t, rng, rt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRandomDAGArenaReuse replays random DAGs on one reused runtime. Every
// fifth DAG follows a deliberately deadlocked batch, deeper than one arena
// chunk, that is abandoned with Reset; the ordering invariants must still
// hold, and neither an abandoned op's callback nor the batch's job may run
// from a reused slot or a later Sync.
func TestRandomDAGArenaReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rt := New(device.New(sim.New(), machine.TestbedI(), 1, false))
	stale := false
	for i := 0; i < 30; i++ {
		if i%5 == 4 {
			s := rt.NewStream()
			s.WaitEvent(&Event{}) // never fires
			for j := 0; j < opChunk+opChunk/2; j++ {
				s.Callback(func() { stale = true })
			}
			rt.AddJob(func(*parallel.Pool) error { stale = true; return nil })
			if _, err := rt.Sync(); err == nil {
				t.Fatal("deadlocked batch: Sync reported no error")
			}
			rt.Reset(device.New(sim.New(), machine.TestbedI(), int64(i), false))
			// Kernels reuse every abandoned slot.
			s = rt.NewStream()
			for j := 0; j < opChunk+opChunk/2; j++ {
				s.KernelOp(NameDgemm, 1e-6)
			}
			if _, err := rt.Sync(); err != nil {
				t.Fatal(err)
			}
			if stale {
				t.Fatal("an abandoned op's callback or job ran after its batch was dropped")
			}
		}
		if !runDAG(t, rng, rt) {
			return
		}
	}
}

// runDAG executes one randomized DAG and checks its ordering invariants.
func runDAG(t *testing.T, rng *rand.Rand, rt *Runtime) bool {
	t.Helper()
	const nStreams = 4
	nOps := 40 + rng.Intn(60)

	streams := make([]*Stream, nStreams)
	for i := range streams {
		streams[i] = rt.NewStream()
	}

	type opInfo struct {
		stream    int
		dependsOn []int // op indices whose completion must precede this op
	}
	infos := make([]opInfo, nOps)
	events := make([]*Event, nOps)
	executed := make([]int, 0, nOps)
	orderOf := make([]int, nOps) // op index -> position in executed order

	lastOnStream := make([]int, nStreams)
	for i := range lastOnStream {
		lastOnStream[i] = -1
	}

	buf, err := rt.Malloc(kernelmodel.F64, 1024, false)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < nOps; i++ {
		s := rng.Intn(nStreams)
		info := opInfo{stream: s}
		if prev := lastOnStream[s]; prev >= 0 {
			info.dependsOn = append(info.dependsOn, prev)
		}
		// Random cross-stream dependency on an earlier op's event.
		if i > 0 && rng.Intn(2) == 0 {
			dep := rng.Intn(i)
			streams[s].WaitEvent(events[dep])
			info.dependsOn = append(info.dependsOn, dep)
		}
		i := i
		// Mix op types: host callback, h2d, d2h, kernel.
		switch rng.Intn(4) {
		case 0:
			streams[s].Callback(func() { executed = append(executed, i) })
			events[i] = streams[s].Record()
		case 1:
			ev, err := streams[s].MemcpyH2DAsync(buf, 0, nil, nil, int64(1+rng.Intn(1024)))
			if err != nil {
				t.Fatal(err)
			}
			streams[s].Callback(func() { executed = append(executed, i) })
			_ = ev
			events[i] = streams[s].Record()
		case 2:
			if _, err := streams[s].MemcpyD2HAsync(nil, nil, buf, 0, int64(1+rng.Intn(1024))); err != nil {
				t.Fatal(err)
			}
			streams[s].Callback(func() { executed = append(executed, i) })
			events[i] = streams[s].Record()
		default:
			streams[s].KernelOp(NameDgemm, float64(rng.Intn(100))*1e-6)
			streams[s].Callback(func() { executed = append(executed, i) })
			events[i] = streams[s].Record()
		}
		infos[i] = info
		lastOnStream[s] = i
	}

	if _, err := rt.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if len(executed) != nOps {
		t.Fatalf("executed %d of %d ops", len(executed), nOps)
	}
	for pos, op := range executed {
		orderOf[op] = pos
	}
	for i, info := range infos {
		for _, dep := range info.dependsOn {
			if orderOf[dep] >= orderOf[i] {
				t.Fatalf("op %d executed before its dependency %d", i, dep)
				return false
			}
		}
	}
	return true
}
