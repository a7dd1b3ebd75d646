package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"cocopelia/internal/cudart"
	"cocopelia/internal/device"
	"cocopelia/internal/kernelmodel"
	"cocopelia/internal/machine"
	"cocopelia/internal/operand"
	"cocopelia/internal/sched"
	"cocopelia/internal/sim"
)

func tracedGemm(t *testing.T, m, T int) *Trace {
	t.Helper()
	eng := sim.New()
	dev := device.New(eng, machine.TestbedII(), 1, true)
	tr := Attach(dev)
	ctx := sched.NewContext(cudart.New(dev), false)
	_, err := ctx.Run(sched.GemmOpts{
		Dtype: kernelmodel.F64, M: m, N: m, K: m, Alpha: 1, Beta: 1,
		A: operand.HostMatrix(m, m, nil),
		B: operand.HostMatrix(m, m, nil),
		C: operand.HostMatrix(m, m, nil),
		T: T,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestAttachCapturesAllLanes(t *testing.T) {
	tr := tracedGemm(t, 2048, 512)
	seen := map[Lane]bool{}
	for _, iv := range tr.Intervals {
		seen[iv.Lane] = true
		if iv.End < iv.Start {
			t.Error("reversed interval")
		}
	}
	for lane := Lane(0); lane < numLanes; lane++ {
		if !seen[lane] {
			t.Errorf("lane %s has no intervals", lane)
		}
	}
}

func TestSpanAndBusy(t *testing.T) {
	tr := tracedGemm(t, 2048, 512)
	start, end := tr.Span()
	if start < 0 || end <= start {
		t.Errorf("span [%g, %g] implausible", start, end)
	}
	for lane := Lane(0); lane < numLanes; lane++ {
		busy := tr.BusySeconds(lane)
		if busy <= 0 || busy > end-start+1e-9 {
			t.Errorf("lane %s busy %g outside (0, span]", lane, busy)
		}
	}
}

func TestUtilizationBounds(t *testing.T) {
	tr := tracedGemm(t, 2048, 512)
	for lane, u := range tr.Utilization() {
		if u <= 0 || u > 1+1e-9 {
			t.Errorf("lane %s utilization %g outside (0, 1]", lane, u)
		}
	}
	empty := &Trace{}
	if len(empty.Utilization()) != 0 {
		t.Error("empty trace should have no utilization entries")
	}
}

func TestOverlapFractionPositive(t *testing.T) {
	tr := tracedGemm(t, 4096, 1024)
	f := tr.OverlapFraction()
	if f <= 0.1 || f > 1 {
		t.Errorf("overlap fraction %g implausible for a pipelined gemm", f)
	}
	if (&Trace{}).OverlapFraction() != 0 {
		t.Error("empty trace overlap should be 0")
	}
}

func TestOverlapFractionManual(t *testing.T) {
	tr := &Trace{Intervals: []Interval{
		{Lane: LaneH2D, Start: 0, End: 2},
		{Lane: LaneCompute, Start: 1, End: 3},
	}}
	// Overlap [1,2) of span [0,3): 1/3.
	if f := tr.OverlapFraction(); math.Abs(f-1.0/3.0) > 1e-12 {
		t.Errorf("overlap = %g, want 1/3", f)
	}
}

func TestGanttRendering(t *testing.T) {
	tr := tracedGemm(t, 2048, 512)
	g := tr.Gantt(80)
	for _, want := range []string{"h2d", "exec", "d2h", "timeline"} {
		if !strings.Contains(g, want) {
			t.Errorf("gantt missing %q:\n%s", want, g)
		}
	}
	if !strings.Contains(g, "#") || !strings.Contains(g, "v") {
		t.Errorf("gantt missing activity marks:\n%s", g)
	}
	if (&Trace{}).Gantt(40) != "(empty trace)\n" {
		t.Error("empty gantt rendering wrong")
	}
}

func TestPhasesTransferThenCompute(t *testing.T) {
	// A reuse-aware gemm on a transfer-heavy configuration starts
	// h2d-dominant and ends compute-dominant (the Fig. 2 narrative).
	tr := tracedGemm(t, 8192, 1024)
	phases := tr.Phases(10)
	if len(phases) != 10 {
		t.Fatalf("got %d phases", len(phases))
	}
	if phases[0].Dominant != LaneH2D {
		t.Errorf("first phase dominated by %s, want h2d", phases[0].Dominant)
	}
	last := phases[len(phases)-2] // final window may be the d2h drain
	if last.Dominant != LaneCompute {
		t.Errorf("late phase dominated by %s, want exec", last.Dominant)
	}
	if (&Trace{}).Phases(5) != nil {
		t.Error("empty trace should have no phases")
	}
}

func TestReset(t *testing.T) {
	tr := tracedGemm(t, 1024, 512)
	if len(tr.Intervals) == 0 {
		t.Fatal("expected intervals")
	}
	tr.Reset()
	if len(tr.Intervals) != 0 {
		t.Error("reset did not clear intervals")
	}
}

func TestLaneString(t *testing.T) {
	if LaneH2D.String() != "h2d" || LaneCompute.String() != "exec" || LaneD2H.String() != "d2h" {
		t.Error("lane names wrong")
	}
	if Lane(9).String() == "" {
		t.Error("unknown lane should render")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := tracedGemm(t, 2048, 512)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	// 3 metadata records + one complete event per interval.
	if len(events) != len(tr.Intervals)+3 {
		t.Errorf("got %d events, want %d", len(events), len(tr.Intervals)+3)
	}
	seenMeta, seenX := 0, 0
	for _, ev := range events {
		switch ev["ph"] {
		case "M":
			seenMeta++
		case "X":
			seenX++
			if ev["dur"].(float64) < 0 {
				t.Error("negative duration")
			}
		default:
			t.Errorf("unexpected phase %v", ev["ph"])
		}
	}
	if seenMeta != 3 || seenX != len(tr.Intervals) {
		t.Errorf("meta=%d X=%d", seenMeta, seenX)
	}
}
