package plan

import (
	"strings"
	"testing"
)

// TestHazardOrder checks every golden plan's hazard graph against its
// timing DAG: each hazard edge must follow from the plan's dependencies
// and same-stream order, so that running the ops as the graph allows
// computes what the simulation's completion order did. The request
// fuzzer checks the same for every key it plans (sched.FuzzPlan).
func TestHazardOrder(t *testing.T) {
	for _, tc := range goldenCases() {
		p := mustBuild(tc.key, tc.free)
		if err := p.CheckHazards(); err != nil {
			t.Errorf("%s: %v\n%s", tc.name, err, p.Dump())
		}
	}
}

// TestCheckHazardsCatchesMissingOrder drops the dependencies of the golden
// gemm plan's first write-back, which then no longer waits for the kernel
// that wrote its staging slot: CheckHazards must name that edge.
func TestCheckHazardsCatchesMissingOrder(t *testing.T) {
	for _, tc := range goldenCases() {
		if tc.name != "gemm-hhh" {
			continue
		}
		p := mustBuild(tc.key, tc.free)
		for i := range p.Ops {
			if o := &p.Ops[i]; o.Kind == OpWriteback && o.depN > 0 {
				o.depN = 0
				err := p.CheckHazards()
				if err == nil || !strings.Contains(err.Error(), "not implied") {
					t.Fatalf("write-back o%d without its dependencies: CheckHazards = %v", i, err)
				}
				return
			}
		}
		t.Fatal("golden gemm plan has no write-back with dependencies")
	}
}

// TestHazardsCoverConflicts checks the pruned hazard graph of every golden
// plan against a brute-force one: every pair of ops that access a common
// element, one of them writing it, must be ordered by a path of hazard
// edges.
func TestHazardsCoverConflicts(t *testing.T) {
	for _, tc := range goldenCases() {
		p := mustBuild(tc.key, tc.free)
		g := p.Hazards()
		n := len(p.Ops)
		// reach[i][j]: a path of hazard edges leads from i to j.
		reach := make([][]bool, n)
		for i := n - 1; i >= 0; i-- {
			reach[i] = make([]bool, n)
			for _, j := range g.Succs(i) {
				if int(j) <= i {
					t.Fatalf("%s: hazard edge o%d -> o%d runs backwards", tc.name, i, j)
				}
				reach[i][j] = true
				for k := range reach[j] {
					reach[i][k] = reach[i][k] || reach[j][k]
				}
			}
		}
		for j := 0; j < n; j++ {
			for i := 0; i < j; i++ {
				for _, a := range p.accesses(nil, int32(i)) {
					for _, b := range p.accesses(nil, int32(j)) {
						if a.space == b.space && (a.write || b.write) && a.overlaps(&b) && !reach[i][j] {
							t.Fatalf("%s: o%d and o%d conflict but no hazard path orders them\n%s", tc.name, i, j, p.Dump())
						}
					}
				}
			}
		}
	}
}
