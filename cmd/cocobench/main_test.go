package main

import (
	"bytes"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// factorLike returns a small report with exact, timing and label fields.
func factorLike() *report {
	return &report{Mode: "factor", Testbed: "Testbed I", MaxProcs: 2, Reps: 3, Rows: []row{
		{
			Key:    "dpotrf/4096/T=512",
			Exact:  map[string]float64{"sim_seconds": 0.04726810214742642, "subkernels": 120},
			Timing: map[string]float64{"wall": 0.2},
			Labels: map[string]string{"note": "x"},
		},
		{Key: "sweep", Exact: map[string]float64{"events": 30966}},
	}}
}

// scaled returns one copy of factorLike per factor, with every timing
// field multiplied by that factor.
func scaled(factors ...float64) []*report {
	var out []*report
	for _, f := range factors {
		r := factorLike()
		for _, x := range r.Rows {
			for k := range x.Timing {
				x.Timing[k] *= f
			}
		}
		out = append(out, r)
	}
	return out
}

// edited returns factorLike changed by edit.
func edited(edit func(r *report)) []*report {
	r := factorLike()
	edit(r)
	return []*report{r}
}

func TestCompare(t *testing.T) {
	one := []*report{factorLike()}
	cases := []struct {
		name   string
		head   []*report
		base   []*report
		paired bool
		want   []string // substrings of the error; none means compare passes
		logs   []string // substrings of the log
	}{
		{name: "identical", head: one, base: one},
		{name: "exact float one ulp", base: one, head: edited(func(r *report) {
			e := r.Rows[0].Exact
			e["sim_seconds"] = math.Nextafter(e["sim_seconds"], 1)
		}), want: []string{"row dpotrf/4096/T=512 field sim_seconds", "0.047268102147426425, base 0.04726810214742642"}},
		{name: "counter plus one", base: one, head: edited(func(r *report) {
			r.Rows[1].Exact["events"]++
		}), want: []string{"row sweep field events: 30967, base 30966"}},
		{name: "exact field dropped", base: one, head: edited(func(r *report) {
			delete(r.Rows[0].Exact, "subkernels")
		}), want: []string{"row dpotrf/4096/T=512 field subkernels: missing, base 120"}},
		{name: "missing row", base: one, head: edited(func(r *report) {
			r.Rows = r.Rows[:1]
		}), want: []string{"row sweep: missing from this run"}},
		{name: "extra row", base: one, head: edited(func(r *report) {
			r.Rows = append(r.Rows, row{Key: "select/dpotrf/4096", Exact: map[string]float64{"selected_tile": 1024}})
		}), want: []string{"row select/dpotrf/4096: not in the base report"}},
		{name: "duplicate row", base: edited(func(r *report) {
			r.Rows = append(r.Rows, r.Rows[1])
		}), head: one, want: []string{"two rows sweep"}},
		{name: "mode differs", base: one, head: edited(func(r *report) {
			r.Mode = "campaign"
		}), want: []string{"modes differ"}},
		{name: "timing and labels only", base: one, head: edited(func(r *report) {
			r.Rows[0].Timing["wall"] *= 10
			r.Rows[0].Labels["note"] = "y"
			r.MaxProcs = 64
		})},
		{name: "paired equal", paired: true, base: scaled(1, 1, 1, 1, 1), head: scaled(1, 1, 1, 1, 1)},
		{name: "paired 0.80x", paired: true, base: scaled(1, 1, 1, 1, 1),
			head: scaled(1/0.8, 1/0.8, 1/0.8, 1/0.8, 1/0.8),
			want: []string{"row dpotrf/4096/T=512 field wall: head median 0.25s > limit"}},
		{name: "paired one outlier each side", paired: true,
			base: scaled(1, 0.5, 1, 1, 1), head: scaled(1, 1, 3, 1, 1)},
		{name: "paired ignores exact fields", paired: true, base: scaled(1), head: edited(func(r *report) {
			r.Rows[1].Exact["events"]++
			r.Rows = append(r.Rows, row{Key: "new", Timing: map[string]float64{"wall": 9}})
		}), logs: []string{"gate new: only in head, not gated"}},
		{name: "paired base-only row passes", paired: true, base: scaled(1, 1, 1), head: edited(func(r *report) {
			r.Rows = r.Rows[1:]
		}), logs: []string{"gate dpotrf/4096/T=512: only in base, not gated"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var logged bytes.Buffer
			log.SetOutput(&logged)
			defer log.SetOutput(os.Stderr)
			err := compare(tc.base, tc.head, tc.paired)
			for _, w := range tc.logs {
				if !strings.Contains(logged.String(), w) {
					t.Errorf("log %q does not contain %q", logged.String(), w)
				}
			}
			if len(tc.want) == 0 {
				if err != nil {
					t.Fatalf("compare failed: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("compare passed, want an error naming %q", tc.want)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not contain %q", err, w)
				}
			}
		})
	}
}

// TestCommittedReportsCheckAgainstThemselves reads every committed bench
// report in the current schema and checks it against itself.
func TestCommittedReportsCheckAgainstThemselves(t *testing.T) {
	for _, mode := range []string{"blas", "campaign", "factor", "backed"} {
		path := filepath.Join("..", "..", "results", "bench-"+mode+".json")
		r, err := readReport(path)
		if err != nil {
			t.Fatal(err)
		}
		if r.Mode != mode || len(r.Rows) == 0 {
			t.Fatalf("%s: mode %q with %d rows", path, r.Mode, len(r.Rows))
		}
		if err := compare([]*report{r}, []*report{r}, false); err != nil {
			t.Errorf("%s against itself: %v", path, err)
		}
	}
}

// TestReadReportRefusesOldSchema pins that a report in a pre-schema layout
// (here the old campaign file's top level) stops with an error naming the
// schema rather than being read as empty.
func TestReadReportRefusesOldSchema(t *testing.T) {
	for name, body := range map[string]string{
		"campaign": `{"testbed": "Testbed I", "gogc": 800, "reps": 3, "reference": {"events": 4393143}}`,
		"blas":     `{"arch": "amd64", "maxprocs": 2, "entries": []}`,
		"no mode":  `{"rows": []}`,
	} {
		path := filepath.Join(t.TempDir(), "old.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := readReport(path)
		if err == nil || !strings.Contains(err.Error(), "schema") {
			t.Errorf("%s: readReport error %v, want one naming the schema", name, err)
		}
	}
}
