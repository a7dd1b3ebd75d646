package cocopelia

import (
	"math"
	"testing"
)

// TestSelectFactorTilePinned pins the factorization tile choices and their
// predicted bounds on Testbed II with host operands, cold and warm.
func TestSelectFactorTilePinned(t *testing.T) {
	cases := []struct {
		routine string
		n, T    int
		pred    float64
	}{
		{"dpotrf", 4096, 1024, 0.0069571986863711},
		{"dpotrf", 8192, 2048, 0.04094414436061677},
		{"dgetrf", 4096, 1024, 0.011906742039516527},
		{"dtrsm", 4096, 1024, 0.018088716584564863},
	}
	for _, tc := range cases {
		lib := openTiming(t)
		a := HostMatrix(tc.n, tc.n, nil)
		var b *Matrix
		if tc.routine == "dtrsm" {
			b = HostMatrix(tc.n, tc.n, nil)
		}
		for _, pass := range []string{"cold", "warm"} {
			sel, err := lib.SelectFactorTile(tc.routine, tc.n, tc.n, a, b)
			if err != nil {
				t.Fatalf("%s %d %s: %v", tc.routine, tc.n, pass, err)
			}
			if sel.T != tc.T || math.Float64bits(sel.Predicted) != math.Float64bits(tc.pred) {
				t.Errorf("%s %d %s: T=%d predicted=%v, want T=%d predicted=%v",
					tc.routine, tc.n, pass, sel.T, sel.Predicted, tc.T, tc.pred)
			}
		}
		lib.Close()
	}
}

// TestSelectFactorTileCache checks the model-reuse cache of the
// factorization selection: a warm call is a counted hit that builds no
// plan, while a cold call builds the candidate plans.
func TestSelectFactorTileCache(t *testing.T) {
	lib := openTiming(t)
	defer lib.Close()
	const n = 4096
	a := HostMatrix(n, n, nil)
	cold, err := lib.SelectFactorTile("dpotrf", n, n, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := lib.pred.CacheStats()
	var warm Selection
	allocs := testing.AllocsPerRun(10, func() {
		warm, err = lib.SelectFactorTile("dpotrf", n, n, a, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Errorf("warm selection %+v, cold %+v", warm, cold)
	}
	if allocs != 0 {
		t.Errorf("warm selection allocates %v objects per call, want 0 (no plan built)", allocs)
	}
	hits, misses := lib.pred.CacheStats()
	if hits-hits0 != 11 || misses != misses0 {
		t.Errorf("warm calls counted %d hits and %d misses, want 11 and 0", hits-hits0, misses-misses0)
	}

	// Each run is a new signature, so each is a cold search that builds a
	// plan per candidate tile: at least the Plan and its op list each.
	size := n
	coldAllocs := testing.AllocsPerRun(3, func() {
		size += 128
		if _, err := lib.SelectFactorTile("dpotrf", size, size, HostMatrix(size, size, nil), nil); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(2 * len(factorTileGrid)); coldAllocs < want {
		t.Errorf("cold selection allocates %v objects per call, want at least %v for the candidate plans", coldAllocs, want)
	}
}

// TestSelectFactorTileLocations checks that operand locations are part of
// the signature: every location combination is its own cache entry and
// answers exactly what a fresh session answers for it.
func TestSelectFactorTileLocations(t *testing.T) {
	const n = 4096
	shared := openTiming(t)
	defer shared.Close()
	operand := func(lib *Library, dev bool) *Matrix {
		if !dev {
			return HostMatrix(n, n, nil)
		}
		m, err := lib.DeviceMatrix("dgemm", n, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		routine    string
		devA, devB bool
	}{
		{"dpotrf", false, false},
		{"dpotrf", true, false},
		{"dgetrf", false, false},
		{"dgetrf", true, false},
		{"dtrsm", false, false},
		{"dtrsm", true, false},
		{"dtrsm", false, true},
		{"dtrsm", true, true},
	}
	for i, tc := range cases {
		var b, freshB *Matrix
		fresh := openTiming(t)
		if tc.routine == "dtrsm" {
			b, freshB = operand(shared, tc.devB), operand(fresh, tc.devB)
		}
		want, err := fresh.SelectFactorTile(tc.routine, n, n, operand(fresh, tc.devA), freshB)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Close()
		a := operand(shared, tc.devA)
		for pass := 0; pass < 2; pass++ {
			got, err := shared.SelectFactorTile(tc.routine, n, n, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s devA=%t devB=%t pass %d: %+v, fresh session %+v",
					tc.routine, tc.devA, tc.devB, pass, got, want)
			}
		}
		if hits, misses := shared.pred.CacheStats(); hits != i+1 || misses != i+1 {
			t.Errorf("after %d signatures: %d hits, %d misses; want one of each per signature", i+1, hits, misses)
		}
	}
}

// TestSelectFactorTileUnknownRoutine checks that a failing signature is
// never cached: it fails on every call and counts neither hit nor miss.
func TestSelectFactorTileUnknownRoutine(t *testing.T) {
	lib := openTiming(t)
	defer lib.Close()
	a := HostMatrix(4096, 4096, nil)
	for i := 0; i < 3; i++ {
		if _, err := lib.SelectFactorTile("dgeqrf", 4096, 4096, a, nil); err == nil {
			t.Fatalf("call %d: unknown routine selected a tile", i)
		}
	}
	if hits, misses := lib.pred.CacheStats(); hits != 0 || misses != 0 {
		t.Errorf("unknown routine counted %d hits and %d misses, want none", hits, misses)
	}
}
