package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %g, want %g (tol %g)", what, got, want, tol)
	}
}

func TestMean(t *testing.T) {
	almost(t, Mean([]float64{1, 2, 3, 4}), 2.5, 1e-12, "mean")
	if Mean(nil) != 0 {
		t.Error("mean of empty should be 0")
	}
}

func TestGeoMean(t *testing.T) {
	almost(t, GeoMean([]float64{1, 100}), 10, 1e-9, "geomean")
	almost(t, GeoMean([]float64{2, 2, 2}), 2, 1e-12, "geomean const")
	if GeoMean(nil) != 0 {
		t.Error("geomean of empty should be 0")
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	almost(t, Variance(xs), 32.0/7.0, 1e-12, "variance")
	almost(t, StdDev(xs), math.Sqrt(32.0/7.0), 1e-12, "stddev")
	if Variance([]float64{1}) != 0 {
		t.Error("variance of single sample should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	almost(t, Min(xs), -1, 0, "min")
	almost(t, Max(xs), 7, 0, "max")
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty min/max should be +/-Inf")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	} {
		got, err := Quantile(xs, tc.q)
		if err != nil {
			t.Fatalf("quantile(%v): %v", tc.q, err)
		}
		almost(t, got, tc.want, 1e-12, "quantile")
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("quantile of empty should error")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("quantile q>1 should error")
	}
	if _, err := Quantile(xs, math.NaN()); err == nil {
		t.Error("quantile q=NaN should error")
	}
	// Single element: every quantile is that element.
	got, err := Quantile([]float64{42}, 0.99)
	if err != nil || got != 42 {
		t.Errorf("single-element quantile: got %v, %v", got, err)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	_, _ = Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestMedian(t *testing.T) {
	almost(t, Median([]float64{1, 3, 2}), 2, 0, "odd median")
	almost(t, Median([]float64{1, 2, 3, 4}), 2.5, 0, "even median")
	if Median(nil) != 0 {
		t.Error("median of empty should be 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Med != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary wrong: %+v", s)
	}
	empty := Summarize(nil)
	if empty.N != 0 {
		t.Error("empty summary should have N=0")
	}
}

func TestCIHalfWidth(t *testing.T) {
	if !math.IsInf(CIHalfWidth95([]float64{1}), 1) {
		t.Error("CI of single sample should be +Inf")
	}
	// Constant sample: zero half width.
	almost(t, CIHalfWidth95([]float64{5, 5, 5, 5}), 0, 0, "constant CI")
	// Known case: n=2, sd=sqrt(2)/sqrt(2)... use {0,2}: mean 1, sd sqrt(2),
	// t(1)=12.706, hw = 12.706*sqrt(2)/sqrt(2) = 12.706.
	almost(t, CIHalfWidth95([]float64{0, 2}), 12.706, 1e-9, "n=2 CI")
}

func TestMeanWithinCI(t *testing.T) {
	if MeanWithinCI([]float64{1}, 0.05) {
		t.Error("single sample must not satisfy the stopping rule")
	}
	if !MeanWithinCI([]float64{1, 1, 1, 1, 1}, 0.05) {
		t.Error("constant sample should satisfy the stopping rule")
	}
	if MeanWithinCI([]float64{1, 10, 0.1, 5}, 0.05) {
		t.Error("wild sample should not satisfy the stopping rule")
	}
	if !MeanWithinCI([]float64{0, 0, 0}, 0.05) {
		t.Error("all-zero sample should satisfy the stopping rule")
	}
}

func TestFitZeroIntercept(t *testing.T) {
	// Perfect line through the origin.
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	b, rse, err := FitZeroIntercept(x, y)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, b, 2, 1e-12, "slope")
	almost(t, rse, 0, 1e-12, "rse")

	if _, _, err := FitZeroIntercept(nil, nil); err == nil {
		t.Error("empty fit should error")
	}
	if _, _, err := FitZeroIntercept([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("all-zero x should error")
	}
	if _, _, err := FitZeroIntercept([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestFitZeroInterceptRecoversNoisySlope(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var x, y []float64
	for i := 1; i <= 64; i++ {
		xi := float64(i) * 1000
		x = append(x, xi)
		y = append(y, 3.5e-9*xi*(1+0.01*rng.NormFloat64()))
	}
	b, _, err := FitZeroIntercept(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-3.5e-9)/3.5e-9 > 0.01 {
		t.Errorf("recovered slope %g, want ~3.5e-9", b)
	}
}

func TestRelErrPercent(t *testing.T) {
	almost(t, RelErrPercent(110, 100), 10, 1e-12, "over")
	almost(t, RelErrPercent(90, 100), -10, 1e-12, "under")
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v, err := Quantile(xs, q)
			if err != nil {
				return false
			}
			if v < prev-1e-9 || v < Min(xs)-1e-9 || v > Max(xs)+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: mean lies within [min, max].
func TestMeanBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e100 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-6 && m <= Max(xs)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: zero-intercept fit of an exact line recovers the slope.
func TestFitZeroInterceptProperty(t *testing.T) {
	f := func(slopeRaw float64, n uint8) bool {
		slope := math.Mod(math.Abs(slopeRaw), 100) + 0.001
		k := int(n%32) + 2
		x := make([]float64, k)
		y := make([]float64, k)
		for i := 0; i < k; i++ {
			x[i] = float64(i + 1)
			y[i] = slope * x[i]
		}
		b, rse, err := FitZeroIntercept(x, y)
		return err == nil && math.Abs(b-slope) < 1e-9*slope+1e-12 && rse < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
