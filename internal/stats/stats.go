// Package stats provides the statistical primitives used throughout the
// CoCoPeLia framework: summary statistics, quantiles, confidence intervals
// for the micro-benchmark stopping rule, and the zero-intercept
// least-squares regression used to fit the transfer sub-models (Table II of
// the paper).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// non-positive values make the result NaN. It returns 0 for an empty slice.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Variance returns the unbiased sample variance of xs (n-1 denominator).
// It returns 0 when fewer than two samples are provided.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the R default).
// It returns an error for an empty sample or q outside [0, 1].
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, errors.New("stats: quantile out of range")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// Median returns the median of xs, or 0 for an empty slice.
func Median(xs []float64) float64 {
	m, err := Quantile(xs, 0.5)
	if err != nil {
		return 0
	}
	return m
}

// Summary condenses a sample into the statistics used when rendering the
// paper's violin plots as text: the five-number summary plus mean.
type Summary struct {
	N                int
	Mean             float64
	Min, Q1, Med, Q3 float64
	Max              float64
	P5, P95          float64
	StdDev           float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	q := func(p float64) float64 {
		v, _ := Quantile(xs, p)
		return v
	}
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Min:    Min(xs),
		Q1:     q(0.25),
		Med:    q(0.5),
		Q3:     q(0.75),
		Max:    Max(xs),
		P5:     q(0.05),
		P95:    q(0.95),
		StdDev: StdDev(xs),
	}
}

// tCritical95 approximates the two-sided 95% Student-t critical value for
// df degrees of freedom. Exact table values are used for small df, and the
// normal-approximation limit 1.96 beyond the table.
func tCritical95(df int) float64 {
	table := []float64{
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
		2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
		2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
		2.048, 2.045, 2.042,
	}
	if df <= 0 {
		return math.Inf(1)
	}
	if df <= len(table) {
		return table[df-1]
	}
	switch {
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	}
	return 1.960
}

// CIHalfWidth95 returns the half-width of the 95% confidence interval of
// the mean of xs. For fewer than two samples the half-width is +Inf, which
// makes the micro-benchmark stopping rule keep sampling.
func CIHalfWidth95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.Inf(1)
	}
	return tCritical95(n-1) * StdDev(xs) / math.Sqrt(float64(n))
}

// MeanWithinCI reports whether the 95% confidence interval of the mean of
// xs falls within fraction tol of the mean (the paper's stopping rule uses
// tol = 0.05). An all-zero or near-zero mean sample is accepted once at
// least two samples exist, to avoid division blow-ups.
func MeanWithinCI(xs []float64, tol float64) bool {
	if len(xs) < 2 {
		return false
	}
	m := Mean(xs)
	hw := CIHalfWidth95(xs)
	if m == 0 {
		return hw == 0
	}
	return hw <= tol*math.Abs(m)
}

// FitZeroIntercept fits y = b*x by least squares with the intercept forced
// through the origin, in the manner the paper fits t_b (the latency t_l is
// subtracted from the samples beforehand by the caller). It returns the
// slope b and the residual standard error. At least one sample with a
// non-zero x is required.
func FitZeroIntercept(x, y []float64) (slope, rse float64, err error) {
	if len(x) == 0 || len(x) != len(y) {
		return 0, 0, errors.New("stats: need equal-length non-empty x, y")
	}
	var sxy, sxx float64
	for i := range x {
		sxy += x[i] * y[i]
		sxx += x[i] * x[i]
	}
	if sxx == 0 {
		return 0, 0, errors.New("stats: degenerate regressor (all x zero)")
	}
	slope = sxy / sxx
	var ss float64
	for i := range x {
		r := y[i] - slope*x[i]
		ss += r * r
	}
	df := len(x) - 1
	if df < 1 {
		df = 1
	}
	rse = math.Sqrt(ss / float64(df))
	return slope, rse, nil
}

// RelErrPercent returns the paper's relative error metric,
// 100*(predicted-measured)/measured. A zero measured value yields NaN.
func RelErrPercent(predicted, measured float64) float64 {
	return 100 * (predicted - measured) / measured
}
