// Package stats implements the descriptive statistics and distribution
// functions used by the Vortex experiments: the mean and standard
// deviation, percentiles, the Normal CDF/quantile, the chi-square
// quantile needed for the VAT variation bound (Eq. 7 of the paper), and
// a lognormal fitter used by AMP pre-testing.
//
// Everything is implemented from scratch on top of math; no external
// numerical libraries are used.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// MeanStd returns mean and population standard deviation in one pass.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var s, sq float64
	for _, x := range xs {
		s += x
		sq += x * x
	}
	n := float64(len(xs))
	mean = s / n
	v := sq/n - mean*mean
	if v < 0 {
		v = 0 // numeric noise
	}
	return mean, math.Sqrt(v)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. xs is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of [0,100]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// NormalCDF returns P(Z <= x) for a standard normal Z.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalQuantile returns the x with NormalCDF(x) = p for p in (0, 1),
// using the Acklam rational approximation refined by one Halley step.
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		if p == 0 {
			return math.Inf(-1)
		}
		if p == 1 {
			return math.Inf(1)
		}
		return math.NaN()
	}
	// Acklam's coefficients.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow = 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > 1-plow:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// lowerGamma returns the regularized lower incomplete gamma function
// P(a, x) = gamma(a, x)/Gamma(a), via series expansion for x < a+1 and
// continued fraction otherwise (Numerical Recipes style).
func lowerGamma(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	lg, _ := math.Lgamma(a)
	if x < a+1 {
		// Series representation.
		ap := a
		sum := 1.0 / a
		del := sum
		for i := 0; i < 500; i++ {
			ap++
			del *= x / ap
			sum += del
			if math.Abs(del) < math.Abs(sum)*1e-15 {
				break
			}
		}
		return sum * math.Exp(-x+a*math.Log(x)-lg)
	}
	// Continued fraction for Q(a,x); P = 1 - Q.
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	q := math.Exp(-x+a*math.Log(x)-lg) * h
	return 1 - q
}

// ChiSquareCDF returns P(X <= x) for X chi-square distributed with k
// degrees of freedom.
func ChiSquareCDF(x float64, k int) float64 {
	if x <= 0 {
		return 0
	}
	return lowerGamma(float64(k)/2, x/2)
}

// ChiSquareQuantile returns the x with ChiSquareCDF(x, k) = p, found by
// bisection seeded with the Wilson-Hilferty approximation. This is the
// function the VAT algorithm uses to bound the 2-norm of the variation
// vector theta at a given confidence level (paper Eq. 7).
func ChiSquareQuantile(p float64, k int) float64 {
	if k <= 0 {
		return math.NaN()
	}
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Wilson-Hilferty start point.
	kk := float64(k)
	z := NormalQuantile(p)
	guess := kk * math.Pow(1-2/(9*kk)+z*math.Sqrt(2/(9*kk)), 3)
	if guess <= 0 || math.IsNaN(guess) {
		guess = kk
	}
	// Bracket the root.
	lo, hi := 0.0, guess
	for ChiSquareCDF(hi, k) < p {
		lo = hi
		hi *= 2
		if hi > 1e12 {
			break
		}
	}
	// Bisection.
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if ChiSquareCDF(mid, k) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-10*(1+hi) {
			break
		}
	}
	return (lo + hi) / 2
}

// ThetaNormBound returns rho such that P(||theta||_2 <= rho) = confidence
// for theta a vector of n iid N(0, sigma^2) components. Since
// ||theta||^2 / sigma^2 ~ chi-square(n), rho = sigma*sqrt(chi2inv(conf,n)).
func ThetaNormBound(sigma float64, n int, confidence float64) float64 {
	if n <= 0 || sigma <= 0 {
		return 0
	}
	return sigma * math.Sqrt(ChiSquareQuantile(confidence, n))
}

// FitLogNormal fits mu and sigma of a lognormal distribution to positive
// samples by taking moments in log space. Non-positive samples are an
// error, matching its use on measured resistances.
func FitLogNormal(xs []float64) (mu, sigma float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	logs := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			return 0, 0, errors.New("stats: non-positive sample in lognormal fit")
		}
		logs[i] = math.Log(x)
	}
	mu, sigma = MeanStd(logs)
	return mu, sigma, nil
}
