package stats

import (
	"math"
	"testing"
	"testing/quick"

	"vortex/internal/rng"
)

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m, s := MeanStd(xs); m != 5 || s != 2 {
		t.Fatalf("mean, stddev = %v, %v, want 5, 2", m, s)
	}
}

func TestMeanStdMatchesSeparate(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 1 + src.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = src.Normal(3, 7)
		}
		// The two-pass reference: the mean, then the mean squared
		// deviation from it.
		mean, v := 0.0, 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		for _, x := range xs {
			v += (x - mean) * (x - mean)
		}
		m, s := MeanStd(xs)
		return math.Abs(m-mean) < 1e-9 && math.Abs(s-math.Sqrt(v/float64(n))) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyInputs(t *testing.T) {
	if m, s := MeanStd(nil); m != 0 || s != 0 {
		t.Fatal("empty mean/stddev should be 0")
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Fatal("expected ErrEmpty")
	}
	if _, _, err := FitLogNormal(nil); err != ErrEmpty {
		t.Fatal("expected ErrEmpty from FitLogNormal")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	} {
		got, err := Percentile(xs, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("P%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Fatal("expected error for p>100")
	}
	// Input must not be modified.
	ys := []float64{5, 1, 3}
	if _, err := Percentile(ys, 50); err != nil {
		t.Fatal(err)
	}
	if ys[0] != 5 || ys[1] != 1 || ys[2] != 3 {
		t.Fatal("Percentile modified its input")
	}
}

func TestNormalCDFKnown(t *testing.T) {
	for _, tc := range []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963985, 0.975},
		{-1.959963985, 0.025},
		{1, 0.8413447461},
	} {
		if got := NormalCDF(tc.x); math.Abs(got-tc.want) > 1e-7 {
			t.Errorf("NormalCDF(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for p := 0.001; p < 1; p += 0.013 {
		x := NormalQuantile(p)
		if back := NormalCDF(x); math.Abs(back-p) > 1e-9 {
			t.Errorf("round trip p=%v: got %v", p, back)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Fatal("quantile edge values wrong")
	}
	if !math.IsNaN(NormalQuantile(-0.5)) {
		t.Fatal("expected NaN for p<0")
	}
}

func TestChiSquareCDFKnown(t *testing.T) {
	// Reference values (R: pchisq).
	cases := []struct {
		x    float64
		k    int
		want float64
	}{
		{3.841458821, 1, 0.95},
		{5.991464547, 2, 0.95},
		{18.30703805, 10, 0.95},
		{124.3421134, 100, 0.95},
		{10, 10, 0.5595067},
	}
	for _, c := range cases {
		if got := ChiSquareCDF(c.x, c.k); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("ChiSquareCDF(%v,%d) = %v, want %v", c.x, c.k, got, c.want)
		}
	}
	if ChiSquareCDF(-1, 3) != 0 {
		t.Fatal("CDF of negative x must be 0")
	}
}

func TestChiSquareQuantileRoundTrip(t *testing.T) {
	for _, k := range []int{1, 2, 5, 10, 49, 100, 196, 784} {
		for _, p := range []float64{0.05, 0.5, 0.9, 0.95, 0.99} {
			x := ChiSquareQuantile(p, k)
			if back := ChiSquareCDF(x, k); math.Abs(back-p) > 1e-6 {
				t.Errorf("k=%d p=%v: quantile=%v, CDF back=%v", k, p, x, back)
			}
		}
	}
	if ChiSquareQuantile(0, 5) != 0 {
		t.Fatal("quantile(0) must be 0")
	}
	if !math.IsInf(ChiSquareQuantile(1, 5), 1) {
		t.Fatal("quantile(1) must be +Inf")
	}
}

func TestThetaNormBound(t *testing.T) {
	// For n=1, ||theta|| = |theta|, so P(|theta| <= rho) = conf means
	// rho = sigma * NormalQuantile((1+conf)/2).
	sigma := 0.3
	rho := ThetaNormBound(sigma, 1, 0.95)
	want := sigma * NormalQuantile(0.975)
	if math.Abs(rho-want) > 1e-6 {
		t.Fatalf("rho = %v, want %v", rho, want)
	}
	// Monte-Carlo check for n=50.
	src := rng.New(99)
	n := 50
	rho = ThetaNormBound(sigma, n, 0.9)
	inside := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		var ss float64
		for j := 0; j < n; j++ {
			v := src.Normal(0, sigma)
			ss += v * v
		}
		if math.Sqrt(ss) <= rho {
			inside++
		}
	}
	frac := float64(inside) / trials
	if math.Abs(frac-0.9) > 0.01 {
		t.Fatalf("empirical coverage = %v, want ~0.9", frac)
	}
	if ThetaNormBound(0.5, 0, 0.9) != 0 {
		t.Fatal("n=0 should give 0")
	}
}

func TestFitLogNormal(t *testing.T) {
	src := rng.New(17)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = src.LogNormal(1.2, 0.4)
	}
	mu, sigma, err := FitLogNormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mu-1.2) > 0.01 || math.Abs(sigma-0.4) > 0.01 {
		t.Fatalf("fit = (%v, %v), want (1.2, 0.4)", mu, sigma)
	}
	if _, _, err := FitLogNormal([]float64{1, -2}); err == nil {
		t.Fatal("expected error on non-positive sample")
	}
}
