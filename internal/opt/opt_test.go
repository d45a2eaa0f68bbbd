package opt

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"vortex/internal/dataset"
	"vortex/internal/mat"
	"vortex/internal/rng"
	"vortex/internal/stats"
)

// separableProblem builds a linearly separable 2-class problem.
func separableProblem(seed uint64, s, n int) (x *mat.Matrix, y []float64, wTrue []float64) {
	src := rng.New(seed)
	wTrue = src.NormVec(nil, n, 1)
	x = mat.NewMatrix(s, n)
	y = make([]float64, s)
	for i := 0; i < s; i++ {
		row := x.Row(i)
		for {
			for q := range row {
				row[q] = src.Float64()
			}
			m := mat.Dot(row, wTrue)
			if math.Abs(m) > 0.8 { // keep a margin
				if m > 0 {
					y[i] = 1
				} else {
					y[i] = -1
				}
				break
			}
		}
	}
	return
}

func TestValidate(t *testing.T) {
	x := mat.NewMatrix(2, 2)
	good := Problem{X: x, Y: []float64{1, -1}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Problem{
		{X: nil, Y: nil},
		{X: x, Y: []float64{1}},
		{X: x, Y: []float64{1, 0.5}},
		{X: x, Y: []float64{1, -1}, Gamma: 2},
		{X: x, Y: []float64{1, -1}, Gamma: -0.1},
		{X: x, Y: []float64{1, -1}, Rho: -1},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestTrainColumnSeparable(t *testing.T) {
	x, y, _ := separableProblem(3, 400, 20)
	p := Problem{X: x, Y: y}
	w, err := TrainColumn(p, SGDConfig{Epochs: 200, Rate: 0.1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// Count training errors.
	wrong := 0
	for i := 0; i < x.Rows; i++ {
		if y[i]*mat.Dot(x.Row(i), w) <= 0 {
			wrong++
		}
	}
	// The box constraint caps the attainable margin below the hinge's
	// target of 1, so a few thin-margin samples may stay misclassified;
	// demand near-separation rather than perfection.
	if frac := float64(wrong) / float64(x.Rows); frac > 0.04 {
		t.Fatalf("separable problem misclassified %.1f%%", 100*frac)
	}
}

func TestTrainColumnDeterministic(t *testing.T) {
	x, y, _ := separableProblem(5, 100, 10)
	p := Problem{X: x, Y: y, Gamma: 0.3, Rho: 2}
	w1, err := TrainColumn(p, SGDConfig{}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := TrainColumn(p, SGDConfig{}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatal("same seed produced different weights")
		}
	}
}

func TestWeightsRespectBox(t *testing.T) {
	x, y, _ := separableProblem(7, 200, 8)
	p := Problem{X: x, Y: y}
	w, err := TrainColumn(p, SGDConfig{WMax: 0.25, Epochs: 100, Rate: 0.5}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range w {
		if math.Abs(v) > 0.25+1e-12 {
			t.Fatalf("weight %v escaped the box", v)
		}
	}
}

func TestSampleLossProperties(t *testing.T) {
	// Loss is non-negative and zero for strongly satisfied samples.
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 1 + src.Intn(10)
		w := src.NormVec(nil, n, 1)
		x := src.NormVec(nil, n, 1)
		l := SampleLoss(w, x, 1, 0.2, 1.5)
		return l >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Exactly computable case.
	w := []float64{1, 0}
	x := []float64{2, 0}
	// margin = 2, pen = gamma*rho*|2| = 0.5*1*2 = 1, loss = 1+1-2 = 0.
	if l := SampleLoss(w, x, 1, 0.5, 1); l != 0 {
		t.Fatalf("loss = %v, want 0", l)
	}
	// y = -1 flips the margin: loss = 1+1+2 = 4.
	if l := SampleLoss(w, x, -1, 0.5, 1); l != 4 {
		t.Fatalf("loss = %v, want 4", l)
	}
}

func TestPenaltyMonotoneInGamma(t *testing.T) {
	// For fixed w, the mean loss is non-decreasing in gamma.
	x, y, _ := separableProblem(11, 50, 6)
	src := rng.New(4)
	w := src.NormVec(nil, 6, 1)
	prev := -1.0
	for _, gamma := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
		l := refMeanLoss(Problem{X: x, Y: y, Gamma: gamma, Rho: 3}, w)
		if l < prev {
			t.Fatalf("mean loss decreased with gamma: %v -> %v", prev, l)
		}
		prev = l
	}
}

func TestVATShrinksWeightedNorm(t *testing.T) {
	// Training with a large penalty must reduce the workload-weighted
	// 2-norm ||x o w|| relative to conventional training — that is the
	// mechanism by which VAT buys variation tolerance.
	x, y, _ := separableProblem(13, 300, 15)
	wConv, err := TrainColumn(Problem{X: x, Y: y}, SGDConfig{Epochs: 120}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	wVAT, err := TrainColumn(Problem{X: x, Y: y, Gamma: 0.8, Rho: 4}, SGDConfig{Epochs: 120}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	var nConv, nVAT float64
	for i := 0; i < x.Rows; i++ {
		nConv += mat.Norm2(mat.HadamardVec(x.Row(i), wConv))
		nVAT += mat.Norm2(mat.HadamardVec(x.Row(i), wVAT))
	}
	if nVAT >= nConv {
		t.Fatalf("VAT weighted norm %v not below conventional %v", nVAT, nConv)
	}
}

func TestVATImprovesRobustnessUnderVariation(t *testing.T) {
	// End-to-end sanity of the paper's core claim at the optimizer level:
	// under multiplicative lognormal weight corruption, VAT-trained
	// weights classify better than conventionally trained ones.
	x, y, _ := separableProblem(17, 500, 30)
	sigma := 0.6
	rho := stats.ThetaNormBound(sigma, 30, 0.9)
	wConv, err := TrainColumn(Problem{X: x, Y: y}, SGDConfig{Epochs: 150}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	wVAT, err := TrainColumn(Problem{X: x, Y: y, Gamma: 0.3, Rho: rho}, SGDConfig{Epochs: 150}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(100)
	evalCorrupted := func(w []float64) float64 {
		correct := 0
		const trials = 40
		wc := make([]float64, len(w))
		for trial := 0; trial < trials; trial++ {
			for q := range w {
				wc[q] = w[q] * src.LogNormal(0, sigma)
			}
			for i := 0; i < x.Rows; i++ {
				if y[i]*mat.Dot(x.Row(i), wc) > 0 {
					correct++
				}
			}
		}
		return float64(correct) / float64(trials*x.Rows)
	}
	accConv := evalCorrupted(wConv)
	accVAT := evalCorrupted(wVAT)
	if accVAT <= accConv {
		t.Fatalf("VAT corrupted accuracy %.3f not above conventional %.3f", accVAT, accConv)
	}
}

func TestTrainAllAndAccuracy(t *testing.T) {
	// Three well-separated Gaussian blobs.
	src := rng.New(20)
	const s, n, classes = 300, 5, 3
	x := mat.NewMatrix(s, n)
	labels := make([]int, s)
	for i := 0; i < s; i++ {
		c := i % classes
		labels[i] = c
		row := x.Row(i)
		for q := range row {
			row[q] = src.Normal(0, 0.05)
		}
		row[c] += 0.9 // class-indicative feature
	}
	w, err := TrainAll(x, labels, classes, 0, 0, SGDConfig{Epochs: 80}, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(x, labels, w); acc < 0.98 {
		t.Fatalf("blob accuracy %.3f, want >= 0.98", acc)
	}
}

func TestTrainAllValidation(t *testing.T) {
	x := mat.NewMatrix(4, 2)
	if _, err := TrainAll(x, []int{0, 1}, 2, 0, 0, SGDConfig{}, rng.New(1)); err == nil {
		t.Fatal("expected label count error")
	}
	if _, err := TrainAll(x, []int{0, 1, 2, 5}, 3, 0, 0, SGDConfig{}, rng.New(1)); err == nil {
		t.Fatal("expected label range error")
	}
	if _, err := TrainColumn(Problem{X: x, Y: []float64{1, 1, -1, -1}}, SGDConfig{}, nil); err == nil {
		t.Fatal("expected nil source error")
	}
}

func TestAccuracyEmpty(t *testing.T) {
	if Accuracy(mat.NewMatrix(0, 3), nil, mat.NewMatrix(3, 2)) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

// TestAccuracyAllocs: Accuracy allocates at most one scores vector per
// call, not one per sample.
func TestAccuracyAllocs(t *testing.T) {
	p := sparseProblem(3, 203, 49, 0)
	w := mat.NewMatrix(49, 10)
	rng.New(4).NormVec(w.Data, len(w.Data), 0.1)
	labels := make([]int, p.X.Rows)
	for i := range labels {
		labels[i] = i % 10
	}
	if allocs := testing.AllocsPerRun(20, func() { Accuracy(p.X, labels, w) }); allocs > 1 {
		t.Fatalf("Accuracy allocates %v per call over %d samples, want at most 1", allocs, p.X.Rows)
	}
}

// TestTrainColumnLeavesNoGoroutine: TrainColumn trains on its caller's
// goroutine, so on every exit of the epoch loop the goroutine count is
// what it was before the call.
func TestTrainColumnLeavesNoGoroutine(t *testing.T) {
	cases := []struct {
		name   string
		s, n   int
		margin float64
		cfg    SGDConfig
	}{
		{"ran every epoch", 1201, 128, 0, SGDConfig{Epochs: 5}},
		{"stopped at loss 0", 1201, 128, 6, SGDConfig{}},
		{"stopped at a loss change below Tol", 1201, 128, 0, SGDConfig{Tol: 1e-2}},
	}
	for _, c := range cases {
		p := sparseProblem(41, c.s, c.n, c.margin)
		before := runtime.NumGoroutine()
		if _, err := TrainColumn(p, c.cfg, rng.New(3)); err != nil {
			t.Fatal(err)
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Fatalf("%s: %d goroutines after TrainColumn returned, %d before", c.name, after, before)
		}
	}
}

// TestTrainAllConcurrentCalls: TrainAll calls running at once over one
// shared sample matrix, as parallelTrials runs its trials, each return
// what the same call returns alone. Run it under -race.
func TestTrainAllConcurrentCalls(t *testing.T) {
	train, _, err := dataset.Digits(70, 0, 2, 9) // 700 x 196
	if err != nil {
		t.Fatal(err)
	}
	x, labels := train.ToMatrix()
	rho := stats.ThetaNormBound(0.6, x.Cols, 0.9)
	cfg := SGDConfig{Epochs: 6}
	const calls = 4
	gamma := func(i int) float64 { return 0.05 * float64(i%2) }
	want := make([]*mat.Matrix, calls)
	for i := range want {
		if want[i], err = TrainAll(x, labels, dataset.NumClasses, gamma(i), rho, cfg, rng.New(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*mat.Matrix, calls)
	errs := make([]error, calls)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = TrainAll(x, labels, dataset.NumClasses, gamma(i), rho, cfg, rng.New(uint64(i)))
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for k, v := range got[i].Data {
			if math.Float64bits(v) != math.Float64bits(want[i].Data[k]) {
				t.Fatalf("call %d: weight %d = %v concurrently, %v alone", i, k, v, want[i].Data[k])
			}
		}
	}
}
