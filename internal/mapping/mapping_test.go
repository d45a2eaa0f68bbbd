package mapping

import (
	"math"
	"testing"
	"testing/quick"

	"vortex/internal/mat"
	"vortex/internal/rng"
)

func randFactors(seed uint64, rows, cols int, sigma float64) *mat.Matrix {
	src := rng.New(seed)
	f := mat.NewMatrix(rows, cols)
	for i := range f.Data {
		f.Data[i] = src.LogNormal(0, sigma)
	}
	return f
}

func randWeights(seed uint64, rows, cols int) *mat.Matrix {
	src := rng.New(seed)
	w := mat.NewMatrix(rows, cols)
	for i := range w.Data {
		w.Data[i] = 2*src.Float64() - 1
	}
	return w
}

func TestRowSensitivity(t *testing.T) {
	w := mat.FromRows([][]float64{{1, -2}, {0.5, 0.5}})
	s := RowSensitivity(w, nil)
	if s[0] != 3 || s[1] != 1 {
		t.Fatalf("sensitivity = %v", s)
	}
	s = RowSensitivity(w, []float64{0.5, 2})
	if s[0] != 1.5 || s[1] != 2 {
		t.Fatalf("weighted sensitivity = %v", s)
	}
}

// TestSWVKnown: with both arrays sharing one factor matrix, PairSWV is
// Eq. 12's single-array sum of |w_j * (1 - f_qj)|.
func TestSWVKnown(t *testing.T) {
	f := mat.FromRows([][]float64{{1, 1}, {2, 0.5}})
	w := []float64{1, -1}
	if v := PairSWV(w, f, f, 0); v != 0 {
		t.Fatalf("perfect row SWV = %v, want 0", v)
	}
	// Row 1: |1*(1-2)| + |-1*(1-0.5)| = 1 + 0.5.
	if v := PairSWV(w, f, f, 1); math.Abs(v-1.5) > 1e-12 {
		t.Fatalf("SWV = %v, want 1.5", v)
	}
}

func TestPairSWVUsesCorrectArray(t *testing.T) {
	fpos := mat.FromRows([][]float64{{2, 1}})
	fneg := mat.FromRows([][]float64{{1, 0.5}})
	// Positive weight scored on fpos, negative on fneg, zero ignored.
	w := []float64{1, -1}
	// 1*|1-2| + 1*|1-0.5| = 1.5
	if v := PairSWV(w, fpos, fneg, 0); math.Abs(v-1.5) > 1e-12 {
		t.Fatalf("PairSWV = %v, want 1.5", v)
	}
	if v := PairSWV([]float64{0, 0}, fpos, fneg, 0); v != 0 {
		t.Fatal("zero weights must contribute nothing")
	}
}

func TestGreedyIsPermutationIntoPhysRows(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		rows := 2 + src.Intn(10)
		extra := src.Intn(5)
		cols := 1 + src.Intn(4)
		w := randWeights(seed+1, rows, cols)
		fp := randFactors(seed+2, rows+extra, cols, 0.5)
		fn := randFactors(seed+3, rows+extra, cols, 0.5)
		m, err := Greedy(w, fp, fn, nil)
		if err != nil {
			return false
		}
		seen := make(map[int]bool)
		for _, q := range m {
			if q < 0 || q >= rows+extra || seen[q] {
				return false
			}
			seen[q] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyBeatsIdentityOnAverage(t *testing.T) {
	var better, worse int
	for trial := uint64(0); trial < 50; trial++ {
		w := randWeights(trial, 20, 6)
		fp := randFactors(trial+100, 24, 6, 0.6)
		fn := randFactors(trial+200, 24, 6, 0.6)
		m, err := Greedy(w, fp, fn, nil)
		if err != nil {
			t.Fatal(err)
		}
		identity := make([]int, 20)
		for i := range identity {
			identity[i] = i
		}
		if TotalSWV(w, fp, fn, m) < TotalSWV(w, fp, fn, identity) {
			better++
		} else {
			worse++
		}
	}
	if better <= worse {
		t.Fatalf("greedy better on %d/50 trials only", better)
	}
}

func TestGreedyPrefersCleanRowsForSensitiveWeights(t *testing.T) {
	// Two weight rows: one huge, one tiny. Two physical rows: one clean,
	// one awful. The huge row must take the clean physical row.
	w := mat.FromRows([][]float64{
		{10, 10},
		{0.01, 0.01},
	})
	fp := mat.FromRows([][]float64{
		{5, 5}, // awful
		{1, 1}, // clean
	})
	fn := fp.Clone()
	m, err := Greedy(w, fp, fn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m[0] != 1 || m[1] != 0 {
		t.Fatalf("mapping = %v, want sensitive row on clean device row", m)
	}
}

func TestGreedyUsesRedundantRowsToAvoidDefects(t *testing.T) {
	// 3 weight rows, 4 physical rows; physical row 1 is "stuck" (factor
	// far from 1 everywhere). With one redundant row available, no weight
	// row should land on the defective row.
	w := randWeights(7, 3, 4)
	fp := randFactors(8, 4, 4, 0.1)
	fn := randFactors(9, 4, 4, 0.1)
	for j := 0; j < 4; j++ {
		fp.Set(1, j, 100) // stuck-HRS-like deviation
		fn.Set(1, j, 100)
	}
	m, err := Greedy(w, fp, fn, nil)
	if err != nil {
		t.Fatal(err)
	}
	for p, q := range m {
		if q == 1 {
			t.Fatalf("weight row %d landed on the defective physical row", p)
		}
	}
}

func TestGreedyValidation(t *testing.T) {
	w := randWeights(1, 4, 2)
	if _, err := Greedy(w, randFactors(2, 3, 2, 0.1), randFactors(3, 3, 2, 0.1), nil); err == nil {
		t.Fatal("expected error for too few physical rows")
	}
	if _, err := Greedy(w, randFactors(2, 4, 3, 0.1), randFactors(3, 4, 3, 0.1), nil); err == nil {
		t.Fatal("expected error for column mismatch")
	}
	if _, err := Greedy(w, randFactors(2, 4, 2, 0.1), randFactors(3, 5, 2, 0.1), nil); err == nil {
		t.Fatal("expected error for factor shape disagreement")
	}
}

func TestEffectiveSigmaDropsAfterMapping(t *testing.T) {
	// The Sec. 4.3 integration property: greedy mapping lowers the
	// variation the mapped weights actually see.
	w := randWeights(11, 30, 8)
	fp := randFactors(12, 40, 8, 0.6)
	fn := randFactors(13, 40, 8, 0.6)
	identity := make([]int, 30)
	for i := range identity {
		identity[i] = i
	}
	m, err := Greedy(w, fp, fn, nil)
	if err != nil {
		t.Fatal(err)
	}
	sigmaID := EffectiveSigma(w, fp, fn, identity)
	sigmaAMP := EffectiveSigma(w, fp, fn, m)
	t.Logf("effective sigma: identity %.3f -> greedy %.3f", sigmaID, sigmaAMP)
	if sigmaAMP >= sigmaID {
		t.Fatalf("greedy mapping did not reduce effective sigma (%.3f vs %.3f)", sigmaAMP, sigmaID)
	}
}

func TestEffectiveSigmaEdgeCases(t *testing.T) {
	w := mat.NewMatrix(2, 2) // all-zero weights
	fp := randFactors(1, 2, 2, 0.5)
	fn := randFactors(2, 2, 2, 0.5)
	if s := EffectiveSigma(w, fp, fn, []int{0, 1}); s != 0 {
		t.Fatalf("all-zero weights must give sigma 0, got %v", s)
	}
}

func TestPanicsOnBadShapes(t *testing.T) {
	w := randWeights(1, 2, 2)
	f := randFactors(2, 2, 2, 0.1)
	for name, fn := range map[string]func(){
		"RowSensitivity": func() { RowSensitivity(w, []float64{1}) },
		"PairSWV":        func() { PairSWV([]float64{1}, f, f, 0) },
		"TotalSWV":       func() { TotalSWV(w, f, f, []int{0}) },
		"EffSigma":       func() { EffectiveSigma(w, f, f, []int{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkGreedy784x10(b *testing.B) {
	w := randWeights(1, 784, 10)
	fp := randFactors(2, 884, 10, 0.6)
	fn := randFactors(3, 884, 10, 0.6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Greedy(w, fp, fn, nil); err != nil {
			b.Fatal(err)
		}
	}
}
