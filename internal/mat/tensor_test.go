package mat

import (
	"fmt"
	"math"
	"testing"

	"vortex/internal/rng"
)

// fillTensor populates a tensor and a matching per-lane matrix list with
// identical random values.
func fillTensor(g *Tensor3, src *rng.Source) []*Matrix {
	lanes := make([]*Matrix, g.Lanes)
	for t := range lanes {
		lanes[t] = NewMatrix(g.Rows, g.Cols)
	}
	for i := 0; i < g.Rows; i++ {
		for j := 0; j < g.Cols; j++ {
			for t := 0; t < g.Lanes; t++ {
				v := src.Float64()*2 - 1
				g.Set(i, j, t, v)
				lanes[t].Set(i, j, v)
			}
		}
	}
	return lanes
}

// sparseVec draws a drive vector with the crossbar's sparsity pattern
// (around a third of the entries exactly zero).
func sparseVec(n int, src *rng.Source) []float64 {
	x := make([]float64, n)
	for i := range x {
		if src.Float64() < 0.35 {
			continue
		}
		x[i] = src.Float64()
	}
	return x
}

// TestMulVecLanesMatchesPerTrial pins the core equivalence of the SoA
// refactor: every lane of the fused kernel is bit-identical to a
// per-trial MulVecTo, for every implementation the machine supports.
func TestMulVecLanesMatchesPerTrial(t *testing.T) {
	defer SetKernelISA("auto")
	shapes := []struct{ rows, cols, lanes int }{
		{1, 1, 8}, {7, 3, 8}, {64, 10, 8}, {129, 5, 16}, {794, 10, 8},
	}
	for _, isa := range []string{"generic", "avx2", "avx512"} {
		if got := SetKernelISA(isa); got != isa {
			t.Logf("ISA %s unavailable (got %s), skipping", isa, got)
			continue
		}
		for _, sh := range shapes {
			for seed := uint64(1); seed <= 4; seed++ {
				src := rng.New(seed * 977)
				g := NewTensor3(sh.rows, sh.cols, sh.lanes)
				lanes := fillTensor(g, src)
				x := sparseVec(sh.rows, src)
				dst := make([]float64, sh.cols*sh.lanes)
				g.MulVecLanesTo(dst, x)
				want := make([]float64, sh.cols)
				for tl := 0; tl < sh.lanes; tl++ {
					lanes[tl].MulVecTo(want, x)
					for j := 0; j < sh.cols; j++ {
						got := dst[j*sh.lanes+tl]
						if math.Float64bits(got) != math.Float64bits(want[j]) {
							t.Fatalf("%s %dx%dx%d seed %d: lane %d col %d = %x, per-trial %x",
								isa, sh.rows, sh.cols, sh.lanes, seed, tl, j,
								math.Float64bits(got), math.Float64bits(want[j]))
						}
					}
				}
			}
		}
	}
}

// TestMulVecLanesNaNInput checks a NaN drive entry poisons the outputs
// exactly like the generic loop on every implementation.
func TestMulVecLanesNaNInput(t *testing.T) {
	defer SetKernelISA("auto")
	for _, isa := range []string{"generic", "avx2", "avx512"} {
		if SetKernelISA(isa) != isa {
			continue
		}
		g := NewTensor3(3, 2, 8)
		src := rng.New(5)
		fillTensor(g, src)
		x := []float64{1, math.NaN(), 0}
		dst := make([]float64, 2*8)
		g.MulVecLanesTo(dst, x)
		for k, v := range dst {
			if !math.IsNaN(v) {
				t.Fatalf("%s: dst[%d] = %v, want NaN", isa, k, v)
			}
		}
	}
}

// TestMulVecLanesZeroDrive checks that an all-zero drive leaves dst
// (exactly) zeroed — the zero rows are processed, not skipped, and their
// +-0 contributions must still produce +0 outputs.
func TestMulVecLanesZeroDrive(t *testing.T) {
	defer SetKernelISA("auto")
	for _, isa := range []string{"generic", "avx2", "avx512"} {
		if SetKernelISA(isa) != isa {
			continue
		}
		g := NewTensor3(5, 3, 8)
		fillTensor(g, rng.New(9))
		dst := make([]float64, 3*8)
		for k := range dst {
			dst[k] = 42 // must be overwritten
		}
		g.MulVecLanesTo(dst, make([]float64, 5))
		for k, v := range dst {
			if v != 0 || math.Signbit(v) {
				t.Fatalf("%s: dst[%d] = %v, want +0", isa, k, v)
			}
		}
	}
}

// TestTensorLaneRoundTrip checks Lane/SetLane round-trip per lane.
func TestTensorLaneRoundTrip(t *testing.T) {
	g := NewTensor3(4, 3, 8)
	src := rng.New(3)
	m := NewMatrix(4, 3)
	for i := range m.Data {
		m.Data[i] = src.Float64()
	}
	g.SetLane(5, m)
	back := g.Lane(5)
	for i := range m.Data {
		if back.Data[i] != m.Data[i] {
			t.Fatalf("lane round trip mismatch at %d", i)
		}
	}
	if got := g.Lane(4); got.MaxAbs() != 0 {
		t.Fatalf("neighboring lane contaminated")
	}
}

// TestMulVecLanesAllocsZero is the PR 7 zero-alloc guard: the
// steady-state batched kernel must not allocate.
func TestMulVecLanesAllocsZero(t *testing.T) {
	g := NewTensor3(794, 10, 8)
	src := rng.New(2)
	fillTensor(g, src)
	x := sparseVec(794, src)
	dst := make([]float64, 10*8)
	allocs := testing.AllocsPerRun(100, func() {
		g.MulVecLanesTo(dst, x)
	})
	if allocs != 0 {
		t.Fatalf("MulVecLanesTo allocates %v per run, want 0", allocs)
	}
}

// BenchmarkMulVecLanes measures the fused kernel per implementation at
// the paper's Full-scale read shape (794x10, 8 trial lanes, ~65% dense
// drive), against 8 per-trial MulVecTo calls as the scalar baseline.
func BenchmarkMulVecLanes(b *testing.B) {
	src := rng.New(7)
	g := NewTensor3(794, 10, 8)
	lanes := fillTensor(g, src)
	x := sparseVec(794, src)
	dst := make([]float64, 10*8)
	per := make([]float64, 10)
	b.Run("per-trial-x8", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			for t := 0; t < 8; t++ {
				lanes[t].MulVecTo(per, x)
			}
		}
	})
	defer SetKernelISA("auto")
	for _, isa := range []string{"generic", "avx2", "avx512"} {
		if SetKernelISA(isa) != isa {
			continue
		}
		b.Run(fmt.Sprintf("fused-%s", isa), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				g.MulVecLanesTo(dst, x)
			}
		})
	}
}
