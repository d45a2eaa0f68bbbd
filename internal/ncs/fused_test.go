package ncs

import (
	"fmt"
	"math"
	"testing"

	"vortex/internal/adc"
	"vortex/internal/hw"
	"vortex/internal/mat"
	"vortex/internal/rng"
)

// twoReadScores is the reference the fused read must match bit for bit:
// the drive vector expanded through the row map, each array read with
// its own Matrix.MulVecTo, then differential sensing.
func twoReadScores(t *testing.T, n *NCS, x []float64, chain *adc.SenseChain) []float64 {
	t.Helper()
	wp, err := n.Pos.EffectiveWeights()
	if err != nil {
		t.Fatal(err)
	}
	wn, err := n.Neg.EffectiveWeights()
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float64, n.PhysRows())
	for i, p := range n.RowMap() {
		v[p] = math.Min(math.Max(x[i], 0), 1) * n.cfg.Vread
	}
	ip, in := make([]float64, n.cfg.Outputs), make([]float64, n.cfg.Outputs)
	wp.MulVecTo(ip, v)
	wn.MulVecTo(in, v)
	if chain == nil {
		chain = adc.Ideal()
	}
	out := make([]float64, n.cfg.Outputs)
	for j := range out {
		out[j] = chain.Sense(ip[j]-in[j]) * n.codec.Scale(n.cfg.Vread)
	}
	return out
}

// checkFusedScores compares Scores, ScoresThrough (ideal sensing) and
// ScoresBatch against the two-read reference on a batch of sparse
// drives, some of them outside [0,1] so the clamp is exercised.
func checkFusedScores(t *testing.T, label string, n *NCS, src *rng.Source) {
	t.Helper()
	xs := make([][]float64, 6)
	for k := range xs {
		xs[k] = make([]float64, n.cfg.Inputs)
		for i := range xs[k] {
			if src.Float64() < 0.35 {
				continue
			}
			xs[k][i] = 1.2*src.Float64() - 0.1
		}
	}
	batch, err := n.ScoresBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for k, x := range xs {
		sys, err := n.Scores(x)
		if err != nil {
			t.Fatal(err)
		}
		ideal, err := n.ScoresThrough(x, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name      string
			got, want []float64
		}{
			{"Scores", sys, twoReadScores(t, n, x, n.chain)},
			{"ScoresBatch", batch[k], twoReadScores(t, n, x, n.chain)},
			{"ScoresThrough(nil)", ideal, twoReadScores(t, n, x, nil)},
		} {
			for j := range c.want {
				if math.Float64bits(c.got[j]) != math.Float64bits(c.want[j]) {
					t.Fatalf("%s: %s input %d output %d = %x, two-read reference %x",
						label, c.name, k, j, math.Float64bits(c.got[j]), math.Float64bits(c.want[j]))
				}
			}
		}
	}
}

// TestFusedReadMatchesTwoReads pins the fused differential read: on both
// backends, with variation, defects, spare rows and a non-identity row
// map, every score is bit-identical to reading the two arrays
// separately — on every kernel implementation, and again after
// ProgramWeights and after direct programming plus Invalidate, which
// must refill the cached block in place. (Wire resistance is left at
// zero: the IR-drop solve warm-starts, so a second EffectiveWeights
// call for the reference would not reproduce the cached map's last
// bits.)
func TestFusedReadMatchesTwoReads(t *testing.T) {
	defer mat.SetKernelISA("auto")
	const inputs, outputs, spare = 49, 10, 5
	for _, isa := range []string{"generic", "avx2", "avx512"} {
		if got := mat.SetKernelISA(isa); got != isa {
			t.Logf("ISA %s unavailable (got %s), skipping", isa, got)
			continue
		}
		for _, backend := range []hw.Backend{hw.Analytic, hw.Circuit} {
			label := fmt.Sprintf("%s/%v", isa, backend)
			cfg := DefaultConfig(inputs, outputs)
			cfg.Backend = backend
			cfg.Redundancy = spare
			cfg.Sigma = 0.4
			cfg.DefectRate = 0.02
			n, err := New(cfg, rng.New(17))
			if err != nil {
				t.Fatal(err)
			}
			src := rng.New(23)
			perm := src.Perm(inputs + spare)
			if err := n.SetRowMap(perm[:inputs]); err != nil {
				t.Fatal(err)
			}
			w := mat.NewMatrix(inputs, outputs)
			for i := range w.Data {
				w.Data[i] = 2*src.Float64() - 1
			}
			if err := n.ProgramWeights(w, hw.ProgramOptions{}); err != nil {
				t.Fatal(err)
			}
			checkFusedScores(t, label, n, src)

			for i := range w.Data {
				w.Data[i] = 2*src.Float64() - 1
			}
			if err := n.ProgramWeights(w, hw.ProgramOptions{}); err != nil {
				t.Fatal(err)
			}
			checkFusedScores(t, label+" after ProgramWeights", n, src)

			block := &n.weff[0]
			targets := mat.NewMatrix(n.PhysRows(), outputs)
			targets.Fill(cfg.Model.Ron)
			if err := n.Pos.ProgramTargets(targets, hw.ProgramOptions{}); err != nil {
				t.Fatal(err)
			}
			n.Invalidate()
			checkFusedScores(t, label+" after Invalidate", n, src)
			if &n.weff[0] != block {
				t.Errorf("%s: Invalidate reallocated the fused block", label)
			}
		}
	}
}

// BenchmarkNCSScores times one single-system read (Scores into a
// reused output, as ScoresBatch and Evaluate run it) on a programmed
// 784-input analytic NCS, per kernel implementation.
func BenchmarkNCSScores(b *testing.B) {
	cfg := DefaultConfig(784, 10)
	cfg.Backend = hw.Analytic
	cfg.Sigma = 0.3
	n, err := New(cfg, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(2)
	w := mat.NewMatrix(784, 10)
	for i := range w.Data {
		w.Data[i] = 2*src.Float64() - 1
	}
	if err := n.ProgramWeights(w, hw.ProgramOptions{}); err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 784)
	for i := range x {
		if src.Float64() < 0.65 {
			x[i] = src.Float64()
		}
	}
	out := make([]float64, 10)
	defer mat.SetKernelISA("auto")
	for _, isa := range []string{"generic", "avx2", "avx512"} {
		if mat.SetKernelISA(isa) != isa {
			continue
		}
		b.Run(isa, func(b *testing.B) {
			for k := 0; k < b.N; k++ {
				if err := n.scoresInto(out, x, n.chain); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
