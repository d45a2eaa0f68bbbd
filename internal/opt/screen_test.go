package opt

import (
	"fmt"
	"math"
	"testing"

	"vortex/internal/mat"
	"vortex/internal/obs"
	"vortex/internal/rng"
)

// screenCounts returns the opt.screen counters: visits whose step the
// bound left undecided, and loss terms computed exactly.
func screenCounts() (exact, terms int64) {
	reg := obs.Default()
	return reg.Counter("opt.screen.exact").Value(), reg.Counter("opt.screen.terms").Value()
}

// sameBits reports whether a and b are the same bits, or both NaN (a
// NaN's payload is not part of the contract).
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// matchReference fails t unless TrainColumn returns refTrainColumn's
// weights bit for bit and leaves the source where it does.
func matchReference(t *testing.T, name string, p Problem, cfg SGDConfig, seed uint64) []float64 {
	t.Helper()
	src, refSrc := rng.New(seed), rng.New(seed)
	w, err := TrainColumn(p, cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refTrainColumn(p, cfg, refSrc)
	if err != nil {
		t.Fatal(err)
	}
	for q := range want {
		if !sameBits(w[q], want[q]) {
			t.Fatalf("%s: w[%d] = %v, reference %v", name, q, w[q], want[q])
		}
	}
	if next, refNext := src.Uint64(), refSrc.Uint64(); next != refNext {
		t.Fatalf("%s: source's next draw %x, reference %x", name, next, refNext)
	}
	return w
}

// marginRate and marginCfg make epoch 0 exact: a margin sample finds w
// at 0 on its own features and steps it to marginRate·y·x there, with
// no rounding (the rates are powers of two).
const marginRate = 0.25

var marginCfg = SGDConfig{Epochs: 8, Rate: marginRate, RateDecay: 0.5}

// marginRow returns a margin sample's five features: 1, 1, 1, a, b.
func marginRow(a, b float64) []float64 { return []float64{1, 1, 1, a, b} }

// marginAfterEpoch0 returns the loss hinge gives the features x of a
// margin sample once epoch 0 has stepped w to marginRate·y·x on them,
// with hinge's exact chains.
func marginAfterEpoch0(x []float64, gamma, rho float64) float64 {
	w := make([]float64, len(x))
	for q, v := range x {
		w[q] = marginRate * v
	}
	l, _ := hinge(1, mat.Dot(x, w), sumSq(x, w), gamma, rho)
	return l
}

// marginProblem builds a problem whose first samples each own five
// features (1, 1, 1, a, b for each (a, b) in rows), with targets
// alternating in sign, followed by 13 coin-flip samples sharing six
// features of their own. A margin sample's margin depends only on its
// own steps, so it is the same in every visiting order: after epoch 0
// it is marginAfterEpoch0's, and a sample that meets it then keeps it.
func marginProblem(rows [][2]float64, gamma, rho float64) Problem {
	const fill, fillN = 13, 6
	n := 5*len(rows) + fillN
	x := mat.NewMatrix(len(rows)+fill, n)
	y := make([]float64, x.Rows)
	for i, ab := range rows {
		y[i] = float64(1 - 2*(i%2))
		for k, v := range marginRow(ab[0], ab[1]) {
			x.Row(i)[5*i+k] = v
		}
	}
	src := rng.New(77)
	for i := len(rows); i < x.Rows; i++ {
		y[i] = float64(2*src.Intn(2) - 1)
		for q := n - fillN; q < n; q++ {
			x.Row(i)[q] = src.Float64()
		}
	}
	return Problem{X: x, Y: y, Gamma: gamma, Rho: rho}
}

// searchA returns the least a in [0, 2] at which f(a) <= target, for f
// non-increasing: the margin sample's feature that brings its loss
// after epoch 0 to target or just below.
func searchA(f func(a float64) float64, target float64) float64 {
	lo, hi := math.Float64bits(0), math.Float64bits(2) // bits ascend with value
	for lo < hi {
		mid := lo + (hi-lo)/2
		if f(math.Float64frombits(mid)) <= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return math.Float64frombits(lo)
}

// TestScreenedPassAtTheMargin: samples built to sit, after epoch 0,
// exactly on their margin, one ulp either side of it, within the
// screen's bound of it and outside it, at gamma 0 and 0.05, train to
// refTrainColumn's weights and source bit for bit, over one to eight
// epochs; the pass after epoch 0 gives refMeanLoss's loss for its
// snapshot bit for bit; and the opt.screen counters show that the
// exact chains decided steps and gave loss terms.
func TestScreenedPassAtTheMargin(t *testing.T) {
	for _, gamma := range []float64{0, 0.05} {
		rho := 2.0
		loss := func(a, b float64) float64 { return marginAfterEpoch0(marginRow(a, b), gamma, rho) }
		// The feature a that puts the loss at 0 or just under, and the
		// float below it, which leaves a loss above 0.
		on := searchA(func(a float64) float64 { return loss(a, 0) }, 0)
		below := math.Nextafter(on, 0)
		if loss(on, 0) > 0 || loss(below, 0) <= 0 {
			t.Fatalf("gamma %v: no margin crossing at a = %v (losses %v, %v)", gamma, on, loss(on, 0), loss(below, 0))
		}
		rows := [][2]float64{{on, 0}, {below, 0}, {math.Nextafter(on, 2), 0}}
		if gamma == 0 {
			// The float above on still rounds onto the margin of 1, so
			// the ulp above it comes from a fifth feature: 1, 1, 1, 1
			// meet it exactly, and b = 2⁻²⁵ adds 2⁻⁵⁰ to the sum of
			// squares, 2⁻⁵² to the margin.
			if l := loss(1, 0); l != 0 {
				t.Fatalf("margin of 1, 1, 1, 1: loss %v", l)
			}
			rows = append(rows, [2]float64{1, 0x1p-25})
		}
		for _, d := range []float64{1e-12, 1e-9, -1e-9, -1e-12, 1e-3, -1e-3} {
			rows = append(rows, [2]float64{on * (1 + d), 0}) // within the bound, then outside it
		}
		p := marginProblem(rows, gamma, rho)
		exact0, terms0 := screenCounts()
		for epochs := 1; epochs <= marginCfg.Epochs; epochs++ {
			cfg := marginCfg
			cfg.Epochs = epochs
			matchReference(t, fmt.Sprintf("gamma %v epochs %d", gamma, epochs), p, cfg, 5)
		}
		exact, terms := screenCounts()
		if exact == exact0 || terms == terms0 {
			t.Fatalf("gamma %v: %d visits and %d loss terms went exact, want some of each", gamma, exact-exact0, terms-terms0)
		}
		// The pass that follows epoch 0, on its own.
		cfg := marginCfg
		cfg.Epochs = 1
		prev, err := TrainColumn(p, cfg, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			if l := refSampleLoss(prev, p.X.Row(i), p.Y[i], gamma, rho); l != loss(rows[i][0], rows[i][1]) {
				t.Fatalf("gamma %v: margin sample %d's loss after epoch 0 is %v, built for %v", gamma, i, l, loss(rows[i][0], rows[i][1]))
			}
		}
		w := append([]float64(nil), prev...)
		terms1 := make([]float64, p.X.Rows)
		x16 := mat.NewScreenMatrix(p.X, 1)
		blk := new(block)
		blk.pass(p, &x16, rng.New(9).Perm(p.X.Rows), w, prev, terms1, marginRate/2, 1, true)
		if got, want := meanLoss(terms1), refMeanLoss(p, prev); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("gamma %v: pass loss %v, reference %v", gamma, got, want)
		}
		if blk.exact == 0 || blk.terms == 0 {
			t.Fatalf("gamma %v: the pass sent %d visits and %d loss terms to the exact chains, want some of each", gamma, blk.exact, blk.terms)
		}
	}
}

// TestScreenExactOnlyRows: a problem with a row holding NaN, +Inf, -Inf
// or a magnitude that rounds past 65504, the largest binary16 (65520,
// the tie that rounds to Inf, 65519.999, which float32 rounds to it,
// 1e5, MaxFloat32, 1e39, -MaxFloat64), which the screen cannot bound,
// or 65504, 65519.99, a binary16 subnormal or 2⁻²⁵, which rounds to 0,
// which it can, trains to refTrainColumn's weights and source bit for
// bit (NaN payloads aside), at gamma 0 and 0.05; the rows it cannot
// bound go to the exact chains.
func TestScreenExactOnlyRows(t *testing.T) {
	specials := []struct {
		v         float64
		exactOnly bool
	}{
		{math.NaN(), true}, {math.Inf(1), true}, {math.Inf(-1), true},
		{65520, true}, {-65519.999, true}, {1e5, true}, {math.MaxFloat32, true}, {1e39, true}, {-math.MaxFloat64, true},
		{65504, false}, {-65519.99, false}, {3 * 0x1p-24, false}, {0x1p-25, false},
	}
	for _, sp := range specials {
		for _, gamma := range []float64{0, 0.05} {
			p := sparseProblem(3, 203, 49, 0)
			p.Gamma, p.Rho = gamma, 3
			for _, i := range []int{5, 77, 190} {
				p.X.Row(i)[i%49] = sp.v
			}
			exact0, _ := screenCounts()
			matchReference(t, fmt.Sprintf("special %v gamma %v", sp.v, gamma), p, SGDConfig{Epochs: 12}, 8)
			if exact, _ := screenCounts(); sp.exactOnly && exact == exact0 {
				t.Fatalf("special %v gamma %v: no visit went exact", sp.v, gamma)
			}
		}
	}
}

// FuzzScreenedColumn: TrainColumn trains problems of fuzzed size,
// separability, penalty and box to refTrainColumn's weights and source
// bit for bit, with a fuzzed value spliced into one row.
func FuzzScreenedColumn(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(49), false, 0.0, 1.0, 0.5)
	f.Add(uint64(2), uint8(9), uint8(8), true, 0.05, 0.25, math.NaN())
	f.Add(uint64(3), uint8(100), uint8(17), true, 0.3, 3.0, 1e39)
	f.Fuzz(func(t *testing.T, seed uint64, s, n uint8, separable bool, gamma, wmax, special float64) {
		if s == 0 || n == 0 || !(gamma >= 0 && gamma <= 1) || !(wmax > 0 && wmax < 1e6) {
			t.Skip()
		}
		margin := 0.0 // coin-flip targets
		if separable && n >= 8 {
			margin = 0.3
		}
		p := sparseProblem(seed, int(s), int(n), margin)
		p.Gamma, p.Rho = gamma, 2
		p.X.Data[int(seed%uint64(len(p.X.Data)))] = special
		matchReference(t, "fuzz", p, SGDConfig{Epochs: 6, WMax: wmax}, seed)
	})
}
