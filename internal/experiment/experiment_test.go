package experiment

import (
	"context"
	"slices"
	"strings"
	"testing"
)

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Default.String() != "default" ||
		Full.String() != "full" || Scale(99).String() != "unknown" {
		t.Fatal("Scale strings wrong")
	}
}

func TestFig2Shape(t *testing.T) {
	res, err := Fig2(context.Background(), Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sigmas) != 10 || len(res.OLDMean) != 10 || len(res.CLDMean) != 10 {
		t.Fatal("series length wrong")
	}
	// Paper shape: OLD discrepancy grows with sigma; CLD stays small.
	if res.OLDMean[9] <= res.OLDMean[0] {
		t.Fatalf("OLD discrepancy did not grow: %.4f -> %.4f", res.OLDMean[0], res.OLDMean[9])
	}
	if res.OLDMean[9] < 0.2 {
		t.Fatalf("OLD discrepancy at sigma=1 is %.4f, expected substantial", res.OLDMean[9])
	}
	for i, c := range res.CLDMean {
		if c > 0.10 {
			t.Fatalf("CLD discrepancy at sigma=%.1f is %.4f, expected near the sensing floor",
				res.Sigmas[i], c)
		}
	}
	// CLD must be far below OLD at high sigma.
	if res.CLDMean[9] >= res.OLDMean[9]/2 {
		t.Fatalf("CLD (%.4f) not clearly below OLD (%.4f) at sigma=1",
			res.CLDMean[9], res.OLDMean[9])
	}
	if !strings.Contains(res.Table(), "sigma") {
		t.Fatal("table rendering broken")
	}
}

func TestFig3Shape(t *testing.T) {
	res, err := Fig3(context.Background(), Quick, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Monotone growth of the D skew with array size, with the worst-case
	// skew exceeding 2 for long columns.
	for i := 1; i < len(res.DSkew); i++ {
		if res.DSkew[i] <= res.DSkew[i-1] {
			t.Fatalf("D skew not monotone: %v", res.DSkew)
		}
	}
	if res.DSkew[len(res.DSkew)-1] < 2 {
		t.Fatalf("worst-case D skew %.2f at %d rows, expected > 2",
			res.DSkew[len(res.DSkew)-1], res.RowsList[len(res.RowsList)-1])
	}
	if res.Crossover == 0 {
		t.Fatal("no skew>2 crossover found")
	}
	// Beta must shrink with size and stay in (0, 1).
	for i, b := range res.Beta {
		if b <= 0 || b >= 1 {
			t.Fatalf("beta[%d] = %v out of (0,1)", i, b)
		}
	}
	if res.Beta[len(res.Beta)-1] >= res.Beta[0] {
		t.Fatal("beta did not shrink with array size")
	}
	// Delivered voltage is lower at the top of the column.
	for i := range res.VTop {
		if res.VTop[i] >= res.VBottom[i] {
			t.Fatalf("size %d: V_top %.3f >= V_bottom %.3f",
				res.RowsList[i], res.VTop[i], res.VBottom[i])
		}
	}
	if !strings.Contains(res.Table(), "beta") {
		t.Fatal("table rendering broken")
	}
}

func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep")
	}
	res, err := Fig4(context.Background(), Quick, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Gammas)
	if len(res.TrainRate) != n || len(res.TestClean) != n || len(res.TestWithVar) != n {
		t.Fatal("series length wrong")
	}
	// Training rate must not increase as gamma grows (tighter constraint).
	if res.TrainRate[n-1] > res.TrainRate[0]+0.02 {
		t.Fatalf("training rate grew with gamma: %.3f -> %.3f",
			res.TrainRate[0], res.TrainRate[n-1])
	}
	// At gamma = 0, variation must cost test rate.
	if res.TestWithVar[0] >= res.TestClean[0] {
		t.Fatalf("variation did not hurt at gamma=0: %.3f vs %.3f",
			res.TestWithVar[0], res.TestClean[0])
	}
	// The with-variation peak should beat the gamma = 0 point (VAT helps).
	if res.BestTestRate <= res.TestWithVar[0] {
		t.Fatalf("no interior improvement: best %.3f at gamma=%.2f vs %.3f at 0",
			res.BestTestRate, res.BestGamma, res.TestWithVar[0])
	}
	if !strings.Contains(res.Table(), "gamma") {
		t.Fatal("table rendering broken")
	}
}

// TestFig4InteriorOptimumMultiSeed asserts the Fig. 4 claim as a
// majority over seeds rather than one draw: the with-variation optimum
// gamma is interior (neither 0 nor the largest gamma swept) and beats
// gamma = 0, on at least 7 of 9 seeds.
func TestFig4InteriorOptimumMultiSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep at nine seeds")
	}
	const seeds, need = 9, 7
	held := 0
	for seed := uint64(1); seed <= seeds; seed++ {
		res, err := Fig4(context.Background(), Quick, seed)
		if err != nil {
			t.Fatal(err)
		}
		last := res.Gammas[len(res.Gammas)-1]
		interior := res.BestGamma != res.Gammas[0] && res.BestGamma != last
		if interior && res.BestTestRate > res.TestWithVar[0] {
			held++
		} else {
			t.Logf("seed %d: best %.3f at gamma=%.2f vs %.3f at gamma=0",
				seed, res.BestTestRate, res.BestGamma, res.TestWithVar[0])
		}
	}
	if held < need {
		t.Fatalf("interior optimum beating gamma=0 on %d of %d seeds, want at least %d", held, seeds, need)
	}
}

// TestTable1CollapseAt784MultiSeed asserts Table 1's headline at the
// paper's 784 rows as a majority over seeds: Vortex with IR-drop beats
// CLD with IR-drop, and CLD without IR-drop beats CLD with it, on at
// least 7 of 9 seeds of the Quick protocol.
func TestTable1CollapseAt784MultiSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep at nine seeds")
	}
	const seeds, need = 9, 7
	held := 0
	for seed := uint64(1); seed <= seeds; seed++ {
		res, err := table1(context.Background(), Quick, seed, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		cld, vortex, noIR := res.CLDIRTest[0], res.VortexIRTest[0], res.CLDNoIRTest[0]
		if vortex > cld && noIR > cld {
			held++
		}
		t.Logf("seed %d at %d rows: CLD w/ IR %.3f, Vortex w/ IR %.3f, CLD w/o IR %.3f",
			seed, res.Sizes[0], cld, vortex, noIR)
	}
	if held < need {
		t.Fatalf("collapse at 784 rows held on %d of %d seeds, want at least %d", held, seeds, need)
	}
}

// TestFig7AMPClaimsMultiSeed asserts both Fig. 7 claims at Default
// scale on seeds 1-9: the best test rate over the gamma sweep after AMP
// beats the best before it, and the gamma of the best rate after AMP is
// not above the gamma before it. Both held on all nine seeds when the
// test was written: the best rate rose by 2.4-6.5 points, and gamma
// fell on seeds 1, 6, 7 and 9 and stayed on the other five.
func TestFig7AMPClaimsMultiSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("Default-scale AMP sweep at nine seeds")
	}
	for seed := uint64(1); seed <= 9; seed++ {
		res, err := Fig7(context.Background(), Default, seed)
		if err != nil {
			t.Fatal(err)
		}
		before, after := slices.Max(res.TestBeforeAMP), slices.Max(res.TestAfterAMP)
		t.Logf("seed %d: best %.4f at gamma %.2f before AMP, %.4f at gamma %.2f after",
			seed, before, res.BestGammaBefore, after, res.BestGammaAfter)
		if !(after > before) {
			t.Errorf("seed %d: best test rate after AMP %.4f, not above %.4f before", seed, after, before)
		}
		if !(res.BestGammaAfter <= res.BestGammaBefore) {
			t.Errorf("seed %d: best gamma after AMP %.2f, above %.2f before", seed, res.BestGammaAfter, res.BestGammaBefore)
		}
	}
}

// TestFig9VortexBeatsBaselinesMultiSeed asserts Fig. 9's headline at
// Quick scale (sigma 0.8) on seeds 1-9: Vortex without redundancy beats
// OLD on every seed, and beats CLD on every seed and by at least five
// points on at least seven. When the test was written Vortex beat OLD
// by 5.3-24.3 points and CLD by 6.3-22.0 points on seven seeds, but by
// only 1.3 (seed 4) and 2.3 (seed 5) points on the other two.
func TestFig9VortexBeatsBaselinesMultiSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("Quick-scale redundancy sweep at nine seeds")
	}
	const seeds, margin, need = 9, 0.05, 7
	wide := 0
	for seed := uint64(1); seed <= seeds; seed++ {
		res, err := Fig9(context.Background(), Quick, seed)
		if err != nil {
			t.Fatal(err)
		}
		vortex, old, cld := res.Vortex[0][0], res.OLD[0], res.CLD[0]
		t.Logf("seed %d at sigma %.1f: Vortex %.4f, OLD %.4f (%+.1f points), CLD %.4f (%+.1f points)",
			seed, res.Sigmas[0], vortex, old, 100*(vortex-old), cld, 100*(vortex-cld))
		if !(vortex > old) {
			t.Errorf("seed %d: Vortex %.4f does not beat OLD %.4f", seed, vortex, old)
		}
		if !(vortex > cld) {
			t.Errorf("seed %d: Vortex %.4f does not beat CLD %.4f", seed, vortex, cld)
		}
		if vortex-cld >= margin {
			wide++
		} else {
			t.Logf("seed %d: Vortex beats CLD by under %.0f points", seed, 100*margin)
		}
	}
	if wide < need {
		t.Fatalf("Vortex beat CLD by %.0f points or more on %d of %d seeds, want at least %d", 100*margin, wide, seeds, need)
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep")
	}
	res, err := Fig7(context.Background(), Quick, 5)
	if err != nil {
		t.Fatal(err)
	}
	// AMP must improve the mean test rate across the gamma grid.
	var before, after float64
	for i := range res.Gammas {
		before += res.TestBeforeAMP[i]
		after += res.TestAfterAMP[i]
	}
	if after <= before {
		t.Fatalf("AMP did not improve mean test rate: %.3f vs %.3f",
			after/float64(len(res.Gammas)), before/float64(len(res.Gammas)))
	}
	// The post-AMP optimum should not need a larger penalty than the
	// pre-AMP optimum (paper: optimal gamma drops after AMP).
	if res.BestGammaAfter > res.BestGammaBefore {
		t.Logf("note: best gamma after AMP %.2f > before %.2f (noise at quick scale)",
			res.BestGammaAfter, res.BestGammaBefore)
	}
	if !strings.Contains(res.Table(), "AMP") {
		t.Fatal("table rendering broken")
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep")
	}
	res, err := Fig8(context.Background(), Quick, 7)
	if err != nil {
		t.Fatal(err)
	}
	for si := range res.Sigmas {
		rates := res.Rate[si]
		// 4-bit must be clearly below the best achievable.
		best := 0.0
		for _, v := range rates {
			if v > best {
				best = v
			}
		}
		if rates[0] >= best-0.005 {
			t.Logf("note: sigma=%.1f 4-bit already near best (%.3f vs %.3f)",
				res.Sigmas[si], rates[0], best)
		}
		// Saturation must happen at or before 8 bits.
		if res.Saturate[si] > 8 {
			t.Fatalf("no saturation found for sigma=%.1f", res.Sigmas[si])
		}
	}
	// Higher sigma must not test better at the same resolution.
	last := len(res.Bits) - 1
	if res.Rate[len(res.Sigmas)-1][last] > res.Rate[0][last]+0.03 {
		t.Fatalf("sigma=%.1f tests better than sigma=%.1f at %d bits",
			res.Sigmas[len(res.Sigmas)-1], res.Sigmas[0], res.Bits[last])
	}
	if !strings.Contains(res.Table(), "bit") {
		t.Fatal("table rendering broken")
	}
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep")
	}
	res, err := Fig9(context.Background(), Quick, 9)
	if err != nil {
		t.Fatal(err)
	}
	for si := range res.Sigmas {
		// Redundancy must not hurt.
		first := res.Vortex[si][0]
		lastIdx := len(res.Redundancies) - 1
		if res.Vortex[si][lastIdx] < first-0.03 {
			t.Fatalf("redundancy hurt at sigma=%.1f: %.3f -> %.3f",
				res.Sigmas[si], first, res.Vortex[si][lastIdx])
		}
		// Vortex without redundancy must beat OLD.
		if first <= res.OLD[si] {
			t.Fatalf("Vortex (%.3f) did not beat OLD (%.3f) at sigma=%.1f",
				first, res.OLD[si], res.Sigmas[si])
		}
	}
	if res.AvgGainOverOLD <= 0 {
		t.Fatalf("no average gain over OLD: %.3f", res.AvgGainOverOLD)
	}
	if !strings.Contains(res.Table(), "OLD") {
		t.Fatal("table rendering broken")
	}
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("training sweep")
	}
	res, err := Table1(context.Background(), Quick, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sizes) != 2 || res.Sizes[0] != 196 || res.Sizes[1] != 49 {
		t.Fatalf("quick Table1 sizes = %v", res.Sizes)
	}
	// The headline Table 1 contrast at the larger size: IR-drop costs CLD
	// dearly while Vortex (compensated open loop) holds up.
	if res.VortexIRTest[0] <= res.CLDIRTest[0] {
		t.Fatalf("Vortex w/ IR (%.3f) did not beat CLD w/ IR (%.3f) at %d rows",
			res.VortexIRTest[0], res.CLDIRTest[0], res.Sizes[0])
	}
	// CLD must recover when IR-drop is removed.
	if res.CLDNoIRTest[0] <= res.CLDIRTest[0] {
		t.Fatalf("removing IR-drop did not help CLD: %.3f vs %.3f",
			res.CLDNoIRTest[0], res.CLDIRTest[0])
	}
	if !strings.Contains(res.Table(), "Vortex") {
		t.Fatal("table rendering broken")
	}
}
