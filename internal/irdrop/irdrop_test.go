package irdrop

import (
	"math"
	"testing"

	"vortex/internal/device"
	"vortex/internal/mat"
	"vortex/internal/rng"
)

// nodal assembles a dense nodal system for the test oracles.
type nodal struct {
	a *mat.Matrix
	b []float64
}

func newNodal(nodes int) *nodal {
	return &nodal{a: mat.NewMatrix(nodes, nodes), b: make([]float64, nodes)}
}

// cond connects nodes p and q through conductance c.
func (s *nodal) cond(p, q int, c float64) {
	s.a.Add(p, p, c)
	s.a.Add(q, q, c)
	s.a.Add(p, q, -c)
	s.a.Add(q, p, -c)
}

// source connects node p through conductance c to a fixed voltage v.
func (s *nodal) source(p int, c, v float64) {
	s.a.Add(p, p, c)
	s.b[p] += c * v
}

func (s *nodal) solve(t testing.TB) []float64 {
	t.Helper()
	x, err := mat.SolveDense(s.a, s.b)
	if err != nil {
		t.Fatalf("dense reference solve: %v", err)
	}
	return x
}

// denseReference solves the full 2*m*n nodal system with dense Gaussian
// elimination — an independent oracle for the block-ladder solver.
func denseReference(t *testing.T, g *mat.Matrix, rwire float64, vrow, vcol []float64) []float64 {
	t.Helper()
	m, n := g.Rows, g.Cols
	gw := 1 / rwire
	uIdx := func(i, j int) int { return i*n + j }
	wIdx := func(i, j int) int { return m*n + i*n + j }
	s := newNodal(2 * m * n)
	for i := 0; i < m; i++ {
		s.source(uIdx(i, 0), gw, vrow[i])
		for j := 0; j < n; j++ {
			if j+1 < n {
				s.cond(uIdx(i, j), uIdx(i, j+1), gw)
			}
			s.cond(uIdx(i, j), wIdx(i, j), g.At(i, j))
			if i+1 < m {
				s.cond(wIdx(i, j), wIdx(i+1, j), gw)
			}
		}
	}
	for j := 0; j < n; j++ {
		s.source(wIdx(m-1, j), gw, vcol[j])
	}
	x := s.solve(t)
	out := make([]float64, n)
	for j := 0; j < n; j++ {
		out[j] = gw * (x[wIdx(m-1, j)] - vcol[j])
	}
	return out
}

// denseProgramReference solves the (n + m)-node V/2 programming network
// of cell (a, b) with dense Gaussian elimination: the selected row driven
// at v through one segment, the selected column grounded through one
// segment, the selected cell between them, and every other cell on the
// two lines loaded to v/2. It returns the voltage across the selected
// cell — an independent oracle for Delivery.
func denseProgramReference(t testing.TB, g *mat.Matrix, rwire float64, a, b int, v float64) float64 {
	t.Helper()
	m, n := g.Rows, g.Cols
	gw := 1 / rwire
	wIdx := func(i int) int { return n + i } // row nodes are 0..n-1
	s := newNodal(n + m)
	s.source(0, gw, v)
	for j := 0; j < n; j++ {
		if j+1 < n {
			s.cond(j, j+1, gw)
		}
		if j != b {
			s.source(j, g.At(a, j), v/2)
		}
	}
	s.source(wIdx(m-1), gw, 0)
	for i := 0; i < m; i++ {
		if i+1 < m {
			s.cond(wIdx(i), wIdx(i+1), gw)
		}
		if i != a {
			s.source(wIdx(i), g.At(i, b), v/2)
		}
	}
	s.cond(b, wIdx(a), g.At(a, b))
	x := s.solve(t)
	return x[b] - x[wIdx(a)]
}

// programShapes are the geometries the delivered-voltage tests sweep:
// single cells and lines, small and square arrays, and the paper's
// 196- and 784-row columns.
var programShapes = []struct{ m, n int }{
	{1, 1}, {1, 4}, {3, 1}, {2, 3}, {16, 10}, {64, 64}, {196, 10}, {784, 10},
}

func randomConductances(seed uint64, m, n int) *mat.Matrix {
	src := rng.New(seed)
	g := mat.NewMatrix(m, n)
	for i := range g.Data {
		// Conductances between 1/Roff and 1/Ron.
		g.Data[i] = 1e-6 + src.Float64()*(1e-4-1e-6)
	}
	return g
}

func TestIdealReadMatchesVMM(t *testing.T) {
	g := randomConductances(1, 5, 3)
	nw := NewNetwork(g, 0)
	src := rng.New(2)
	v := make([]float64, 5)
	for i := range v {
		v[i] = src.Float64()
	}
	y, err := nw.Read(v)
	if err != nil {
		t.Fatal(err)
	}
	want := g.MulVec(v)
	for j := range want {
		if math.Abs(y[j]-want[j]) > 1e-15 {
			t.Fatalf("ideal read %v, want %v", y, want)
		}
	}
}

func TestReadMatchesDenseReference(t *testing.T) {
	for _, size := range []struct{ m, n int }{{3, 3}, {5, 2}, {2, 5}, {8, 4}} {
		g := randomConductances(uint64(size.m*100+size.n), size.m, size.n)
		rwire := 5.0
		src := rng.New(3)
		vrow := make([]float64, size.m)
		for i := range vrow {
			vrow[i] = src.Float64()
		}
		vcol := make([]float64, size.n)
		nw := NewNetwork(g, rwire)
		y, err := nw.Read(vrow)
		if err != nil {
			t.Fatal(err)
		}
		ref := denseReference(t, g, rwire, vrow, vcol)
		for j := range ref {
			if math.Abs(y[j]-ref[j]) > 1e-9*math.Abs(ref[j])+1e-15 {
				t.Fatalf("%dx%d: col %d current %v, reference %v",
					size.m, size.n, j, y[j], ref[j])
			}
		}
	}
}

func TestReadCurrentBelowIdeal(t *testing.T) {
	// IR-drop can only lose voltage: every column current must be at or
	// below the ideal (parasitic-free) value for non-negative inputs.
	g := randomConductances(7, 20, 6)
	vin := mat.Constant(20, 1.0)
	nw := NewNetwork(g, 2.5)
	y, err := nw.Read(vin)
	if err != nil {
		t.Fatal(err)
	}
	ideal := g.MulVec(vin)
	for j := range y {
		if y[j] > ideal[j] {
			t.Fatalf("col %d: parasitic current %v exceeds ideal %v", j, y[j], ideal[j])
		}
		if y[j] <= 0 {
			t.Fatalf("col %d: non-positive current %v", j, y[j])
		}
	}
}

func TestEffectiveWeightsMatchProbing(t *testing.T) {
	g := randomConductances(11, 7, 4)
	nw := NewNetwork(g, 3.0)
	weff, err := nw.EffectiveWeights()
	if err != nil {
		t.Fatal(err)
	}
	// Probe with unit vectors: row i of Weff must equal the read response.
	for i := 0; i < 7; i++ {
		e := make([]float64, 7)
		e[i] = 1
		y, err := nw.Read(e)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			if math.Abs(y[j]-weff.At(i, j)) > 1e-9*math.Abs(y[j])+1e-14 {
				t.Fatalf("Weff[%d][%d] = %v, probe %v", i, j, weff.At(i, j), y[j])
			}
		}
	}
}

func TestEffectiveWeightsLinearity(t *testing.T) {
	// y = x*Weff must hold for arbitrary x, not just unit vectors.
	g := randomConductances(13, 10, 5)
	nw := NewNetwork(g, 2.5)
	weff, err := nw.EffectiveWeights()
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(14)
	for trial := 0; trial < 5; trial++ {
		x := make([]float64, 10)
		for i := range x {
			x[i] = src.Float64()
		}
		y, err := nw.Read(x)
		if err != nil {
			t.Fatal(err)
		}
		want := weff.MulVec(x)
		for j := range y {
			if math.Abs(y[j]-want[j]) > 1e-9*math.Abs(want[j])+1e-13 {
				t.Fatalf("trial %d col %d: %v vs %v", trial, j, y[j], want[j])
			}
		}
	}
}

func TestEffectiveWeightsIdealIsG(t *testing.T) {
	g := randomConductances(15, 4, 4)
	nw := NewNetwork(g, 0)
	weff, err := nw.EffectiveWeights()
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		if weff.Data[i] != g.Data[i] {
			t.Fatal("ideal Weff must equal G")
		}
	}
	// And tiny wire resistance must approach G.
	nw2 := NewNetwork(g, 1e-6)
	weff2, err := nw2.EffectiveWeights()
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		if math.Abs(weff2.Data[i]-g.Data[i])/g.Data[i] > 1e-3 {
			t.Fatalf("Weff at tiny rwire deviates: %v vs %v", weff2.Data[i], g.Data[i])
		}
	}
}

func TestProgramVoltageIdeal(t *testing.T) {
	g := randomConductances(17, 6, 3)
	nw := NewNetwork(g, 0)
	v, err := nw.ProgramVoltage(2, 1, 2.9)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2.9 {
		t.Fatalf("ideal delivered = %v, want 2.9", v)
	}
}

// TestProgramVoltageMatchesDenseReference checks the exact two-ladder
// solve against dense elimination of the V/2 network on every cell.
// At 794 nodes one dense solve takes about 6 ms, so under -short the
// 784-row shape checks every 87th row, top and bottom included.
func TestProgramVoltageMatchesDenseReference(t *testing.T) {
	const v = 2.9
	for k, sh := range programShapes {
		g := randomConductances(uint64(200+k), sh.m, sh.n)
		nw := NewNetwork(g, 2.5)
		step := 1
		if testing.Short() && sh.m > 200 {
			step = 87
		}
		for a := 0; a < sh.m; a += step {
			for b := 0; b < sh.n; b++ {
				got, err := nw.ProgramVoltage(a, b, v)
				if err != nil {
					t.Fatal(err)
				}
				want := denseProgramReference(t, g, 2.5, a, b, v)
				if d := math.Abs(got - want); d > 1e-12 {
					t.Fatalf("%dx%d cell (%d,%d): delivered %.15g, dense %.15g (|diff| %.3g V)",
						sh.m, sh.n, a, b, got, want, d)
				}
			}
		}
	}
}

// TestDeliveryReuseMatchesFreshSolve checks that one Delivery reused
// over every cell, in an order that revisits rows and columns, returns
// exactly what a fresh per-cell ProgramVoltage returns.
func TestDeliveryReuseMatchesFreshSolve(t *testing.T) {
	for k, sh := range programShapes {
		g := randomConductances(uint64(300+k), sh.m, sh.n)
		nw := NewNetwork(g, 2.5)
		fresh := make([]float64, sh.m*sh.n)
		for c := range fresh {
			fresh[c], _ = nw.ProgramVoltage(c/sh.n, c%sh.n, 2.9) // the error is always nil
		}
		d := nw.Delivery()
		for b := sh.n - 1; b >= 0; b-- {
			for a := 0; a < sh.m; a++ {
				if got := d.Voltage(a, b, 2.9); got != fresh[a*sh.n+b] {
					t.Fatalf("%dx%d cell (%d,%d): reused %v, fresh %v", sh.m, sh.n, a, b, got, fresh[a*sh.n+b])
				}
			}
		}
	}
}

func TestProgramVoltageDegrades(t *testing.T) {
	// All-LRS worst case: delivered voltage must be strictly below full
	// bias and decrease toward the top of the column (longer ground path).
	m := 64
	g := mat.NewMatrix(m, 8)
	g.Fill(1.0 / device.RonNominal)
	nw := NewNetwork(g, 2.5)
	vTop, err := nw.ProgramVoltage(0, 4, 2.9)
	if err != nil {
		t.Fatal(err)
	}
	vBottom, err := nw.ProgramVoltage(m-1, 4, 2.9)
	if err != nil {
		t.Fatal(err)
	}
	if vTop >= 2.9 || vBottom >= 2.9 {
		t.Fatalf("delivered voltages not degraded: top %v bottom %v", vTop, vBottom)
	}
	if vTop >= vBottom {
		t.Fatalf("top cell (%v) should see more degradation than bottom cell (%v)", vTop, vBottom)
	}
	// Horizontal: right-most column sees more row-wire drop.
	vLeft, _ := nw.ProgramVoltage(m/2, 0, 2.9)
	vRight, _ := nw.ProgramVoltage(m/2, 7, 2.9)
	if vRight >= vLeft {
		t.Fatalf("right cell (%v) should see more degradation than left cell (%v)", vRight, vLeft)
	}
}

func TestDFactorsAndSkewGrowWithSize(t *testing.T) {
	model := device.DefaultSwitchModel()
	prev := 0.0
	for _, m := range []int{16, 64, 256} {
		g := mat.NewMatrix(m, 10)
		g.Fill(1.0 / device.RonNominal)
		nw := NewNetwork(g, 2.5)
		skew := nw.DSkew(5, model.Vprog, model.Rate)
		if skew <= prev {
			t.Fatalf("D skew not increasing with size: m=%d skew=%v prev=%v", m, skew, prev)
		}
		prev = skew
	}
	// Paper claim shape: worst-case all-LRS skew exceeds 2 for long
	// columns (n > 128 in the paper's parametrization).
	if prev < 2 {
		t.Fatalf("all-LRS skew at 256 rows = %v, want > 2", prev)
	}
}

func TestDFactorsBounded(t *testing.T) {
	model := device.DefaultSwitchModel()
	g := mat.NewMatrix(32, 4)
	g.Fill(1.0 / device.RonNominal)
	nw := NewNetwork(g, 2.5)
	d := nw.DFactors(2, model.Vprog, model.Rate)
	for i, x := range d {
		if x <= 0 || x > 1 {
			t.Fatalf("d[%d] = %v out of (0,1]", i, x)
		}
	}
	beta := nw.Beta(2, model.Vprog, model.Rate)
	if beta <= 0 || beta >= 1 {
		t.Fatalf("beta = %v out of (0,1)", beta)
	}
}

func TestHRSBackgroundMinimizesIRDrop(t *testing.T) {
	// AMP pre-testing keeps all other cells at HRS to minimize IR-drop;
	// delivered voltage must be much closer to full bias than the all-LRS
	// case.
	m := 64
	gHRS := mat.NewMatrix(m, 8)
	gHRS.Fill(1.0 / device.RoffNominal)
	gLRS := mat.NewMatrix(m, 8)
	gLRS.Fill(1.0 / device.RonNominal)
	vHRS, err := NewNetwork(gHRS, 2.5).ProgramVoltage(0, 4, 2.9)
	if err != nil {
		t.Fatal(err)
	}
	vLRS, err := NewNetwork(gLRS, 2.5).ProgramVoltage(0, 4, 2.9)
	if err != nil {
		t.Fatal(err)
	}
	if 2.9-vHRS > 0.05 {
		t.Fatalf("HRS background should almost eliminate IR-drop; delivered %v", vHRS)
	}
	if vLRS >= vHRS {
		t.Fatal("LRS background must degrade more than HRS background")
	}
}

func TestSolveDimensionPanics(t *testing.T) {
	nw := NewNetwork(mat.NewMatrix(2, 2), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	nw.Solve([]float64{1}, []float64{0, 0})
}

func TestNegativeRWirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNetwork(mat.NewMatrix(2, 2), -1)
}

func BenchmarkRead784x10(b *testing.B) {
	g := randomConductances(21, 784, 10)
	nw := NewNetwork(g, 2.5)
	vin := mat.Constant(784, 1.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.Read(vin); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEffectiveWeights784x10(b *testing.B) {
	g := randomConductances(22, 784, 10)
	nw := NewNetwork(g, 2.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.EffectiveWeights(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelivery784x10 times one fresh Delivery over all 7,840 cells:
// 784 row solves, 10 column solves and one 2x2 elimination per cell.
func BenchmarkDelivery784x10(b *testing.B) {
	g := randomConductances(23, 784, 10)
	nw := NewNetwork(g, 2.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := nw.Delivery()
		for a := 0; a < 784; a++ {
			for c := 0; c < 10; c++ {
				d.Voltage(a, c, 2.9)
			}
		}
	}
}

func BenchmarkProgramVoltage784x10(b *testing.B) {
	g := randomConductances(23, 784, 10)
	nw := NewNetwork(g, 2.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.ProgramVoltage(i%784, i%10, 2.9); err != nil {
			b.Fatal(err)
		}
	}
}
