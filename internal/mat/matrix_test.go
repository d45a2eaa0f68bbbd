package mat

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"vortex/internal/rng"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("not zeroed")
		}
	}
}

func TestAtSetAdd(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("Set/At mismatch")
	}
	m.Add(1, 2, 2.5)
	if m.At(1, 2) != 7.5 {
		t.Fatal("Add failed")
	}
}

func TestIndexPanics(t *testing.T) {
	m := NewMatrix(2, 2)
	for _, f := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Row(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestFromRowsAndT(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatal("transpose element mismatch")
			}
		}
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentityMul(t *testing.T) {
	src := rng.New(1)
	a := NewMatrix(4, 4)
	for i := range a.Data {
		a.Data[i] = src.Norm()
	}
	p := a.Mul(Identity(4))
	q := Identity(4).Mul(a)
	for i := range a.Data {
		if math.Abs(p.Data[i]-a.Data[i]) > 1e-12 || math.Abs(q.Data[i]-a.Data[i]) > 1e-12 {
			t.Fatal("identity multiplication changed matrix")
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	for i := range c.Data {
		if c.Data[i] != want.Data[i] {
			t.Fatalf("product = %v", c.Data)
		}
	}
}

func TestMulVecVecMul(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	y := m.MulVec([]float64{1, 1}) // row vector times matrix
	if y[0] != 5 || y[1] != 7 || y[2] != 9 {
		t.Fatalf("MulVec = %v", y)
	}
	z := m.VecMul([]float64{1, 1, 1})
	if z[0] != 6 || z[1] != 15 {
		t.Fatalf("VecMul = %v", z)
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		r := 1 + src.Intn(10)
		c := 1 + src.Intn(10)
		m := NewMatrix(r, c)
		for i := range m.Data {
			m.Data[i] = src.Norm()
		}
		x := make([]float64, r)
		for i := range x {
			x[i] = src.Norm()
		}
		y := m.MulVec(x)
		// Same thing via x as 1-by-r matrix.
		xm := FromRows([][]float64{x})
		ym := xm.Mul(m)
		for j := 0; j < c; j++ {
			if math.Abs(y[j]-ym.At(0, j)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowColViews(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(1)
	r[0] = 99 // Row is a view
	if m.At(1, 0) != 99 {
		t.Fatal("Row is not a view")
	}
	m.SetCol(0, []float64{7, 8})
	if m.At(0, 0) != 7 || m.At(1, 0) != 8 {
		t.Fatal("SetCol failed")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

// The AMP correctness property: permuting weight rows together with the
// matching inputs leaves the product x*W unchanged.
func TestPermutationInvarianceOfVMM(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(20)
		m := 1 + src.Intn(5)
		w := NewMatrix(n, m)
		for i := range w.Data {
			w.Data[i] = src.Norm()
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = src.Float64()
		}
		// Row i of pw and element i of px are row and element perm[i].
		perm := src.Perm(n)
		pw, px := NewMatrix(n, m), make([]float64, n)
		for i, p := range perm {
			copy(pw.Row(i), w.Row(p))
			px[i] = x[p]
		}
		y1 := w.MulVec(x)
		y2 := pw.MulVec(px)
		for j := range y1 {
			if math.Abs(y1[j]-y2[j]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormsAndString(t *testing.T) {
	m := FromRows([][]float64{{3, -4}})
	if m.MaxAbs() != 4 {
		t.Fatal("MaxAbs")
	}
	if math.Abs(m.FrobeniusNorm()-5) > 1e-12 {
		t.Fatal("FrobeniusNorm")
	}
	if s := m.String(); !strings.Contains(s, "1x2") {
		t.Fatalf("String = %q", s)
	}
	big := NewMatrix(20, 20)
	if s := big.String(); !strings.Contains(s, "frob") {
		t.Fatalf("big String = %q", s)
	}
}

func TestFillAndEmptyMatrix(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Fill(3)
	for _, v := range m.Data {
		if v != 3 {
			t.Fatal("Fill failed")
		}
	}
	e := NewMatrix(0, 0)
	if e.MaxAbs() != 0 || e.FrobeniusNorm() != 0 {
		t.Fatal("empty matrix norms should be 0")
	}
}
