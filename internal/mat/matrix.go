// Package mat is a small dense linear-algebra substrate for the Vortex
// simulator. Go has no standard matrix library, so we implement exactly
// the operations the crossbar models and training algorithms need:
// vectors, row-major dense matrices, BLAS-1/2 style kernels, norms,
// permutations, and the linear-system solvers used by the IR-drop nodal
// analysis (Gaussian elimination with partial pivoting, Gauss-Seidel/SOR,
// and conjugate gradient).
//
// Dimension mismatches are programmer errors and panic, mirroring the
// behaviour of slice indexing in the standard library.
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero-filled r-by-c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("mat: negative dimension")
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("mat: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

// Add adds v to element (i, j).
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic("mat: row index out of range")
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// SetCol assigns column j from v.
func (m *Matrix) SetCol(j int, v []float64) {
	if len(v) != m.Rows {
		panic("mat: SetCol length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+j] = v[i]
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// MulVec computes y = x * M where x is a 1-by-Rows row vector, returning a
// 1-by-Cols vector. This is the crossbar read orientation: input voltages
// on the rows, summed currents on the columns.
func (m *Matrix) MulVec(x []float64) []float64 {
	y := make([]float64, m.Cols)
	m.MulVecTo(y, x)
	return y
}

// MulVecTo computes y = x * M into dst (length Cols), overwriting it.
// This is the allocation-free kernel behind MulVec, and the reference
// the fused block kernels must match bit for bit.
func (m *Matrix) MulVecTo(dst, x []float64) {
	if len(x) != m.Rows {
		panic("mat: MulVecTo dimension mismatch")
	}
	if len(dst) != m.Cols {
		panic("mat: MulVecTo dst length mismatch")
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			dst[j] += xi * w
		}
	}
}

// VecMul computes y = M * x with x of length Cols, returning length Rows.
func (m *Matrix) VecMul(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("mat: VecMul dimension mismatch")
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, w := range row {
			s += w * x[j]
		}
		y[i] = s
	}
	return y
}

// Mul returns the matrix product m*other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic("mat: Mul dimension mismatch")
	}
	out := NewMatrix(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.Data[i*m.Cols+k]
			if a == 0 {
				continue
			}
			orow := other.Data[k*other.Cols : (k+1)*other.Cols]
			dst := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, b := range orow {
				dst[j] += a * b
			}
		}
	}
	return out
}

// MaxAbs returns the largest absolute element value (0 for empty).
func (m *Matrix) MaxAbs() float64 {
	best := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > best {
			best = a
		}
	}
	return best
}

// FrobeniusNorm returns sqrt(sum of squared elements).
func (m *Matrix) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// String renders the matrix for debugging; large matrices are abridged.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix %dx%d", m.Rows, m.Cols)
	if m.Rows*m.Cols <= 64 {
		for i := 0; i < m.Rows; i++ {
			b.WriteString("\n  ")
			for j := 0; j < m.Cols; j++ {
				fmt.Fprintf(&b, "% .4g ", m.At(i, j))
			}
		}
	} else {
		fmt.Fprintf(&b, " (|max|=%.4g, frob=%.4g)", m.MaxAbs(), m.FrobeniusNorm())
	}
	return b.String()
}
