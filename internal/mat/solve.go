package mat

import (
	"errors"
	"math"
)

// ErrSingular is returned when a direct solve encounters a (numerically)
// singular system.
var ErrSingular = errors.New("mat: singular matrix")

// SolveDense solves A x = b by Gaussian elimination with partial
// pivoting. A and b are not modified. Intended for small dense systems:
// the irdrop and tridiagonal tests use it as their dense oracle, while
// the crossbar nodal analysis itself relaxes the network ladder by
// ladder with SolveTridiagInPlace.
func SolveDense(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		panic("mat: SolveDense needs square A and matching b")
	}
	// Augmented working copy.
	m := a.Clone()
	x := CloneVec(b)
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best, piv = v, r
			}
		}
		if best < 1e-14 {
			return nil, ErrSingular
		}
		if piv != col {
			rp, rc := m.Row(piv), m.Row(col)
			for j := range rp {
				rp[j], rc[j] = rc[j], rp[j]
			}
			x[piv], x[col] = x[col], x[piv]
		}
		// Eliminate below.
		pivRow := m.Row(col)
		pv := pivRow[col]
		for r := col + 1; r < n; r++ {
			row := m.Row(r)
			f := row[col] / pv
			if f == 0 {
				continue
			}
			row[col] = 0
			for j := col + 1; j < n; j++ {
				row[j] -= f * pivRow[j]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for r := n - 1; r >= 0; r-- {
		row := m.Row(r)
		s := x[r]
		for j := r + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[r] = s / row[r]
	}
	return x, nil
}

// SolveTridiagInPlace solves a tridiagonal system with the Thomas
// algorithm. a is the sub-diagonal, b the diagonal, c the super-diagonal
// and d the right-hand side; all have length n (a[0] and c[n-1] are
// ignored). b and d are overwritten; the solution is left in d. The
// algorithm is stable for the diagonally dominant systems produced by
// resistive ladders; it does not pivot.
func SolveTridiagInPlace(a, b, c, d []float64) {
	n := len(b)
	if len(a) != n || len(c) != n || len(d) != n {
		panic("mat: SolveTridiagInPlace length mismatch")
	}
	if n == 0 {
		return
	}
	for i := 1; i < n; i++ {
		m := a[i] / b[i-1]
		b[i] -= m * c[i-1]
		d[i] -= m * d[i-1]
	}
	d[n-1] /= b[n-1]
	for i := n - 2; i >= 0; i-- {
		d[i] = (d[i] - c[i]*d[i+1]) / b[i]
	}
}
