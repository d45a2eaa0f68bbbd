package irdrop

import "errors"

// Floating-line analysis: the classic sneak-path problem appears when
// unselected word/bit lines are left floating instead of being driven.
// A floating line settles wherever its cells pull it, so current can
// "sneak" through chains of half-selected cells and corrupt a single-cell
// measurement. The paper's pre-test protocol (Sec. 4.2.1) avoids this by
// keeping every other cell at HRS and all lines driven; SolveMasked
// quantifies exactly how much that discipline buys.

// LineMask marks which lines are actively driven; false = floating
// (high impedance). A floating row ignores its vrow entry; a floating
// column ignores its vcol entry.
type LineMask struct {
	Rows []bool
	Cols []bool
}

// AllDriven returns a mask with every line driven.
func AllDriven(rows, cols int) LineMask {
	m := LineMask{Rows: make([]bool, rows), Cols: make([]bool, cols)}
	for i := range m.Rows {
		m.Rows[i] = true
	}
	for j := range m.Cols {
		m.Cols[j] = true
	}
	return m
}

// SolveMasked computes node voltages like Solve, but lines whose mask
// entry is false are left floating: their driver/termination segment is
// removed and the line equilibrates through its cells alone.
//
// It runs Solve's iteration from a cold start and returns a caller-owned
// copy, since floating-line analyses hold several solutions side by
// side. A masked network is a different network, so the workspace is
// left cold: the next Solve does not warm-start from it.
func (nw *Network) SolveMasked(vrow, vcol []float64, mask LineMask) (*Solution, error) {
	m, n := nw.Rows, nw.Cols
	if len(vrow) != m || len(vcol) != n {
		panic("irdrop: SolveMasked dimension mismatch")
	}
	if len(mask.Rows) != m || len(mask.Cols) != n {
		panic("irdrop: mask dimension mismatch")
	}
	if nw.RWire == 0 {
		return nil, errors.New("irdrop: floating-line analysis needs RWire > 0 (ideal wires have no unique floating solution)")
	}
	ws := nw.workspace()
	ws.warm = false
	sol, err := nw.solve(vrow, vcol, &mask)
	ws.warm = false
	if err != nil {
		return nil, err
	}
	return sol.Clone(), nil
}

// ReadCellCurrent measures one cell the way a naive in-situ pre-test
// would: drive row i at vread, sense column j at virtual ground, and
// treat the other lines per the mask. The returned current includes
// whatever sneak contribution the floating lines admit; dividing vread by
// it gives the apparent cell resistance.
func (nw *Network) ReadCellCurrent(i, j int, vread float64, mask LineMask) (float64, error) {
	m, n := nw.Rows, nw.Cols
	if i < 0 || i >= m || j < 0 || j >= n {
		panic("irdrop: cell out of range")
	}
	vrow := make([]float64, m)
	vrow[i] = vread
	vcol := make([]float64, n)
	mask.Rows[i] = true // the selected lines are always driven
	mask.Cols[j] = true
	sol, err := nw.SolveMasked(vrow, vcol, mask)
	if err != nil {
		return 0, err
	}
	gw := 1 / nw.RWire
	return gw * (sol.W.At(m-1, j) - vcol[j]), nil
}
