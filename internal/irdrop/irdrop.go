// Package irdrop models the interconnect parasitics of a memristor
// crossbar: the voltage degradation ("IR-drop") caused by the finite
// resistance of the metal wires (paper Sec. 3.2).
//
// Every cell is a fixed conductance between its row wire and its column
// wire, each wire is a chain of segments with resistance RWire, rows are
// driven from the left, and columns are terminated at the bottom. Two
// solves cover the two operating modes:
//
//   - Read: the full network, solved by block Gauss-Seidel whose blocks
//     are the individual wires. Each wire is a tridiagonal (ladder)
//     system solved directly with the Thomas algorithm, and the coupling
//     through the cells is relaxed. Because wire conductance is orders of
//     magnitude above cell conductance, the coupling is weak and the
//     iteration converges in a handful of sweeps. Read gives the column
//     currents for one input vector; EffectiveWeights gives the exact
//     linear map y = x*Weff with only Cols adjoint solves, using
//     reciprocity (driving the sense port and reading the input ports
//     gives the transpose of the transfer matrix). This is what makes
//     whole-test-set evaluation under IR-drop cheap.
//   - Program: the voltage delivered to a selected cell under the V/2
//     scheme. Every half-selected wire is pinned at V/2, so the selected
//     row and column are two ladders that meet only at the selected cell,
//     and Delivery solves them exactly without iteration. Feeding these
//     voltages into the nonlinear device model reproduces the beta
//     coefficient and D-matrix effects of paper Eq. (2).
package irdrop

import (
	"errors"
	"math"

	"vortex/internal/mat"
)

// ErrNoConvergence is returned when the block relaxation fails to reach
// the requested tolerance.
var ErrNoConvergence = errors.New("irdrop: network relaxation did not converge")

// maxSweeps caps the block Gauss-Seidel iteration; at paper scale it
// converges in fewer than 10 sweeps.
const maxSweeps = 500

// Network is a crossbar parasitic network: cell conductances G (Rows x
// Cols) and per-segment wire resistance RWire in ohms. RWire == 0 is the
// ideal (parasitic-free) crossbar.
type Network struct {
	Rows, Cols int
	RWire      float64
	G          *mat.Matrix

	// Tol is the read solve's voltage convergence tolerance [V]; zero
	// selects 1e-9.
	Tol float64

	// ws is the lazily created solver workspace (scratch slices, pooled
	// solution buffers, warm-start state, the Delivery cache).
	ws *workspace
}

// NewNetwork builds a network for the given conductance matrix.
func NewNetwork(g *mat.Matrix, rwire float64) *Network {
	if rwire < 0 {
		panic("irdrop: negative wire resistance")
	}
	return &Network{Rows: g.Rows, Cols: g.Cols, RWire: rwire, G: g}
}

func (nw *Network) tol() float64 {
	if nw.Tol > 0 {
		return nw.Tol
	}
	return 1e-9
}

// thomas solves a tridiagonal ladder system in place (see
// mat.SolveTridiagInPlace).
func thomas(a, b, c, d []float64) { mat.SolveTridiagInPlace(a, b, c, d) }

// Solution holds the solved node voltages of the network: U are the row
// wire nodes, W the column wire nodes, both Rows x Cols.
//
// Solutions returned by Solve alias the network's workspace buffers and
// stay valid only until the next Solve or SolveMasked on the same
// network; Clone one to retain it. SolveMasked returns caller-owned
// solutions.
type Solution struct {
	U, W *mat.Matrix
}

// Clone returns a deep copy of the solution, detached from any solver
// workspace.
func (s *Solution) Clone() *Solution {
	return &Solution{U: s.U.Clone(), W: s.W.Clone()}
}

// Solve computes all node voltages with rows driven at vrow (left end)
// and columns terminated at vcol (bottom end). Both drivers connect
// through one wire segment.
//
// Solve runs inside the network's reusable workspace: the returned
// Solution aliases pooled buffers (valid until the next Solve on this
// network), no per-call scratch is allocated, and when the workspace
// holds a previously converged solution the block Gauss-Seidel iteration
// warm-starts from it. The iteration's unique fixed point is the exact
// nodal solution regardless of the starting point, so warm starts change
// only the sweep count, never the answer (beyond the convergence
// tolerance); DESIGN.md §9 gives the argument.
func (nw *Network) Solve(vrow, vcol []float64) (*Solution, error) {
	if len(vrow) != nw.Rows || len(vcol) != nw.Cols {
		panic("irdrop: Solve dimension mismatch")
	}
	return nw.solve(vrow, vcol, nil)
}

// solve runs the block Gauss-Seidel iteration in the workspace. A nil
// mask drives every line; otherwise a line whose mask entry is false
// floats: its driver or termination segment is removed and a cold start
// holds it at 0 V.
func (nw *Network) solve(vrow, vcol []float64, mask *LineMask) (*Solution, error) {
	m, n := nw.Rows, nw.Cols
	ws := nw.workspace()
	u, w := ws.sol.U, ws.sol.W
	ws.sweeps = 0
	rowDriven := func(i int) bool { return mask == nil || mask.Rows[i] }
	colDriven := func(j int) bool { return mask == nil || mask.Cols[j] }
	if nw.RWire == 0 || !ws.warm {
		// Ideal wires, or a cold start: row nodes at the driver voltage,
		// column nodes at the termination voltage.
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				ui, wj := 0.0, 0.0
				if rowDriven(i) {
					ui = vrow[i]
				}
				if colDriven(j) {
					wj = vcol[j]
				}
				u.Set(i, j, ui)
				w.Set(i, j, wj)
			}
		}
	}
	if nw.RWire == 0 {
		ws.warm = false // nothing iterative to warm-start
		return &ws.sol, nil
	}
	gw := 1 / nw.RWire
	a, b, c, d := ws.a, ws.b, ws.c, ws.d

	tol := nw.tol()
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		maxDelta := 0.0
		// Row ladders: unknown u[i][*] with loads g to known w[i][*].
		for i := 0; i < m; i++ {
			grow := nw.G.Row(i)
			urow := u.Row(i)
			wrow := w.Row(i)
			driven := rowDriven(i)
			for j := 0; j < n; j++ {
				g := grow[j]
				diag := g
				rhs := g * wrow[j]
				if j == 0 && driven {
					diag += gw // segment to the driver
					rhs += gw * vrow[i]
				}
				if j > 0 {
					diag += gw
					a[j] = -gw
				}
				if j < n-1 {
					diag += gw
					c[j] = -gw
				}
				if diag == 0 {
					diag = 1e-30 // isolated floating node; hold at zero
				}
				b[j] = diag
				d[j] = rhs
			}
			thomas(a[:n], b[:n], c[:n], d[:n])
			for j := 0; j < n; j++ {
				if dv := math.Abs(d[j] - urow[j]); dv > maxDelta {
					maxDelta = dv
				}
				urow[j] = d[j]
			}
		}
		// Column ladders: unknown w[*][j] with loads g to known u[*][j].
		for j := 0; j < n; j++ {
			driven := colDriven(j)
			for i := 0; i < m; i++ {
				g := nw.G.At(i, j)
				diag := g
				rhs := g * u.At(i, j)
				if i == m-1 && driven {
					diag += gw // segment to the termination
					rhs += gw * vcol[j]
				}
				if i > 0 {
					diag += gw
					a[i] = -gw
				}
				if i < m-1 {
					diag += gw
					c[i] = -gw
				}
				if diag == 0 {
					diag = 1e-30
				}
				b[i] = diag
				d[i] = rhs
			}
			thomas(a[:m], b[:m], c[:m], d[:m])
			for i := 0; i < m; i++ {
				if dv := math.Abs(d[i] - w.At(i, j)); dv > maxDelta {
					maxDelta = dv
				}
				w.Set(i, j, d[i])
			}
		}
		if maxDelta < tol {
			ws.sweeps = sweep
			ws.warm = true
			return &ws.sol, nil
		}
	}
	ws.warm = false
	return nil, ErrNoConvergence
}

// ColumnCurrentsInto writes the current flowing from each column wire
// into its termination (the sensed output currents) into dst (length
// Cols).
func (nw *Network) ColumnCurrentsInto(dst []float64, sol *Solution, vcol []float64) {
	n := nw.Cols
	if len(dst) != n {
		panic("irdrop: ColumnCurrentsInto dst length mismatch")
	}
	if nw.RWire == 0 {
		// Sum of cell currents directly.
		for j := 0; j < n; j++ {
			s := 0.0
			for i := 0; i < nw.Rows; i++ {
				s += nw.G.At(i, j) * (sol.U.At(i, j) - vcol[j])
			}
			dst[j] = s
		}
		return
	}
	gw := 1 / nw.RWire
	for j := 0; j < n; j++ {
		dst[j] = gw * (sol.W.At(nw.Rows-1, j) - vcol[j])
	}
}

// Read returns the sensed column currents for input voltages vin with all
// columns at virtual ground.
func (nw *Network) Read(vin []float64) ([]float64, error) {
	out := make([]float64, nw.Cols)
	if err := nw.ReadInto(out, vin); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto computes the sensed column currents for input voltages vin
// into dst (length Cols). It is allocation-free in steady state: the
// solve runs in the network's workspace and warm-starts from the
// previous solution when one is available.
func (nw *Network) ReadInto(dst, vin []float64) error {
	// ws.vcol is kept all-zero between calls — the virtual-ground column
	// termination.
	ws := nw.workspace()
	sol, err := nw.Solve(vin, ws.vcol)
	if err != nil {
		return err
	}
	nw.ColumnCurrentsInto(dst, sol, ws.vcol)
	return nil
}

// EffectiveWeights returns the matrix Weff with y = x * Weff exactly
// describing the parasitic crossbar read (x: row drive voltages, y:
// sensed column currents). It performs Cols adjoint solves: by network
// reciprocity, driving the termination of column j at 1 V with every
// other port at 0 V yields column j of Weff as the current drawn from
// each row driver.
func (nw *Network) EffectiveWeights() (*mat.Matrix, error) {
	m, n := nw.Rows, nw.Cols
	if nw.RWire == 0 {
		return nw.G.Clone(), nil
	}
	gw := 1 / nw.RWire
	weff := mat.NewMatrix(m, n)
	// vzero is the all-zero row drive; vcol is borrowed from the
	// workspace and restored to all-zero before every return, because
	// ReadInto relies on it staying zeroed.
	ws := nw.workspace()
	vrow, vcol := ws.vzero, ws.vcol
	for j := 0; j < n; j++ {
		vcol[j] = 1
		sol, err := nw.Solve(vrow, vcol)
		vcol[j] = 0
		if err != nil {
			return nil, err
		}
		for i := 0; i < m; i++ {
			// Current into the network at row port i equals
			// gw*(0 - u[i][0]); reciprocity gives Weff[i][j] = gw*u[i][0].
			weff.Set(i, j, gw*sol.U.At(i, 0))
		}
	}
	return weff, nil
}

// Delivery solves the V/2 programming network exactly. Selecting cell
// (a, b) at full bias v puts v on row a's driver and grounds column b's
// termination, while every other line is held at v/2. The selected row
// and column are then two ladders that meet only at the selected cell,
// and the network is linear in v, so the delivered voltage is v·k(a, b).
//
// A Delivery works at unit bias. The first time it touches a row or a
// column it solves that line's ladder with every cell loaded to 1/2 V,
// giving the line's node voltages and the diagonal of its inverse nodal
// matrix. Every later cell on the line reuses that solve, and the
// selected cell's two node voltages follow from a 2x2 elimination. The
// solves describe the conductances the network had when the Delivery
// started; start a new one (see Network.Delivery) after they change.
type Delivery struct {
	nw *Network

	// Per row (Rows x Cols) and per column (Cols x Rows, each counted
	// from its grounded bottom end): how far the unit-bias node voltages
	// sit from 1/2 V (rows above, columns below), and the inverse's
	// diagonal.
	rowX, rowInv, colX, colInv []float64
	rowDone, colDone           []bool

	b []float64 // ladder scratch
}

// Delivery starts a delivered-voltage solve against the network's
// current conductances. It lives in the network's workspace: starting
// one discards the previous one's line solves and, after the first,
// allocates nothing.
func (nw *Network) Delivery() *Delivery {
	d := &nw.workspace().del
	d.nw = nw
	if nw.RWire > 0 && d.rowX == nil {
		m, n := nw.Rows, nw.Cols
		d.rowX, d.rowInv = make([]float64, m*n), make([]float64, m*n)
		d.colX, d.colInv = make([]float64, m*n), make([]float64, m*n)
		d.rowDone, d.colDone = make([]bool, m), make([]bool, n)
		d.b = make([]float64, max(m, n))
	}
	clear(d.rowDone)
	clear(d.colDone)
	return d
}

// Voltage returns the voltage delivered across cell (a, b) at full bias
// v. With RWire == 0 it is v.
func (d *Delivery) Voltage(a, b int, v float64) float64 {
	nw := d.nw
	m, n := nw.Rows, nw.Cols
	if a < 0 || a >= m || b < 0 || b >= n {
		panic("irdrop: delivered-voltage cell out of range")
	}
	if nw.RWire == 0 {
		return v
	}
	gw := 1 / nw.RWire
	if !d.rowDone[a] {
		ladder(nw.G.Data, a*n, 1, gw, d.rowX[a*n:(a+1)*n], d.rowInv[a*n:(a+1)*n], d.b)
		d.rowDone[a] = true
	}
	if !d.colDone[b] {
		ladder(nw.G.Data, (m-1)*n+b, -n, gw, d.colX[b*m:(b+1)*m], d.colInv[b*m:(b+1)*m], d.b)
		d.colDone[b] = true
	}
	// The ladders load the selected cell to 1/2 V like the others. Its
	// row node really sits x from 1/2 V and its column node y, so the
	// cell injects g·y into the row and g·x into the column:
	// x = x0 + g·R·y and y = y0 + g·C·x, with R and C the inverses'
	// diagonal entries at the cell.
	r, c := a*n+b, b*m+m-1-a // the cell's node on its row and on its column
	g := nw.G.Data[r]
	x0, y0 := d.rowX[r], -d.colX[c] // the grounded column sits below 1/2 V
	gr, gc := g*d.rowInv[r], g*d.colInv[c]
	x := (x0 + gr*y0) / (1 - gr*gc)
	y := y0 + gc*x
	return v * (x - y)
}

// ladder solves one selected line of the V/2 network at unit bias,
// measured from 1/2 V. The line's k = len(x) nodes are one wire segment
// gw apart, node t loads cell g[base+t*stride] to 1/2 V, and node 0
// reaches the driver, 1/2 V away, through one more segment.
//
// Eliminating from the far end leaves b[t], the conductance node t sees
// through its cell and everything beyond it, so each node divides its
// predecessor's voltage by gw/(gw + b[t]). Eliminating from the driver's
// end leaves left, what node t sees back towards the driver, so the
// inverse nodal matrix's diagonal entry is 1/(b[t] + left). That is the
// identity (T⁻¹)ᵢᵢ = 1/(fᵢ + hᵢ − dᵢ) for the pivots fᵢ, hᵢ of the two
// directions, summed as conductances so that no step cancels.
func ladder(g []float64, base, stride int, gw float64, x, inv, b []float64) {
	k := len(x)
	b[k-1] = g[base+(k-1)*stride]
	for t := k - 2; t >= 0; t-- {
		b[t] = g[base+t*stride] + gw*b[t+1]/(gw+b[t+1])
	}
	xprev, left := 0.5, gw // the driver
	for t := 0; t < k; t++ {
		x[t] = xprev * gw / (gw + b[t])
		inv[t] = 1 / (b[t] + left)
		f := g[base+t*stride] + left
		left = gw * f / (gw + f)
		xprev = x[t]
	}
}

// ProgramVoltage returns the voltage delivered across the selected cell
// (row a, col b) at full bias v under the V/2 scheme (see Delivery). It
// starts a fresh Delivery, so each call solves one row and one column;
// to program many cells of unchanged conductances, reuse one Delivery.
// The error is always nil.
func (nw *Network) ProgramVoltage(a, b int, v float64) (float64, error) {
	return nw.Delivery().Voltage(a, b, v), nil
}

// DeliveredColumn returns the delivered programming voltage for every
// cell of column b at full bias v.
func (nw *Network) DeliveredColumn(b int, v float64) []float64 {
	d := nw.Delivery()
	out := make([]float64, nw.Rows)
	for i := range out {
		out[i] = d.Voltage(i, b, v)
	}
	return out
}

// RateFn maps a delivered voltage magnitude to a switching rate; it is
// satisfied by device.SwitchModel.Rate.
type RateFn func(v float64) float64

// DFactors returns the paper's D-matrix diagonal for column b: the ratio
// of the achieved switching rate at each row's delivered voltage to the
// nominal rate at full bias v (Eq. 2). Values are in (0, 1]; smaller
// means more degradation.
func (nw *Network) DFactors(b int, v float64, rate RateFn) []float64 {
	dv := nw.DeliveredColumn(b, v)
	nominal := rate(v)
	out := make([]float64, len(dv))
	for i, vi := range dv {
		out[i] = rate(vi) / nominal
	}
	return out
}

// DSkew returns max(d)/min(d) of the D factors for column b — the paper's
// d_11/d_nn skewness metric, which exceeds 2 for all-LRS columns longer
// than ~128 cells.
func (nw *Network) DSkew(b int, v float64, rate RateFn) float64 {
	d := nw.DFactors(b, v, rate)
	lo, hi := d[0], d[0]
	for _, x := range d[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if lo == 0 {
		return math.Inf(1)
	}
	return hi / lo
}

// Beta returns the paper's horizontal degradation coefficient for column
// b: the mean D factor over the column, representing the scalar shrink of
// the effective learning step in Eq. (2).
func (nw *Network) Beta(b int, v float64, rate RateFn) float64 {
	s := 0.0
	for _, x := range nw.DFactors(b, v, rate) {
		s += x
	}
	return s / float64(nw.Rows)
}
