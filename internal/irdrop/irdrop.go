// Package irdrop models the interconnect parasitics of a memristor
// crossbar: the voltage degradation ("IR-drop") caused by the finite
// resistance of the metal wires (paper Sec. 3.2).
//
// The crossbar is a linear resistive network during read: every cell is a
// fixed conductance between its row wire and its column wire, each wire is
// a chain of segments with resistance RWire, rows are driven from the
// left, and columns are terminated (sensed at virtual ground) at the
// bottom. The package solves this network exactly with a block
// Gauss-Seidel iteration whose blocks are the individual wires — each wire
// is a tridiagonal (ladder) system solved directly with the Thomas
// algorithm, and the coupling through the cells is relaxed. Because wire
// conductance is orders of magnitude above cell conductance, the coupling
// is weak and the iteration converges in a handful of sweeps.
//
// Three consumers:
//
//   - Read: column currents for one input vector.
//   - EffectiveWeights: the exact linear map y = x*Weff of the parasitic
//     network, recovered with only Cols adjoint solves using reciprocity
//     (the network is reciprocal, so driving the sense port and reading
//     the input ports gives the transpose of the transfer matrix). This
//     is what makes whole-test-set evaluation under IR-drop cheap.
//   - ProgramVoltage: the degraded voltage actually delivered to a
//     selected cell under the V/2 programming scheme, computed with a
//     two-ladder model of the selected row and column (all half-selected
//     wires pinned at V/2, the standard analysis). Feeding these voltages
//     into the nonlinear device model reproduces the beta coefficient and
//     D-matrix effects of paper Eq. (2).
package irdrop

import (
	"errors"
	"math"

	"vortex/internal/mat"
)

// ErrNoConvergence is returned when the block relaxation fails to reach
// the requested tolerance.
var ErrNoConvergence = errors.New("irdrop: network relaxation did not converge")

// Network is a crossbar parasitic network: cell conductances G (Rows x
// Cols) and per-segment wire resistance RWire in ohms. RWire == 0 is the
// ideal (parasitic-free) crossbar.
type Network struct {
	Rows, Cols int
	RWire      float64
	G          *mat.Matrix

	// Solver controls; zero values select sensible defaults.
	Tol      float64 // voltage convergence tolerance [V]; default 1e-9
	MaxSweep int     // maximum block sweeps; default 500

	// ws is the lazily created solver workspace (scratch slices, pooled
	// solution buffers, warm-start state); see Workspace.
	ws *Workspace
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

func (nw *Network) maxSweep() int {
	if nw.MaxSweep > 0 {
		return nw.MaxSweep
	}
	return 500
}

// thomas solves a tridiagonal ladder system in place (see
// mat.SolveTridiagInPlace).
func thomas(a, b, c, d []float64) { mat.SolveTridiagInPlace(a, b, c, d) }

// Solution holds the solved node voltages of the network: U are the row
// wire nodes, W the column wire nodes, both Rows x Cols.
//
// Solutions returned by Solve alias the network's workspace buffers and
// stay valid only until the next Solve on the same network; Clone one to
// retain it. SolveMasked returns caller-owned solutions.
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
	m, n := nw.Rows, nw.Cols
	if len(vrow) != m || len(vcol) != n {
		panic("irdrop: Solve dimension mismatch")
	}
	ws := nw.Workspace()
	u, w := ws.sol.U, ws.sol.W
	ws.sweeps = 0
	if nw.RWire == 0 {
		// Ideal wires: row nodes at the driver voltage, column nodes at
		// the termination voltage.
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				u.Set(i, j, vrow[i])
				w.Set(i, j, vcol[j])
			}
		}
		ws.warm = false // nothing iterative to warm-start
		return &ws.sol, nil
	}
	gw := 1 / nw.RWire
	if !ws.warm {
		// Cold start: initialize at the driven values.
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				u.Set(i, j, vrow[i])
				w.Set(i, j, vcol[j])
			}
		}
	}
	a, b, c, d := ws.a, ws.b, ws.c, ws.d

	tol := nw.tol()
	for sweep := 1; sweep <= nw.maxSweep(); sweep++ {
		maxDelta := 0.0
		// Row ladders: unknown u[i][*] with loads g to known w[i][*].
		for i := 0; i < m; i++ {
			grow := nw.G.Row(i)
			urow := u.Row(i)
			wrow := w.Row(i)
			for j := 0; j < n; j++ {
				g := grow[j]
				diag := g
				rhs := g * wrow[j]
				if j == 0 {
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
			for i := 0; i < m; i++ {
				g := nw.G.At(i, j)
				diag := g
				rhs := g * u.At(i, j)
				if i == m-1 {
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
	ws := nw.Workspace()
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
	ws := nw.Workspace()
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

// ProgramVoltage returns the voltage actually delivered across the
// selected cell (row a, col b) when programming with full bias v under
// the V/2 scheme. Half-selected wires are pinned at v/2 (their drivers
// hold them there); the selected row and column ladders are solved
// self-consistently. With RWire == 0 the delivered voltage is v.
func (nw *Network) ProgramVoltage(a, b int, v float64) (float64, error) {
	m, n := nw.Rows, nw.Cols
	if a < 0 || a >= m || b < 0 || b >= n {
		panic("irdrop: ProgramVoltage cell out of range")
	}
	if nw.RWire == 0 {
		return v, nil
	}
	gw := 1 / nw.RWire
	half := v / 2
	// Unknowns: u[0..n-1] along the selected row, w[0..m-1] along the
	// selected column. Off-line wires are pinned at half bias. The
	// ladders and Thomas scratch come from the workspace (the a..d
	// scratch is shared with Solve; the pooled Solution — and with it
	// any warm-start state — is untouched).
	ws := nw.Workspace()
	u, w := ws.pu, ws.pw
	for j := range u {
		u[j] = v
	}
	// Column starts at a linear guess from half bias to ground.
	for i := range w {
		w[i] = half * float64(m-1-i) / float64(m)
	}
	va, vb, vc, vd := ws.a, ws.b, ws.c, ws.d

	tol := nw.tol()
	for sweep := 0; sweep < nw.maxSweep(); sweep++ {
		maxDelta := 0.0
		// Selected row ladder: loads to column voltages (half for
		// half-selected columns, w[a] for the selected column).
		grow := nw.G.Row(a)
		for j := 0; j < n; j++ {
			g := grow[j]
			other := half
			if j == b {
				other = w[a]
			}
			diag := g
			rhs := g * other
			if j == 0 {
				diag += gw
				rhs += gw * v
			}
			if j > 0 {
				diag += gw
				va[j] = -gw
			}
			if j < n-1 {
				diag += gw
				vc[j] = -gw
			}
			vb[j] = diag
			vd[j] = rhs
		}
		thomas(va[:n], vb[:n], vc[:n], vd[:n])
		for j := 0; j < n; j++ {
			if dv := math.Abs(vd[j] - u[j]); dv > maxDelta {
				maxDelta = dv
			}
			u[j] = vd[j]
		}
		// Selected column ladder: loads to row voltages (half for
		// half-selected rows, u[b] for the selected row), grounded at
		// the bottom.
		for i := 0; i < m; i++ {
			g := nw.G.At(i, b)
			other := half
			if i == a {
				other = u[b]
			}
			diag := g
			rhs := g * other
			if i == m-1 {
				diag += gw // to ground (0 V)
			}
			if i > 0 {
				diag += gw
				va[i] = -gw
			}
			if i < m-1 {
				diag += gw
				vc[i] = -gw
			}
			vb[i] = diag
			vd[i] = rhs
		}
		thomas(va[:m], vb[:m], vc[:m], vd[:m])
		for i := 0; i < m; i++ {
			if dv := math.Abs(vd[i] - w[i]); dv > maxDelta {
				maxDelta = dv
			}
			w[i] = vd[i]
		}
		if maxDelta < tol {
			return u[b] - w[a], nil
		}
	}
	return 0, ErrNoConvergence
}

// DeliveredColumn returns the delivered programming voltage for every
// cell of column b at full bias v.
func (nw *Network) DeliveredColumn(b int, v float64) ([]float64, error) {
	out := make([]float64, nw.Rows)
	for i := range out {
		dv, err := nw.ProgramVoltage(i, b, v)
		if err != nil {
			return nil, err
		}
		out[i] = dv
	}
	return out, nil
}

// RateFn maps a delivered voltage magnitude to a switching rate; it is
// satisfied by device.SwitchModel.Rate.
type RateFn func(v float64) float64

// DFactors returns the paper's D-matrix diagonal for column b: the ratio
// of the achieved switching rate at each row's delivered voltage to the
// nominal rate at full bias v (Eq. 2). Values are in (0, 1]; smaller
// means more degradation.
func (nw *Network) DFactors(b int, v float64, rate RateFn) ([]float64, error) {
	dv, err := nw.DeliveredColumn(b, v)
	if err != nil {
		return nil, err
	}
	nominal := rate(v)
	out := make([]float64, len(dv))
	for i, vi := range dv {
		out[i] = rate(vi) / nominal
	}
	return out, nil
}

// DSkew returns max(d)/min(d) of the D factors for column b — the paper's
// d_11/d_nn skewness metric, which exceeds 2 for all-LRS columns longer
// than ~128 cells.
func (nw *Network) DSkew(b int, v float64, rate RateFn) (float64, error) {
	d, err := nw.DFactors(b, v, rate)
	if err != nil {
		return 0, err
	}
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
		return math.Inf(1), nil
	}
	return hi / lo, nil
}

// Beta returns the paper's horizontal degradation coefficient for column
// b: the mean D factor over the column, representing the scalar shrink of
// the effective learning step in Eq. (2).
func (nw *Network) Beta(b int, v float64, rate RateFn) (float64, error) {
	d, err := nw.DFactors(b, v, rate)
	if err != nil {
		return 0, err
	}
	s := 0.0
	for _, x := range d {
		s += x
	}
	return s / float64(len(d)), nil
}
