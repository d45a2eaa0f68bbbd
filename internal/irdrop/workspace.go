package irdrop

import "vortex/internal/mat"

// workspace holds every buffer the solvers need for a fixed network
// geometry: the Thomas-algorithm scratch vectors shared by all ladder
// solves, the pooled Solution (node-voltage) matrices that Solve writes
// into, the warm-start state carried between solves, and the Delivery
// of the programming solve.
//
// A Network lazily creates one workspace on first use and keeps it for
// its lifetime, so repeated Solve/Read/EffectiveWeights calls on the
// same network are allocation-free in steady state. Callers that refresh
// the network's conductance matrix in place (xbar.Crossbar does,
// between programming passes) additionally get warm starts: the next
// Solve begins from the previous converged node voltages.
//
// A workspace belongs to one network at a time and is not safe for
// concurrent use, matching the xbar.Crossbar contract.
type workspace struct {
	rows, cols int

	// Thomas scratch for the larger of the two ladder lengths.
	a, b, c, d []float64

	// Pooled solution buffers; Solve returns a Solution aliasing these.
	sol Solution

	// warm marks sol as holding a previously converged solution, usable
	// as the next solve's starting point.
	warm bool

	// sweeps spent by the most recent solve (0 for ideal wires).
	sweeps int

	// del is the programming solve; Network.Delivery restarts it and
	// allocates its buffers on first use.
	del Delivery

	// Zero column-drive vector for Read, and a mutable column drive for
	// EffectiveWeights' adjoint solves (kept all-zero between calls).
	vzero []float64
	vcol  []float64
}

// newWorkspace returns a workspace sized for a rows x cols network.
func newWorkspace(rows, cols int) *workspace {
	k := max(rows, cols)
	return &workspace{
		rows:  rows,
		cols:  cols,
		a:     make([]float64, k),
		b:     make([]float64, k),
		c:     make([]float64, k),
		d:     make([]float64, k),
		sol:   Solution{U: mat.NewMatrix(rows, cols), W: mat.NewMatrix(rows, cols)},
		vzero: make([]float64, rows),
		vcol:  make([]float64, cols),
	}
}

// workspace returns the network's solver workspace, creating it on first
// use. The workspace — including its warm-start state — persists across
// Solve/Read/EffectiveWeights calls for the network's lifetime.
func (nw *Network) workspace() *workspace {
	if nw.ws == nil || nw.ws.rows != nw.Rows || nw.ws.cols != nw.Cols {
		nw.ws = newWorkspace(nw.Rows, nw.Cols)
	}
	return nw.ws
}

// Sweeps returns the number of block sweeps spent by the most recent
// Solve or SolveMasked on this network (0 before any solve and for ideal
// wires).
func (nw *Network) Sweeps() int {
	if nw.ws == nil {
		return 0
	}
	return nw.ws.sweeps
}
