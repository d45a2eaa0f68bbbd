// Package tile maps a logical weight matrix that exceeds the practical
// size of one crossbar onto a grid of bounded physical tiles whose
// per-tile column currents are sensed independently and summed digitally
// (the partial-sum organization of large crossbar accelerators).
//
// Tiling is the architectural counterpart of the paper's Sec. 3.2 / Table
// 1 finding: IR-drop grows with the wire length, so one 784-row column is
// much worse than four 196-row columns. The tradeoff is periphery — every
// tile needs its own sensing — and an extra quantization per partial sum.
// The tiling experiment quantifies exactly this knee.
package tile

import (
	"errors"

	"vortex/internal/dataset"
	"vortex/internal/mat"
	"vortex/internal/ncs"
	"vortex/internal/rng"
	"vortex/internal/xbar"
)

// Config describes a tiled array. Tile geometry bounds apply to the
// logical slice carried by each tile; the underlying crossbars add any
// configured redundancy on top.
type Config struct {
	MaxRows int // max logical inputs per tile; 0 = unbounded (single row band)
	MaxCols int // max logical outputs per tile; 0 = unbounded

	// Per-tile NCS parameters (see ncs.Config).
	Sigma      float64
	RWire      float64
	ADCBits    int // default 6; negative = ideal sensing
	Redundancy int // per-tile redundant rows
	Vread      float64
	WMax       float64
}

// Array is a tiled system: tiles[r][c] carries the logical weight block
// rows[r] x cols[c].
type Array struct {
	tiles    [][]*ncs.NCS
	rowSpan  []span // logical input range per tile row
	colSpan  []span // logical output range per tile column
	inputs   int
	outputs  int
	adcIdeal bool
}

type span struct{ lo, hi int } // half-open [lo, hi)

// split partitions n into bands of at most max (max <= 0 means one band).
func split(n, max int) []span {
	if max <= 0 || max >= n {
		return []span{{0, n}}
	}
	var out []span
	for lo := 0; lo < n; lo += max {
		hi := lo + max
		if hi > n {
			hi = n
		}
		out = append(out, span{lo, hi})
	}
	return out
}

// New fabricates a tiled array for an inputs x outputs logical layer.
func New(inputs, outputs int, cfg Config, src *rng.Source) (*Array, error) {
	if inputs <= 0 || outputs <= 0 {
		return nil, errors.New("tile: non-positive dimensions")
	}
	if src == nil {
		return nil, errors.New("tile: nil rng source")
	}
	a := &Array{
		rowSpan: split(inputs, cfg.MaxRows),
		colSpan: split(outputs, cfg.MaxCols),
		inputs:  inputs,
		outputs: outputs,
	}
	adcBits := cfg.ADCBits
	if adcBits == 0 {
		adcBits = 6
	} else if adcBits < 0 {
		adcBits = 0
		a.adcIdeal = true
	}
	a.tiles = make([][]*ncs.NCS, len(a.rowSpan))
	for r, rs := range a.rowSpan {
		a.tiles[r] = make([]*ncs.NCS, len(a.colSpan))
		for c, cs := range a.colSpan {
			ncfg := ncs.DefaultConfig(rs.hi-rs.lo, cs.hi-cs.lo)
			ncfg.Sigma = cfg.Sigma
			ncfg.RWire = cfg.RWire
			ncfg.ADCBits = adcBits
			ncfg.Redundancy = cfg.Redundancy
			ncfg.Vread = cfg.Vread
			ncfg.WMax = cfg.WMax
			t, err := ncs.New(ncfg, src.Split())
			if err != nil {
				return nil, err
			}
			a.tiles[r][c] = t
		}
	}
	return a, nil
}

// Tiles returns the grid dimensions (tile rows, tile columns).
func (a *Array) Tiles() (rows, cols int) { return len(a.rowSpan), len(a.colSpan) }

// ProgramWeights slices the logical weight matrix into blocks and
// programs every tile.
func (a *Array) ProgramWeights(w *mat.Matrix, opts xbar.ProgramOptions) error {
	if w.Rows != a.inputs || w.Cols != a.outputs {
		return errors.New("tile: weight matrix dimension mismatch")
	}
	for r, rs := range a.rowSpan {
		for c, cs := range a.colSpan {
			block := mat.NewMatrix(rs.hi-rs.lo, cs.hi-cs.lo)
			for i := rs.lo; i < rs.hi; i++ {
				copy(block.Row(i-rs.lo), w.Row(i)[cs.lo:cs.hi])
			}
			if err := a.tiles[r][c].ProgramWeights(block, opts); err != nil {
				return err
			}
		}
	}
	return nil
}

// Scores drives every tile with its input slice and sums the sensed
// partial scores digitally per logical output.
func (a *Array) Scores(x []float64) ([]float64, error) {
	if len(x) != a.inputs {
		return nil, errors.New("tile: input length mismatch")
	}
	out := make([]float64, a.outputs)
	for r, rs := range a.rowSpan {
		xs := x[rs.lo:rs.hi]
		for c, cs := range a.colSpan {
			part, err := a.tiles[r][c].Scores(xs)
			if err != nil {
				return nil, err
			}
			for j, v := range part {
				out[cs.lo+j] += v
			}
		}
	}
	return out, nil
}

// Classify returns the argmax class for an input.
func (a *Array) Classify(x []float64) (int, error) {
	s, err := a.Scores(x)
	if err != nil {
		return 0, err
	}
	return mat.ArgMax(s), nil
}

// Evaluate returns the classification rate over the set.
func (a *Array) Evaluate(set *dataset.Set) (float64, error) {
	if set.Len() == 0 {
		return 0, errors.New("tile: empty evaluation set")
	}
	correct := 0
	for _, s := range set.Samples {
		c, err := a.Classify(s.Pixels)
		if err != nil {
			return 0, err
		}
		if c == s.Label {
			correct++
		}
	}
	return float64(correct) / float64(set.Len()), nil
}

// SenseChannels returns the total number of independently sensed column
// channels — the periphery cost tiling pays (one ADC time-slot per tile
// column instead of per logical column).
func (a *Array) SenseChannels() int {
	total := 0
	for _, cs := range a.colSpan {
		total += (cs.hi - cs.lo) * len(a.rowSpan)
	}
	return total
}
