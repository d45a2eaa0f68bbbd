// Package mapping implements AMP, the adaptive mapping technique of paper
// Sec. 4.2: after pre-testing the crossbar to learn each device's actual
// variation factor, the logical weight rows are assigned to physical
// crossbar rows so that sensitive weights (large |input x weight|
// products, Eq. 11) land on well-behaved devices, minimizing the summed
// weighted variation (SWV, Eq. 12) via the greedy Algorithm 1. Redundant
// rows and stuck-at defects fall out of the same mechanism: a defective
// row simply has enormous SWV against every weight row and is left to the
// redundancy pool.
package mapping

import (
	"errors"
	"math"
	"sort"

	"vortex/internal/mat"
)

// RowSensitivity returns the variation sensitivity of each logical weight
// row: s_p = sum_j |xmean_p * w_pj| (Eq. 11 aggregated over the output
// columns and averaged over the workload). xmean is the per-input mean
// drive level; pass nil for a uniform workload.
func RowSensitivity(w *mat.Matrix, xmean []float64) []float64 {
	if xmean != nil && len(xmean) != w.Rows {
		panic("mapping: xmean length mismatch")
	}
	s := make([]float64, w.Rows)
	for p := 0; p < w.Rows; p++ {
		row := w.Row(p)
		sum := 0.0
		for _, v := range row {
			sum += math.Abs(v)
		}
		if xmean != nil {
			sum *= xmean[p]
		}
		s[p] = sum
	}
	return s
}

// PairSWV returns the summed weighted variation of placing weight row
// wRow on physical row q of the positive/negative array pair (Eq. 12):
// sum_j |w_j| * |1 - f_qj|, where f is the measured variation-factor
// matrix e^theta from pre-testing. Positive weights land on the
// positive array's device at that position, negative weights on the
// negative array's, so each weight is scored against the factor of the
// cell that will actually carry it. Zero weights rest at the off state
// on both arrays and contribute nothing.
func PairSWV(wRow []float64, fpos, fneg *mat.Matrix, q int) float64 {
	if len(wRow) != fpos.Cols || len(wRow) != fneg.Cols {
		panic("mapping: PairSWV column mismatch")
	}
	fp := fpos.Row(q)
	fn := fneg.Row(q)
	s := 0.0
	for j, w := range wRow {
		switch {
		case w > 0:
			s += w * math.Abs(1-fp[j])
		case w < 0:
			s += -w * math.Abs(1-fn[j])
		}
	}
	return s
}

// Greedy runs Algorithm 1: process logical weight rows in decreasing
// sensitivity order, assigning each to the free physical row with the
// smallest pair-SWV. factors matrices are physRows x cols from
// pre-testing both arrays; physRows may exceed w.Rows when redundant rows
// exist. It returns rowMap with rowMap[p] = assigned physical row.
func Greedy(w *mat.Matrix, fpos, fneg *mat.Matrix, xmean []float64) ([]int, error) {
	if fpos.Rows != fneg.Rows || fpos.Cols != fneg.Cols {
		return nil, errors.New("mapping: factor matrices disagree")
	}
	if fpos.Cols != w.Cols {
		return nil, errors.New("mapping: factor/weight column mismatch")
	}
	physRows := fpos.Rows
	if physRows < w.Rows {
		return nil, errors.New("mapping: fewer physical rows than weight rows")
	}
	sens := RowSensitivity(w, xmean)
	order := make([]int, w.Rows)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return sens[order[a]] > sens[order[b]] })

	used := make([]bool, physRows)
	rowMap := make([]int, w.Rows)
	for _, p := range order {
		wRow := w.Row(p)
		best := -1
		bestSWV := math.Inf(1)
		for q := 0; q < physRows; q++ {
			if used[q] {
				continue
			}
			if s := PairSWV(wRow, fpos, fneg, q); s < bestSWV {
				bestSWV = s
				best = q
			}
		}
		used[best] = true
		rowMap[p] = best
	}
	return rowMap, nil
}

// TotalSWV scores a complete mapping: the sum of pair-SWV over all
// assigned rows. Lower is better; Greedy should never score worse than
// the identity mapping on average.
func TotalSWV(w *mat.Matrix, fpos, fneg *mat.Matrix, rowMap []int) float64 {
	if len(rowMap) != w.Rows {
		panic("mapping: rowMap length mismatch")
	}
	s := 0.0
	for p := 0; p < w.Rows; p++ {
		s += PairSWV(w.Row(p), fpos, fneg, rowMap[p])
	}
	return s
}

// EffectiveSigma estimates the lognormal sigma of the variation actually
// experienced by the mapped weights: the |w|-weighted standard deviation
// of ln(f) over the cells each weight lands on. This is the quantity the
// integrated Vortex flow feeds back into VAT after AMP (paper Sec. 4.3) —
// a good mapping lowers it below the raw fabrication sigma.
func EffectiveSigma(w *mat.Matrix, fpos, fneg *mat.Matrix, rowMap []int) float64 {
	if len(rowMap) != w.Rows {
		panic("mapping: rowMap length mismatch")
	}
	var wsum, mean float64
	type cell struct{ weight, logf float64 }
	cells := make([]cell, 0, len(w.Data))
	for p := 0; p < w.Rows; p++ {
		q := rowMap[p]
		row := w.Row(p)
		for j, v := range row {
			if v == 0 {
				continue
			}
			var f float64
			if v > 0 {
				f = fpos.At(q, j)
			} else {
				f = fneg.At(q, j)
			}
			if f <= 0 {
				continue // defective reading; excluded from the fit
			}
			weight := math.Abs(v)
			lf := math.Log(f)
			cells = append(cells, cell{weight, lf})
			wsum += weight
			mean += weight * lf
		}
	}
	if wsum == 0 {
		return 0
	}
	mean /= wsum
	var varsum float64
	for _, c := range cells {
		d := c.logf - mean
		varsum += c.weight * d * d
	}
	return math.Sqrt(varsum / wsum)
}
