package experiment

import (
	"context"
	"fmt"

	"vortex/internal/device"
	"vortex/internal/irdrop"
	"vortex/internal/mat"
)

// Fig3Result quantifies the IR-drop decomposition of paper Sec. 3.2 /
// Fig. 3: for all-LRS crossbars of growing column length, the horizontal
// degradation coefficient beta and the vertical D-matrix skew
// (d_max/d_min) of the middle column, plus the delivered-voltage range.
type Fig3Result struct {
	RowsList  []int
	Beta      []float64 // mean D factor (effective learning-rate shrink)
	DSkew     []float64 // max/min of the D diagonal — paper's d11/dnn
	VTop      []float64 // delivered programming voltage at the top cell [V]
	VBottom   []float64 // delivered programming voltage at the bottom cell [V]
	RWire     float64
	Crossover int // smallest size whose skew exceeds 2 (0 if none)
}

func (r *Fig3Result) cells() ([]string, [][]string) {
	rows := make([][]string, len(r.RowsList))
	for i, m := range r.RowsList {
		rows[i] = []string{
			intS(m), f3(r.Beta[i]), f3(r.DSkew[i]), f3(r.VTop[i]), f3(r.VBottom[i]),
		}
	}
	return []string{"rows", "beta", "d_max/d_min", "V_top", "V_bottom"}, rows
}

// Table renders the result as an aligned text table.
func (r *Fig3Result) Table() string { return textTable(r.cells()) }

// CSV renders the result as comma-separated values for plotting.
func (r *Fig3Result) CSV() string { return csvTable(r.cells()) }

// Annotation implements Result.
func (r *Fig3Result) Annotation() string {
	return fmt.Sprintf("skew > 2 crossover at %d rows (paper: ~128)\n", r.Crossover)
}

func init() {
	register(Runner{
		Name:        "fig3",
		Description: "Fig. 3 — IR-drop decomposition: beta and D-matrix skew vs crossbar size",
		Run: func(ctx context.Context, s Scale, seed uint64) (Result, error) {
			return Fig3(ctx, s, seed)
		},
	})
}

// Fig3 sweeps the crossbar size and extracts beta and the D-matrix skew
// in the worst case (all memristors at LRS), as in the paper's analysis.
// The scale only selects how many sizes are swept.
func Fig3(ctx context.Context, scale Scale, _ uint64) (*Fig3Result, error) {
	var sizes []int
	switch scale {
	case Quick:
		sizes = []int{16, 64, 192}
	case Full:
		sizes = []int{16, 32, 64, 96, 128, 192, 256, 384, 512, 784}
	default:
		sizes = []int{16, 32, 64, 128, 256, 512}
	}
	model := device.DefaultSwitchModel()
	res := &Fig3Result{RowsList: sizes, RWire: 2.5}
	for _, m := range sizes {
		if err := ctx.Err(); err != nil {
			if partialSweep(ctx) {
				break // render the sizes already swept; the rest pad to NA
			}
			return nil, err
		}
		g := mat.NewMatrix(m, 10)
		g.Fill(1 / model.Ron)
		nw := irdrop.NewNetwork(g, res.RWire)
		col := 5 // middle column
		skew := nw.DSkew(col, model.Vprog, model.Rate)
		dv := nw.DeliveredColumn(col, model.Vprog)
		res.Beta = append(res.Beta, nw.Beta(col, model.Vprog, model.Rate))
		res.DSkew = append(res.DSkew, skew)
		res.VTop = append(res.VTop, dv[0])
		res.VBottom = append(res.VBottom, dv[m-1])
		if res.Crossover == 0 && skew > 2 {
			res.Crossover = m
		}
	}
	res.Beta = padNaN(res.Beta, len(sizes))
	res.DSkew = padNaN(res.DSkew, len(sizes))
	res.VTop = padNaN(res.VTop, len(sizes))
	res.VBottom = padNaN(res.VBottom, len(sizes))
	return res, nil
}
