// Command xbarprobe fabricates a memristor crossbar and prints its
// physical characteristics: the parametric-variation map, the delivered
// programming-voltage field under IR-drop, the D-matrix factors of a
// column, and the read-current error caused by the parasitics.
//
// Usage:
//
//	xbarprobe -rows 128 -cols 10 -sigma 0.4 -rwire 2.5 -defects 0.01
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"vortex/internal/device"
	"vortex/internal/irdrop"
	"vortex/internal/mat"
	"vortex/internal/rng"
	"vortex/internal/xbar"
)

func main() {
	var (
		rows    = flag.Int("rows", 64, "crossbar rows")
		cols    = flag.Int("cols", 10, "crossbar columns")
		sigma   = flag.Float64("sigma", 0.4, "lognormal variation sigma")
		rwire   = flag.Float64("rwire", 2.5, "wire resistance per segment [ohm]")
		defects = flag.Float64("defects", 0, "stuck-at defect rate")
		seed    = flag.Uint64("seed", 1, "fabrication seed")
		state   = flag.String("state", "lrs", "pre-set device state for probing: lrs, hrs or mid")
		sneak   = flag.Bool("sneak", false, "demonstrate sneak paths: single-cell reads under four line disciplines")
	)
	flag.Parse()

	if *sneak {
		sneakDemo(*rows, *cols, *rwire)
		return
	}

	cfg := xbar.Config{
		Rows:       *rows,
		Cols:       *cols,
		Model:      device.DefaultSwitchModel(),
		RWire:      *rwire,
		Sigma:      *sigma,
		DefectRate: *defects,
	}
	xb, err := xbar.New(cfg, rng.New(*seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var r float64
	switch *state {
	case "lrs":
		r = cfg.Model.Ron
	case "hrs":
		r = cfg.Model.Roff
	case "mid":
		r = math.Sqrt(cfg.Model.Ron * cfg.Model.Roff)
	default:
		fmt.Fprintf(os.Stderr, "unknown state %q\n", *state)
		os.Exit(2)
	}
	for i := 0; i < *rows; i++ {
		for j := 0; j < *cols; j++ {
			xb.Cell(i, j).SetState(cfg.Model, r)
		}
	}
	fmt.Printf("crossbar %dx%d, sigma=%.2f, rwire=%.1f ohm, devices at %.0f ohm\n\n",
		*rows, *cols, *sigma, *rwire, r)

	fmt.Println("## variation map (e^theta; rows sampled)")
	printHeat(xb, func(i, j int) float64 { return xb.Cell(i, j).VariationFactor() })

	defectsFound := 0
	for i := 0; i < *rows; i++ {
		for j := 0; j < *cols; j++ {
			if xb.Cell(i, j).Defect != device.DefectNone {
				defectsFound++
			}
		}
	}
	fmt.Printf("\ndefective cells: %d / %d\n\n", defectsFound, *rows**cols)

	if *rwire > 0 {
		nw := xb.Network()
		fmt.Println("## delivered programming voltage [V] (full bias", cfg.Model.Vprog, "V)")
		dv := mat.NewMatrix(*rows, *cols)
		for j := 0; j < *cols; j++ {
			dv.SetCol(j, nw.DeliveredColumn(j, cfg.Model.Vprog))
		}
		printHeat(xb, dv.At)
		fmt.Printf("\nworst delivered voltage: %.3f V (top-right corner effect)\n", matMin(dv))

		mid := *cols / 2
		d := nw.DFactors(mid, cfg.Model.Vprog, cfg.Model.Rate)
		skew := nw.DSkew(mid, cfg.Model.Vprog, cfg.Model.Rate)
		beta := nw.Beta(mid, cfg.Model.Vprog, cfg.Model.Rate)
		fmt.Printf("\n## column %d D factors: top %.4g ... bottom %.4g  (skew %.3g, beta %.3g)\n",
			mid, d[0], d[len(d)-1], skew, beta)

		weff, err := xb.EffectiveWeights()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		g := xb.Conductances()
		var worst float64
		for i := range g.Data {
			if e := math.Abs(weff.Data[i]-g.Data[i]) / g.Data[i]; e > worst {
				worst = e
			}
		}
		fmt.Printf("\n## read parasitics: worst per-cell effective-weight error %.1f%%\n", 100*worst)
	}
}

// printHeat renders a value field as an ASCII heat map, sampling rows if
// the crossbar is tall.
func printHeat(xb *xbar.Crossbar, at func(i, j int) float64) {
	const ramp = " .:-=+*#%@"
	rows, cols := xb.Rows(), xb.Cols()
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := at(i, j)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	step := 1
	if rows > 32 {
		step = rows / 32
	}
	for i := 0; i < rows; i += step {
		fmt.Printf("%4d |", i)
		for j := 0; j < cols; j++ {
			idx := int((at(i, j) - lo) / span * float64(len(ramp)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(ramp) {
				idx = len(ramp) - 1
			}
			fmt.Printf("%c", ramp[idx])
		}
		fmt.Println("|")
	}
	fmt.Printf("      range [%.4g, %.4g]\n", lo, hi)
}

func matMin(m *mat.Matrix) float64 {
	lo := math.Inf(1)
	for _, v := range m.Data {
		if v < lo {
			lo = v
		}
	}
	return lo
}

// sneakDemo measures one 100 kOhm cell under the four combinations of
// {LRS, HRS} background and {floating, driven} unselected lines — the
// quantified version of the paper's Sec. 4.2.1 pre-test protocol.
func sneakDemo(rows, cols int, rwire float64) {
	if rwire <= 0 {
		fmt.Fprintln(os.Stderr, "sneak analysis needs -rwire > 0")
		os.Exit(2)
	}
	const target = 100e3
	model := device.DefaultSwitchModel()
	ci, cj := rows/2, cols/2
	fmt.Printf("single-cell pre-test of a %.0f ohm cell at (%d,%d) in a %dx%d array (rwire %.1f ohm)\n\n",
		target, ci, cj, rows, cols, rwire)
	fmt.Printf("%-12s %-10s %-14s %-10s\n", "background", "lines", "apparent R", "error")
	for _, bg := range []struct {
		name string
		r    float64
	}{{"LRS", model.Ron}, {"HRS", model.Roff}} {
		for _, lines := range []struct {
			name     string
			floating bool
		}{{"floating", true}, {"driven", false}} {
			g := mat.NewMatrix(rows, cols)
			g.Fill(1 / bg.r)
			g.Set(ci, cj, 1/target)
			nw := irdrop.NewNetwork(g, rwire)
			var mask irdrop.LineMask
			if lines.floating {
				mask = irdrop.LineMask{Rows: make([]bool, rows), Cols: make([]bool, cols)}
			} else {
				mask = irdrop.AllDriven(rows, cols)
			}
			current, err := nw.ReadCellCurrent(ci, cj, 1.0, mask)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			apparent := 1.0 / current
			fmt.Printf("%-12s %-10s %-14.4g %+.1f%%\n",
				bg.name, lines.name, apparent, 100*(apparent-target)/target)
		}
	}
	fmt.Println("\nthe paper's protocol (HRS background, driven lines) is the accurate quadrant")
}
