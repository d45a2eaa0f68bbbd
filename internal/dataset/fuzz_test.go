package dataset

import (
	"fmt"
	"testing"

	"vortex/internal/rng"
)

// FuzzDecimatedRender renders balanced sets straight at a reduced
// resolution, over image sizes, every factor that divides them and
// noise settings, and checks them bit for bit against the full render
// followed by Undersample with Decimate, together with the source's next
// draw.
func FuzzDecimatedRender(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(2), uint8(18), uint8(1), uint8(1))
	f.Add(uint64(7), uint8(1), uint8(3), uint8(0), uint8(2), uint8(2))
	f.Add(uint64(42), uint8(2), uint8(5), uint8(255), uint8(0), uint8(0))
	f.Add(uint64(99), uint8(3), uint8(1), uint8(40), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, sizeSel, factorSel, noise, flipSel, perClassSel uint8) {
		cfg := DefaultConfig()
		cfg.Size = []int{28, 16, 12, 8}[sizeSel%4]
		var divisors []int
		for d := 1; d <= cfg.Size; d++ {
			if cfg.Size%d == 0 {
				divisors = append(divisors, d)
			}
		}
		factor := divisors[int(factorSel)%len(divisors)]
		cfg.NoiseStd = 0.3 * float64(noise) / 255
		cfg.FlipProb = []float64{0, 0.002, 0.5}[flipSel%3]
		perClass := 1 + int(perClassSel%3)

		fullSrc, decSrc := rng.New(seed), rng.New(seed)
		full, err := GenerateBalanced(cfg, perClass, fullSrc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Undersample(full, factor, Decimate)
		if err != nil {
			t.Fatal(err)
		}
		got, err := generateBalanced(cfg, perClass, factor, decSrc)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, fmt.Sprintf("size %d factor %d", cfg.Size, factor), got, want)
		if g, w := decSrc.Uint64(), fullSrc.Uint64(); g != w {
			t.Fatalf("size %d factor %d: next draw %#x, want %#x", cfg.Size, factor, g, w)
		}
	})
}
