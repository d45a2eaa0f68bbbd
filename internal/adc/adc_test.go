package adc

import (
	"math"
	"testing"
	"testing/quick"

	"vortex/internal/rng"
)

func TestNewConverterValidation(t *testing.T) {
	if _, err := NewConverter(0, 0, 1); err == nil {
		t.Fatal("expected error for 0 bits")
	}
	if _, err := NewConverter(25, 0, 1); err == nil {
		t.Fatal("expected error for 25 bits")
	}
	if _, err := NewConverter(8, 1, 1); err == nil {
		t.Fatal("expected error for empty range")
	}
	c, err := NewConverter(6, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Bits() != 6 {
		t.Fatal("Bits accessor")
	}
	if lo, hi := c.Range(); lo != 0 || hi != 1 {
		t.Fatal("Range accessor")
	}
}

func TestLSB(t *testing.T) {
	c, _ := NewConverter(3, 0, 7)
	if c.LSB() != 1 {
		t.Fatalf("LSB = %v, want 1", c.LSB())
	}
}

func TestCodeSaturation(t *testing.T) {
	c, _ := NewConverter(4, 0, 1)
	if c.Code(-5) != 0 {
		t.Fatal("low saturation")
	}
	if c.Code(5) != 15 {
		t.Fatal("high saturation")
	}
	if c.Code(math.NaN()) != 0 {
		t.Fatal("NaN handling")
	}
}

func TestQuantizeIdempotent(t *testing.T) {
	// Quantizing a quantized value must be a fixed point.
	c, _ := NewConverter(6, 0, 2)
	f := func(seed uint64) bool {
		x := rng.New(seed).Float64() * 3 // may exceed range on purpose
		q := c.Quantize(x)
		return c.Quantize(q) == q
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeMonotone(t *testing.T) {
	c, _ := NewConverter(5, -1, 1)
	prev := math.Inf(-1)
	for x := -1.5; x <= 1.5; x += 0.001 {
		q := c.Quantize(x)
		if q < prev {
			t.Fatalf("quantizer not monotone at %v", x)
		}
		prev = q
	}
}

func TestQuantizeErrorBound(t *testing.T) {
	c, _ := NewConverter(8, 0, 1)
	half := c.LSB() / 2
	for x := 0.0; x <= 1; x += 0.0007 {
		if e := math.Abs(c.Quantize(x) - x); e > half+1e-12 {
			t.Fatalf("quantization error %v exceeds LSB/2 at %v", e, x)
		}
	}
}

func TestValueCodeRoundTrip(t *testing.T) {
	c, _ := NewConverter(6, 0, 1)
	for code := 0; code < 64; code++ {
		if back := c.Code(c.Value(code)); back != code {
			t.Fatalf("code %d -> value -> code %d", code, back)
		}
	}
	// Out-of-range codes clamp.
	if c.Value(-3) != c.Value(0) || c.Value(99) != c.Value(63) {
		t.Fatal("Value clamping")
	}
}

func TestSenseChainIdeal(t *testing.T) {
	s := Ideal()
	if s.Sense(0.123456) != 0.123456 {
		t.Fatal("ideal chain must be transparent")
	}
}

func TestSenseChainQuantizes(t *testing.T) {
	c, _ := NewConverter(4, 0, 1)
	s := NewSenseChain(c, 1, nil)
	x := 0.123456
	if s.Sense(x) != c.Quantize(x) {
		t.Fatal("sense chain did not quantize")
	}
}

func TestSenseChainGainAndNoise(t *testing.T) {
	s := NewSenseChain(nil, 2, nil)
	if s.Sense(0.5) != 1.0 {
		t.Fatal("gain not applied")
	}
	// Zero gain defaults to 1.
	s2 := NewSenseChain(nil, 0, nil)
	if s2.Sense(0.5) != 0.5 {
		t.Fatal("zero gain should default to unity")
	}
	src := rng.New(3)
	noisy := NewSenseChain(nil, 1, func() float64 { return src.Normal(0, 0.01) })
	var diff float64
	for i := 0; i < 1000; i++ {
		diff += math.Abs(noisy.Sense(0.5) - 0.5)
	}
	if diff == 0 {
		t.Fatal("noise source never fired")
	}
}

func TestResolutionOrdering(t *testing.T) {
	// Higher resolution must never have larger worst-case error.
	src := rng.New(7)
	c4, _ := NewConverter(4, 0, 1)
	c8, _ := NewConverter(8, 0, 1)
	var worst4, worst8 float64
	for i := 0; i < 10000; i++ {
		x := src.Float64()
		if e := math.Abs(c4.Quantize(x) - x); e > worst4 {
			worst4 = e
		}
		if e := math.Abs(c8.Quantize(x) - x); e > worst8 {
			worst8 = e
		}
	}
	if worst8 >= worst4 {
		t.Fatalf("8-bit worst error %v not better than 4-bit %v", worst8, worst4)
	}
}

func BenchmarkQuantize(b *testing.B) {
	c, _ := NewConverter(6, 0, 1)
	for i := 0; i < b.N; i++ {
		_ = c.Quantize(0.73)
	}
}
