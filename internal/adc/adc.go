// Package adc models the sensing side of the crossbar's mixed-signal
// periphery: the analog-to-digital converter that senses column currents
// and the combined sense chain. The input drivers, which clamp each input
// to [0, 1] and scale it to a row voltage, are part of the ncs read path.
//
// The ADC is the only observation channel available to the close-loop
// (CLD) training scheme and to AMP pre-testing, so its resolution directly
// bounds what those procedures can know about the analog state (paper
// Sec. 3.3 and Sec. 5.2). The open-loop schemes (OLD, VAT) never consult
// it during training.
package adc

import (
	"errors"
	"math"
)

// Converter is an ideal n-bit quantizer over a fixed full-scale range.
type Converter struct {
	bits     int
	min, max float64
	levels   int
}

// NewConverter returns an n-bit converter over [min, max]. Inputs outside
// the range saturate to the nearest rail.
func NewConverter(bits int, min, max float64) (*Converter, error) {
	if bits < 1 || bits > 24 {
		return nil, errors.New("adc: bits out of [1,24]")
	}
	if max <= min {
		return nil, errors.New("adc: max must exceed min")
	}
	return &Converter{bits: bits, min: min, max: max, levels: 1 << uint(bits)}, nil
}

// Bits returns the converter resolution in bits.
func (c *Converter) Bits() int { return c.bits }

// Range returns the full-scale range.
func (c *Converter) Range() (min, max float64) { return c.min, c.max }

// LSB returns the quantization step size.
func (c *Converter) LSB() float64 {
	return (c.max - c.min) / float64(c.levels-1)
}

// Code returns the integer output code for an analog input, saturating at
// the rails.
func (c *Converter) Code(x float64) int {
	if math.IsNaN(x) {
		return 0
	}
	if x <= c.min {
		return 0
	}
	if x >= c.max {
		return c.levels - 1
	}
	code := int(math.Round((x - c.min) / c.LSB()))
	if code < 0 {
		code = 0
	}
	if code > c.levels-1 {
		code = c.levels - 1
	}
	return code
}

// Quantize returns the reconstructed analog value of the code for x: the
// value CLD or pre-testing actually observes.
func (c *Converter) Quantize(x float64) float64 {
	return c.Value(c.Code(x))
}

// Value converts an output code back to its analog reconstruction level.
// The result is clamped to the rails: min + (levels-1)*LSB can land one
// ulp past max in floating point.
func (c *Converter) Value(code int) float64 {
	if code < 0 {
		code = 0
	}
	if code > c.levels-1 {
		code = c.levels - 1
	}
	v := c.min + float64(code)*c.LSB()
	if v > c.max {
		v = c.max
	} else if v < c.min {
		v = c.min
	}
	return v
}

// SenseChain bundles the column-current ADC with an optional ideal mode
// used by software-reference experiments ("infinite resolution").
type SenseChain struct {
	ADC   *Converter // nil means ideal (no quantization)
	Gain  float64    // transimpedance scaling applied before the ADC; 1 if zero
	noise func() float64
}

// NewSenseChain builds a sense chain. adcConv may be nil for an ideal
// chain. noise, if non-nil, is sampled per sensed value and added before
// quantization (input-referred sensing noise).
func NewSenseChain(adcConv *Converter, gain float64, noise func() float64) *SenseChain {
	if gain == 0 {
		gain = 1
	}
	return &SenseChain{ADC: adcConv, Gain: gain, noise: noise}
}

// Sense returns the observed value for an analog column current.
func (s *SenseChain) Sense(i float64) float64 {
	v := i * s.Gain
	if s.noise != nil {
		v += s.noise()
	}
	if s.ADC == nil {
		return v
	}
	return s.ADC.Quantize(v)
}

// Ideal returns a sense chain with no quantization and no noise.
func Ideal() *SenseChain { return &SenseChain{Gain: 1} }
