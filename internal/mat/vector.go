package mat

import "math"

// Vector helpers operate on plain []float64 so callers can pass slices
// from any source without wrapping.

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("mat: Dot length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// SubVec returns a - b as a new slice.
func SubVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("mat: SubVec length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// HadamardVec returns the element-wise product of a and b as a new slice.
func HadamardVec(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("mat: HadamardVec length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] * b[i]
	}
	return out
}

// CloneVec returns a copy of v.
func CloneVec(v []float64) []float64 {
	return append([]float64(nil), v...)
}

// Constant returns a slice of length n filled with v.
func Constant(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// ArgMax returns the index of the largest element; ties resolve to the
// first occurrence. It panics on an empty slice.
func ArgMax(v []float64) int {
	if len(v) == 0 {
		panic("mat: ArgMax of empty vector")
	}
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}
