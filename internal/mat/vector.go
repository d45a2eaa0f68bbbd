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

// Norm1 returns the sum of absolute values of v.
func Norm1(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// NormInf returns the maximum absolute value of v (0 for empty).
func NormInf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// AxpyTo computes dst = a*x + y element-wise. dst may alias x or y.
func AxpyTo(dst []float64, a float64, x, y []float64) {
	if len(dst) != len(x) || len(x) != len(y) {
		panic("mat: AxpyTo length mismatch")
	}
	for i := range dst {
		dst[i] = a*x[i] + y[i]
	}
}

// ScaleVec multiplies v by s in place.
func ScaleVec(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}

// AddVec adds b into a in place.
func AddVec(a, b []float64) {
	if len(a) != len(b) {
		panic("mat: AddVec length mismatch")
	}
	for i := range a {
		a[i] += b[i]
	}
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

// PermuteVec returns a new slice whose element i is v[perm[i]].
func PermuteVec(v []float64, perm []int) []float64 {
	if len(perm) != len(v) {
		panic("mat: PermuteVec length mismatch")
	}
	out := make([]float64, len(v))
	for i, p := range perm {
		out[i] = v[p]
	}
	return out
}

// InversePerm returns the inverse permutation q with q[p[i]] = i.
func InversePerm(p []int) []int {
	q := make([]int, len(p))
	seen := make([]bool, len(p))
	for i, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			panic("mat: invalid permutation")
		}
		seen[v] = true
		q[v] = i
	}
	return q
}

// IsPermutation reports whether p is a permutation of [0, len(p)).
func IsPermutation(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}
