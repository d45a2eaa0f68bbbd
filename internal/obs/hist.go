package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry: values are classified by math.Frexp into
// one octave per power of two, each split into histSubs sub-buckets, so
// a bucket spans a relative width of 1/histSubs ≈ 12.5% and quantile
// estimates land within ~6% of the true value. Octaves cover
// [2^(histMinExp-1), 2^(histMaxExp-1)); anything outside falls into the
// underflow/overflow buckets and is reported from the exact tracked
// min/max instead.
const (
	histSubs    = 8
	histMinExp  = -64
	histMaxExp  = 64
	histOctaves = histMaxExp - histMinExp
	histBuckets = histOctaves*histSubs + 2 // + underflow, overflow
	bucketUnder = 0
	bucketOver  = histBuckets - 1
)

// Histogram is a lock-free streaming histogram over positive float64
// values (typically latencies in nanoseconds). Record is a handful of
// atomic operations; Quantile and Snapshot walk the bucket array.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	minBits atomic.Uint64 // float64 bits; valid once count > 0
	maxBits atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketIndex maps a value to its bucket. Non-positive values and NaN
// fall into the underflow bucket, +Inf into the overflow bucket.
func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return bucketUnder
	}
	if math.IsInf(v, 1) {
		return bucketOver
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	switch {
	case exp < histMinExp:
		return bucketUnder
	case exp >= histMaxExp:
		return bucketOver
	}
	sub := int((frac - 0.5) * 2 * histSubs)
	if sub >= histSubs { // frac == nextafter(1, 0) rounding guard
		sub = histSubs - 1
	}
	return 1 + (exp-histMinExp)*histSubs + sub
}

// bucketMid returns the representative value of a (non-sentinel)
// bucket: the midpoint of its span.
func bucketMid(idx int) float64 {
	idx--
	exp := histMinExp + idx/histSubs
	sub := idx % histSubs
	return math.Ldexp(1+(float64(sub)+0.5)/histSubs, exp-1)
}

// Record adds one observation. Non-positive, NaN and ±Inf values are
// counted (underflow/overflow buckets) so the count stays honest, but
// they do not perturb min/max/sum — a single +Inf would otherwise
// poison the sum and make the snapshot unmarshalable as JSON.
func (h *Histogram) Record(v float64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	if v > 0 && !math.IsNaN(v) && !math.IsInf(v, 1) {
		addFloat(&h.sumBits, v)
		casMin(&h.minBits, v)
		casMax(&h.maxBits, v)
	}
}

// RecordDuration records d in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(float64(d.Nanoseconds())) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile returns an estimate of the q-th quantile (q in [0, 1]) of
// everything recorded so far, clamped to the exact observed min/max.
// It returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	min := math.Float64frombits(h.minBits.Load())
	max := math.Float64frombits(h.maxBits.Load())
	if math.IsInf(min, 1) || math.IsInf(max, -1) {
		// Only sentinel values (non-positive, NaN, +Inf) were recorded;
		// there is no finite observation to clamp to.
		min, max = 0, 0
	}
	// rank is 1-based: the rank-th smallest observation.
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		n := int64(h.buckets[i].Load())
		if n == 0 {
			continue
		}
		seen += n
		if seen >= rank {
			switch i {
			case bucketUnder:
				return clamp(0, min, max)
			case bucketOver:
				return max
			}
			return clamp(bucketMid(i), min, max)
		}
	}
	return max
}

// HistogramSnapshot is the JSON-facing summary of a histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   math.Float64frombits(h.sumBits.Load()),
	}
	if s.Count == 0 {
		return s
	}
	s.Mean = s.Sum / float64(s.Count)
	s.Min = math.Float64frombits(h.minBits.Load())
	s.Max = math.Float64frombits(h.maxBits.Load())
	if math.IsInf(s.Min, 1) { // only non-positive values recorded
		s.Min, s.Max = 0, 0
	}
	s.P50 = h.Quantile(0.50)
	s.P90 = h.Quantile(0.90)
	s.P99 = h.Quantile(0.99)
	return s
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// addFloat atomically adds v to the float64 stored as bits in addr.
func addFloat(addr *atomic.Uint64, v float64) {
	for {
		old := addr.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if addr.CompareAndSwap(old, new) {
			return
		}
	}
}

func casMin(addr *atomic.Uint64, v float64) {
	for {
		old := addr.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if addr.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func casMax(addr *atomic.Uint64, v float64) {
	for {
		old := addr.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if addr.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
