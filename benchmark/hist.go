package main

import (
	"math/bits"
	"sort"
)

// Histogram is the allocation-free latency recorder every timed section
// writes to: log-linear buckets (128 linear sub-buckets per power of two),
// so a reported quantile is within 1/128 < 1 % of the exact order statistic
// and Record touches one preallocated counter. A recorder that appended
// samples to slices produced 400-600 ms GC outliers of its own making.
type Histogram struct {
	counts [histBuckets]uint64
	n      uint64
	max    uint64
}

const (
	histSubBits = 7 // 128 sub-buckets per octave
	histSub     = 1 << histSubBits
	// Values up to 2^42 ns (~73 min) are resolved; larger ones clamp into
	// the last bucket.
	histMaxExp  = 42 - histSubBits
	histBuckets = (histMaxExp + 1) * histSub
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - histSubBits - 1 // v>>exp is in [histSub, 2*histSub)
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	return (exp+1)*histSub + int(v>>uint(exp)) - histSub
}

// histValue returns the midpoint of bucket i.
func histValue(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	exp := uint(i/histSub - 1)
	lo := uint64(histSub+i%histSub) << exp
	return lo + (uint64(1)<<exp)/2
}

// Record adds one sample in nanoseconds. Negative samples (a clock step)
// count as zero.
func (h *Histogram) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	h.counts[histIndex(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// N returns the number of samples recorded.
func (h *Histogram) N() uint64 { return h.n }

// Quantile returns the k-th percentile in nanoseconds by the nearest-rank
// rule the repo's reports use (sorted[n*k/100], see obs.SummarizeDurations),
// resolved to the midpoint of the bucket holding that rank.
func (h *Histogram) Quantile(k int) float64 {
	if h.n == 0 {
		return 0
	}
	rank := h.n * uint64(k) / 100
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i]
		if seen > rank {
			if i == histBuckets-1 {
				return float64(h.max)
			}
			return float64(histValue(i))
		}
	}
	return float64(h.max)
}

// ShareAbove returns the share of samples strictly above limit nanoseconds,
// at bucket resolution.
func (h *Histogram) ShareAbove(limit uint64) float64 {
	if h.n == 0 {
		return 0
	}
	var above uint64
	for i := histIndex(limit) + 1; i < histBuckets; i++ {
		above += h.counts[i]
	}
	return float64(above) / float64(h.n)
}

// Drain adds every sample of h to total and empties h.
func (h *Histogram) Drain(total *Histogram) {
	for i, c := range h.counts {
		total.counts[i] += c
	}
	total.n += h.n
	if h.max > total.max {
		total.max = h.max
	}
	*h = Histogram{}
}

// median returns the nearest-rank median (sorted[n/2]) of xs, sorting a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// quiet returns the value a tenth of the way in from the better end of xs
// (the 4th best of 40 windows). Interference on a shared machine — a busy
// hyperthread sibling, a neighbour's cache traffic — only ever slows a
// window down, and on the reference box it shifts the median window by
// 10-20 % from one minute to the next; the windows least disturbed repeat
// within a few percent, so they are what a run reports.
func quiet(xs []float64, better string) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if better == "higher" {
		return s[len(s)-1-len(s)/10]
	}
	return s[len(s)/10]
}
