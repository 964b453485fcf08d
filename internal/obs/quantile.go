package obs

import (
	"sort"
	"time"
)

// DurationSummary is an exact order-statistic summary of a duration sample
// set. Unlike HistogramPoint.Quantile (bucketed, streaming), this is
// computed from the full retained sample slice. Its one user outside this
// package is benchmark/hist_test.go, which holds the benchmark's streaming
// histogram to these exact order statistics; no figure reports it.
type DurationSummary struct {
	N    int
	Min  time.Duration
	Mean time.Duration
	P50  time.Duration
	P90  time.Duration
	P99  time.Duration
	P999 time.Duration
	Max  time.Duration
}

// SummarizeDurations sorts samples in place and returns the summary. The
// percentile rule is the nearest-rank index formula s[n*k/100] (P50 = s[n/2],
// P90 = s[n*9/10], P99 = s[n*99/100], P999 = s[n*999/1000]), the rule the
// benchmark's histogram quantiles follow (benchmark/hist_test.go checks
// them against it).
func SummarizeDurations(samples []time.Duration) DurationSummary {
	n := len(samples)
	if n == 0 {
		return DurationSummary{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	return DurationSummary{
		N:    n,
		Min:  samples[0],
		Mean: sum / time.Duration(n),
		P50:  samples[n/2],
		P90:  samples[n*9/10],
		P99:  samples[n*99/100],
		P999: samples[n*999/1000],
		Max:  samples[n-1],
	}
}

// MedianU64 sorts samples in place and returns s[n/2] (0 when empty) — the
// nearest-rank rule SummarizeDurations' P50 uses.
func MedianU64(samples []uint64) uint64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2]
}
