package obs

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestSummarizeDurationsMatchesLegacyFormulas pins SummarizeDurations to the
// exact integer-index percentile formulas the experiment reports used before
// deduplicating onto this helper (latency.go stats(), fig7.go medianDur). If
// this test fails, reported figure values have moved.
func TestSummarizeDurationsMatchesLegacyFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{1, 2, 7, 100, 1234, 5000} {
		samples := make([]time.Duration, n)
		for i := range samples {
			samples[i] = time.Duration(rng.Int63n(int64(3 * time.Second)))
		}

		// The legacy computation, inlined verbatim.
		legacy := append([]time.Duration(nil), samples...)
		sort.Slice(legacy, func(i, j int) bool { return legacy[i] < legacy[j] })
		var sum time.Duration
		for _, d := range legacy {
			sum += d
		}
		wantMin := legacy[0]
		wantMean := sum / time.Duration(n)
		wantP50 := legacy[n/2]
		wantP90 := legacy[n*9/10]
		wantP99 := legacy[n*99/100]
		wantP999 := legacy[n*999/1000]
		wantMax := legacy[n-1]

		got := SummarizeDurations(samples)
		if got.N != n || got.Min != wantMin || got.Mean != wantMean ||
			got.P50 != wantP50 || got.P90 != wantP90 ||
			got.P99 != wantP99 || got.P999 != wantP999 || got.Max != wantMax {
			t.Fatalf("n=%d: got %+v want min=%v mean=%v p50=%v p90=%v p99=%v p999=%v max=%v",
				n, got, wantMin, wantMean, wantP50, wantP90, wantP99, wantP999, wantMax)
		}
	}

	if got := SummarizeDurations(nil); got != (DurationSummary{}) {
		t.Fatalf("empty: got %+v", got)
	}
}

func TestMedianU64MatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 100} {
		samples := make([]uint64, n)
		for i := range samples {
			samples[i] = rng.Uint64() % 1000
		}
		legacy := append([]uint64(nil), samples...)
		sort.Slice(legacy, func(i, j int) bool { return legacy[i] < legacy[j] })
		want := legacy[n/2]
		if got := MedianU64(samples); got != want {
			t.Fatalf("n=%d: got %d want %d", n, got, want)
		}
	}
	if MedianU64(nil) != 0 {
		t.Fatal("empty: want 0")
	}
}
