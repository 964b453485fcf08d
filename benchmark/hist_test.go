package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"icbtc/internal/obs"
)

// The recorder must agree with the exact order statistics the repo's
// reports use, within its stated 1 % bucket error.
func TestHistogramMatchesSummarizeDurations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 4; round++ {
		var h Histogram
		exact := make([]time.Duration, 50000)
		for i := range exact {
			// Log-uniform from ~50 ns to ~1 s, the range the workloads span.
			ns := int64(50 * math.Exp(rng.Float64()*math.Log(2e7)))
			exact[i] = time.Duration(ns)
			h.Record(ns)
		}
		want := obs.SummarizeDurations(exact)
		for _, c := range []struct {
			k    int
			want time.Duration
		}{{50, want.P50}, {90, want.P90}, {99, want.P99}} {
			got := h.Quantile(c.k)
			if diff := math.Abs(got-float64(c.want)) / float64(c.want); diff > 0.01 {
				t.Errorf("round %d: p%d = %.0f ns, exact %d ns (off by %.2f %%)", round, c.k, got, c.want, 100*diff)
			}
		}
		if h.N() != uint64(len(exact)) {
			t.Errorf("N = %d, want %d", h.N(), len(exact))
		}
	}
}

func TestHistogramBucketError(t *testing.T) {
	for v := uint64(1); v < 1<<41; v = v*17/16 + 1 {
		mid := histValue(histIndex(v))
		if diff := math.Abs(float64(mid)-float64(v)) / float64(v); diff > 1.0/histSub {
			t.Fatalf("value %d lands in a bucket with midpoint %d (off by %.3f %%)", v, mid, 100*diff)
		}
	}
	if got := histIndex(math.MaxUint64); got != histBuckets-1 {
		t.Fatalf("overflow index = %d, want the last bucket %d", got, histBuckets-1)
	}
}

func TestHistogramShareAbove(t *testing.T) {
	var h Histogram
	for i := 0; i < 900; i++ {
		h.Record(1000)
	}
	for i := 0; i < 100; i++ {
		h.Record(5_000_000)
	}
	if got := h.ShareAbove(1_000_000); got != 0.1 {
		t.Fatalf("ShareAbove(1ms) = %v, want 0.1", got)
	}
}

// The record path is inside every timed loop: it may not allocate.
func TestRecordAllocatesNothing(t *testing.T) {
	var h Histogram
	ns := int64(1)
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Record(ns)
		ns = ns*3 + 7
		if ns > 1<<40 {
			ns = 1
		}
	}); allocs != 0 {
		t.Fatalf("Record allocates %v times per call", allocs)
	}
}

func TestTracerRecordsNothingWhenNil(t *testing.T) {
	var tr *tracer
	if i := tr.add("x", 1, -1, 0, 1); i != -1 {
		t.Fatalf("nil tracer returned span %d", i)
	}
	full := &tracer{spans: make([]Span, 0, 1)}
	full.add("a", 1, -1, 0, 1)
	if i := full.add("b", 2, -1, 1, 2); i != -1 || full.dropped != 1 {
		t.Fatalf("full tracer returned %d, dropped %d", i, full.dropped)
	}
}
