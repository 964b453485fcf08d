package ingest

import (
	"testing"

	"icbtc/internal/obs"
)

// TestMapInstrumentation checks the optional obs wiring: item counts and
// per-item durations land in the registry, the window-depth gauge reports
// the window, 2×Workers, and both the serial and parallel paths record the
// same totals.
func TestMapInstrumentation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		const n = 37
		err := Map(n, Config{Workers: workers, Obs: reg},
			func(_, i int) int { return i * i },
			func(i, v int) error {
				if v != i*i {
					t.Fatalf("item %d: got %d", i, v)
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("ingest_items_total").Value(); got != n {
			t.Errorf("workers=%d: items=%d, want %d", workers, got, n)
		}
		if got := reg.Gauge("ingest_window_depth").Value(); got != int64(2*workers) {
			t.Errorf("workers=%d: window_depth=%d, want %d", workers, got, 2*workers)
		}
		if got := reg.Histogram("ingest_produce_duration_ns", obs.DurationBuckets).Count(); got != n {
			t.Errorf("workers=%d: produce observations=%d, want %d", workers, got, n)
		}
		if got := reg.Histogram("ingest_consume_duration_ns", obs.DurationBuckets).Count(); got != n {
			t.Errorf("workers=%d: consume observations=%d, want %d", workers, got, n)
		}
	}
}
