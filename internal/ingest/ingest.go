// Package ingest is the deterministic parallel block-ingest pipeline: it
// overlaps the CPU-bound per-block work — wire decode, txid and Merkle
// double-hashing — across a bounded prefetch window of upcoming blocks,
// while state application stays strictly sequential. The applied result is therefore byte-identical
// to the serial path at every worker count (including one), which is what
// lets the differential harness hold the serial path as the oracle and
// randomize worker counts freely.
//
// The pipeline's contract is split in two:
//
//   - Map is the generic ordered fan-out/fan-in primitive: produce(i) runs
//     on a worker pool inside a bounded in-flight window, consume(i, v)
//     runs on the calling goroutine in strict index order. Determinism
//     falls out of the structure — produce must be a pure function of its
//     input, and all state mutation happens in consume.
//   - Prepare / PrepareWire (block.go) are the produce functions for
//     Bitcoin blocks, used by the canister's payload processing and
//     catch-up sync. A block's delta is not prework: it depends on the state
//     the block attaches at, and the canister builds it only for blocks that
//     are still unstable when their payload ends.
package ingest

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"icbtc/internal/obs"
)

// Config parameterizes a pipeline run.
type Config struct {
	// Workers is the number of concurrent produce goroutines. Values <= 1,
	// or a batch of one item, select the serial path (produce and consume
	// interleaved on the calling goroutine — no goroutines, no channels).
	// At most 2×Workers items are in flight (produced or being produced but
	// not yet consumed) at once: the prefetch depth K.
	Workers int
	// Obs, when non-nil, receives pipeline instrumentation: items consumed,
	// per-item produce/consume durations (measured on the registry clock,
	// so seeded runs stay bit-identical), and the prefetch depth. The depth
	// gauge reports the window, 2×Workers, never live channel occupancy —
	// sampling goroutine-scheduling state would leak real-process
	// nondeterminism into deterministic snapshots. Nil (the default) adds
	// zero overhead.
	Obs *obs.Registry
}

// DefaultWorkers returns the worker count used when a consumer asks for
// "parallel" without a specific count: GOMAXPROCS, capped at 8 (the deepest
// point measured to still help; beyond it the sequential applier is the
// bottleneck).
func DefaultWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

// NormalizedWorkers returns the worker count Map will run with (before
// the per-call clamp to the item count) — what callers use to size
// worker-local state or to decide whether a run has a second core.
func (c Config) NormalizedWorkers() int { return max(c.Workers, 1) }

// instrumented wraps a run's produce and consume with obs recording on
// registry r: ingest_produce_duration_ns is observed on worker goroutines
// (Observe is safe for concurrent use), ingest_consume_duration_ns and
// ingest_items_total on the sequential consumer, and ingest_window_depth
// reports the configured prefetch window.
func instrumented[T any](r *obs.Registry, window int,
	produce func(worker, i int) T, consume func(i int, v T) error,
) (func(worker, i int) T, func(i int, v T) error) {
	r.Gauge("ingest_window_depth").Set(int64(window))
	items := r.Counter("ingest_items_total")
	produceNS := r.Histogram("ingest_produce_duration_ns", obs.DurationBuckets)
	consumeNS := r.Histogram("ingest_consume_duration_ns", obs.DurationBuckets)
	return func(worker, i int) T {
			start := r.Now()
			v := produce(worker, i)
			produceNS.ObserveDuration(r.Now().Sub(start))
			return v
		}, func(i int, v T) error {
			start := r.Now()
			err := consume(i, v)
			consumeNS.ObserveDuration(r.Now().Sub(start))
			items.Inc()
			return err
		}
}

// Map runs produce(i) for every i in [0, n) on cfg.Workers goroutines with
// at most 2×cfg.Workers items in flight, and feeds the results to consume in
// strict index order on the calling goroutine. It returns the first
// consume error: no further produce call starts, and Map waits for the ones
// in flight, so on every return path — error or not — no produce call is
// running and none will run. produce must not touch shared mutable state:
// every structural guarantee of the pipeline (byte-identical results at any
// worker count) rests on produce being pure and consume being the only
// mutator.
//
// produce receives a stable worker index in [0, workers) so callers can
// maintain worker-local state without locking.
func Map[T any](n int, cfg Config, produce func(worker, i int) T, consume func(i int, v T) error) error {
	if n <= 0 {
		return nil
	}
	workers := cfg.NormalizedWorkers()
	window := 2 * workers
	if cfg.Obs != nil {
		produce, consume = instrumented(cfg.Obs, window, produce, consume)
	}
	// One item has nothing to overlap with: a tip frame is a batch of one.
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := consume(i, produce(0, i)); err != nil {
				return err
			}
		}
		return nil
	}
	if window > n {
		window = n
	}

	// Tickets bound the in-flight window: a worker takes one before
	// claiming an index, the consumer returns it after consuming. quit
	// unblocks workers waiting on a ticket after a consume error; stop also
	// joins them, so a caller's produce never outlives the call.
	tickets := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tickets <- struct{}{}
	}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	stop := func() {
		close(quit)
		wg.Wait()
	}

	results := make([]T, n)
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				select {
				case <-tickets:
				case <-quit:
					return
				}
				// A ticket and quit may both be ready; quit wins.
				select {
				case <-quit:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i] = produce(worker, i)
				close(ready[i])
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		<-ready[i]
		err := consume(i, results[i])
		var zero T
		results[i] = zero // release the prepared item as soon as it is consumed
		if err != nil {
			stop()
			return fmt.Errorf("ingest: item %d: %w", i, err)
		}
		tickets <- struct{}{}
	}
	stop()
	return nil
}
