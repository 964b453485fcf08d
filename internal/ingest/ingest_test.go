package ingest

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"icbtc/internal/obs"
)

// TestMapOrdering: consume must see every index exactly once, in order,
// with the produced value, at every worker count.
func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 17, 150, 300} {
		n := 200
		next := 0
		err := Map(n, Config{Workers: workers},
			func(_, i int) int { return i * 3 },
			func(i, v int) error {
				if i != next {
					t.Fatalf("workers=%d: consumed %d, want %d", workers, i, next)
				}
				if v != i*3 {
					t.Fatalf("workers=%d: value %d for index %d", workers, v, i)
				}
				next++
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if next != n {
			t.Fatalf("workers=%d: consumed %d of %d", workers, next, n)
		}
	}
}

// TestMapWindowBound: no more than 2×Workers items may be produced beyond
// the consume frontier.
func TestMapWindowBound(t *testing.T) {
	const n, workers, window = 100, 3, 2 * 3
	var produced, consumed atomic.Int64
	err := Map(n, Config{Workers: workers},
		func(_, i int) int {
			p := produced.Add(1)
			if c := consumed.Load(); p-c > window+1 {
				t.Errorf("window overrun: %d produced, %d consumed", p, c)
			}
			return i
		},
		func(i, v int) error {
			time.Sleep(time.Microsecond) // let workers run ahead if they can
			consumed.Add(1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMapConsumeError: the first consume error aborts the run (wrapped
// with the item index) and workers exit rather than hanging on tickets.
func TestMapConsumeError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := Map(500, Config{Workers: workers},
			func(_, i int) int { return i },
			func(i, v int) error {
				if i == 7 {
					return boom
				}
				return nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: got %v, want wrapped boom", workers, err)
		}
	}
}

// TestMapSingleItemRunsSerial: a batch of one has nothing to overlap with, so
// whatever Workers says it runs on the calling goroutine — no pool, no
// channels — and the obs gauge still reports the window, 2×Workers.
func TestMapSingleItemRunsSerial(t *testing.T) {
	goroutine := func() string {
		buf := make([]byte, 64)
		buf = buf[:runtime.Stack(buf, false)]
		return string(buf[:bytes.IndexByte(buf, '[')]) // "goroutine N "
	}
	caller := goroutine()
	reg := obs.NewRegistry()
	var consumed int
	err := Map(1, Config{Workers: 8, Obs: reg},
		func(worker, i int) int {
			if g := goroutine(); g != caller || worker != 0 {
				t.Errorf("produce ran as worker %d on %q, want worker 0 on the caller's %q", worker, g, caller)
			}
			return 41 + i
		},
		func(_, v int) error { consumed = v; return nil })
	if err != nil || consumed != 41 {
		t.Fatalf("consumed %d, err %v", consumed, err)
	}
	if got := reg.Gauge("ingest_window_depth").Value(); got != 16 {
		t.Errorf("ingest_window_depth = %d, want 2×8", got)
	}
}

// TestMapJoinsWorkersOnConsumeError: consume fails at item k while slow
// produce calls for later items are in flight. Map must wait for them: no
// produce call may start or finish once Map has returned, or a caller's
// produce would go on reading state the caller has moved on from.
func TestMapJoinsWorkersOnConsumeError(t *testing.T) {
	const k = 3
	boom := errors.New("boom")
	var started, finished, late atomic.Int64
	var returned atomic.Bool
	inFlight := make(chan struct{}, 64) // one send per produce call past k; n is 64
	failed := make(chan struct{})
	err := Map(64, Config{Workers: 4},
		func(_, i int) int {
			if returned.Load() {
				late.Add(1)
			}
			started.Add(1)
			if i > k {
				// The slow producer: still running when consume fails, and
				// for a while after.
				inFlight <- struct{}{}
				<-failed
				time.Sleep(20 * time.Millisecond)
			}
			if returned.Load() {
				late.Add(1)
			}
			finished.Add(1)
			return i
		},
		func(i, _ int) error {
			if i < k {
				return nil
			}
			<-inFlight
			close(failed)
			return boom
		})
	returned.Store(true)
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want wrapped boom", err)
	}
	if s, f := started.Load(), finished.Load(); s != f {
		t.Errorf("Map returned with %d produce calls still running", s-f)
	}
	// Let anything Map abandoned run to its end before counting.
	for deadline := time.Now().Add(5 * time.Second); started.Load() != finished.Load() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := late.Load(); n != 0 {
		t.Errorf("%d produce calls started or finished after Map returned", n)
	}
}

// TestMapWorkerLocality: the worker index passed to produce must stay
// within [0, workers), so worker-local caches are safe.
func TestMapWorkerLocality(t *testing.T) {
	const workers = 4
	var bad atomic.Bool
	err := Map(300, Config{Workers: workers},
		func(w, i int) int {
			if w < 0 || w >= workers {
				bad.Store(true)
			}
			return i
		},
		func(i, v int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if bad.Load() {
		t.Fatal("worker index out of range")
	}
}

// TestMapDeterministicAggregation: aggregating in consume yields the same
// result at every worker count even when producers finish out of order.
func TestMapDeterministicAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inputs := make([]int, 300)
	for i := range inputs {
		inputs[i] = rng.Intn(1000)
	}
	run := func(workers int) []int {
		var out []int
		err := Map(len(inputs), Config{Workers: workers},
			func(_, i int) int {
				if inputs[i]%3 == 0 {
					time.Sleep(time.Duration(inputs[i]%5) * time.Microsecond)
				}
				return inputs[i] * 2
			},
			func(i, v int) error { out = append(out, v); return nil })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: aggregation diverged at %d", workers, i)
			}
		}
	}
}
