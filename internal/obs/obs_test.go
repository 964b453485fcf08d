package obs

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketEdges(t *testing.T) {
	bounds := []int64{10, 20, 40}
	reg := NewRegistry()
	h := reg.Histogram("h", bounds)

	// Underflow: strictly below the first boundary.
	h.Observe(-5)
	h.Observe(0)
	h.Observe(9)
	// Exact boundary values land in the bucket whose LOWER bound they are.
	h.Observe(10)
	h.Observe(19)
	h.Observe(20)
	h.Observe(39)
	// Overflow: at or above the last boundary.
	h.Observe(40)
	h.Observe(1 << 40)

	want := []uint64{3, 2, 2, 2}
	for i, w := range want {
		if got := h.counts[i]; got != w {
			t.Errorf("bucket %d: got %d want %d", i, got, w)
		}
	}
	if got := reg.Snapshot().Histograms[0].Count; got != 9 {
		t.Errorf("count: got %d want 9", got)
	}
	wantSum := int64(-5 + 0 + 9 + 10 + 19 + 20 + 39 + 40 + (1 << 40))
	if got := h.sum; got != wantSum {
		t.Errorf("sum: got %d want %d", got, wantSum)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]int64{nil, {}, {5, 5}, {5, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v: expected panic", bounds)
				}
			}()
			newHistogram("bad", bounds)
		}()
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{10, 100, 1000})
	for i := 0; i < 90; i++ {
		h.Observe(5) // underflow bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(500) // third bucket (100 <= v < 1000)
	}
	s := r.Snapshot()
	p := s.Histograms[0]
	if got := p.Quantile(50, 100); got != 10 {
		t.Errorf("p50: got %d want 10 (underflow bucket upper bound)", got)
	}
	if got := p.Quantile(99, 100); got != 1000 {
		t.Errorf("p99: got %d want 1000", got)
	}
	var empty HistogramPoint
	if got := empty.Quantile(50, 100); got != 0 {
		t.Errorf("empty: got %d want 0", got)
	}
}

// TestFamilySortedIterationDeterminism: whatever order labels are inserted
// in (and whatever order Go's map would walk them), Do and the snapshot see
// them sorted.
func TestFamilySortedIterationDeterminism(t *testing.T) {
	labels := []string{"delta", "alpha", "echo", "bravo", "charlie", "foxtrot", "golf"}
	rng := rand.New(rand.NewSource(42))
	var first []string
	for trial := 0; trial < 20; trial++ {
		r := NewRegistry()
		f := r.Family("fam_total", "kind")
		shuffled := append([]string(nil), labels...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for i, l := range shuffled {
			f.With(l).Add(uint64(i + 1))
		}
		var seen []string
		f.Do(func(value string, c *Counter) { seen = append(seen, value) })
		if trial == 0 {
			first = seen
			for i := 1; i < len(seen); i++ {
				if seen[i-1] >= seen[i] {
					t.Fatalf("iteration not sorted: %v", seen)
				}
			}
			continue
		}
		if len(seen) != len(first) {
			t.Fatalf("trial %d: got %v want %v", trial, seen, first)
		}
		for i := range seen {
			if seen[i] != first[i] {
				t.Fatalf("trial %d: got %v want %v", trial, seen, first)
			}
		}
	}
}

// promText renders s in Prometheus text form.
func promText(t *testing.T, s *Snapshot) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestSnapshotTextDeterminism: registering metrics in different orders
// still renders identical text when the values match.
func TestSnapshotTextDeterminism(t *testing.T) {
	build := func(order []int) *Registry {
		r := NewRegistry()
		ops := []func(){
			func() { r.Counter("c_one").Add(3) },
			func() { r.Counter("c_two").Add(7) },
			func() { r.Gauge("g_one").Set(-4) },
			func() { r.Histogram("h_one", []int64{10, 100}).Observe(55) },
			func() { r.Family("f_one", "k").With("b").Add(2) },
			func() { r.Family("f_one", "k").With("a").Add(1) },
		}
		for _, i := range order {
			ops[i]()
		}
		return r
	}
	a := promText(t, build([]int{0, 1, 2, 3, 4, 5}).Snapshot())
	b := promText(t, build([]int{5, 3, 1, 4, 2, 0}).Snapshot())
	if a != b {
		t.Fatal("snapshots of equal registries differ by registration order")
	}
}

// TestMergeDeterminism: merging any permutation of snapshots yields
// identical text, and values sum.
func TestMergeDeterminism(t *testing.T) {
	mk := func(seed int64) *Snapshot {
		r := NewRegistry()
		rng := rand.New(rand.NewSource(seed))
		r.Counter("a_total").Add(uint64(rng.Intn(100)))
		r.Counter("b_total").Add(uint64(rng.Intn(100)))
		r.Gauge("g").Add(int64(rng.Intn(50)))
		h := r.Histogram("h", []int64{10, 100})
		for i := 0; i < 20; i++ {
			h.Observe(int64(rng.Intn(200)))
		}
		f := r.Family("f_total", "k")
		for _, l := range []string{"x", "y", "z"} {
			f.With(l).Add(uint64(rng.Intn(10)))
		}
		return r.Snapshot()
	}
	s1, s2, s3 := mk(1), mk(2), mk(3)
	m1, err := Merge(s1, s2, s3)
	if err != nil {
		t.Fatal(err)
	}
	perms := [][]*Snapshot{{s2, s3, s1}, {s3, s1, s2}, {s3, s2, s1}, {s1, s3, s2}}
	for i, p := range perms {
		m, err := Merge(p...)
		if err != nil {
			t.Fatal(err)
		}
		if promText(t, m) != promText(t, m1) {
			t.Fatalf("permutation %d: merged text differs", i)
		}
	}
	// Values sum.
	wantA := s1.Counters[0].Value + s2.Counters[0].Value + s3.Counters[0].Value
	if m1.Counters[0].Name != "a_total" || m1.Counters[0].Value != wantA {
		t.Fatalf("merged a_total: %+v want %d", m1.Counters[0], wantA)
	}
	wantH := s1.Histograms[0].Count + s2.Histograms[0].Count + s3.Histograms[0].Count
	if m1.Histograms[0].Count != wantH {
		t.Fatalf("merged histogram count: %d want %d", m1.Histograms[0].Count, wantH)
	}

	// Boundary mismatch is an error, not a silent corruption.
	r := NewRegistry()
	r.Histogram("h", []int64{5, 50}).Observe(7)
	if _, err := Merge(s1, r.Snapshot()); err == nil {
		t.Fatal("merge with mismatched histogram bounds should error")
	}
}

func TestRegistryClockAndTracer(t *testing.T) {
	r := NewRegistry()
	at := time.Unix(100, 0)
	r.SetClock(func() time.Time { return at })
	if !r.Now().Equal(at) {
		t.Fatalf("Now: got %v want %v", r.Now(), at)
	}

	tr := r.Tracer()
	tr.Emit("ignored", "") // disabled: no-op
	tr.SetEnabled(true)
	end := tr.Span("work")
	at = at.Add(5 * time.Millisecond)
	end()
	events, dropped := tr.Events()
	if dropped != 0 || len(events) != 2 {
		t.Fatalf("events: %v dropped %d", events, dropped)
	}
	if events[0].Name != "work:begin" || events[1].Name != "work:end" {
		t.Fatalf("event names: %q %q", events[0].Name, events[1].Name)
	}
	if events[1].Detail != "5ms" {
		t.Fatalf("span detail: %q want 5ms", events[1].Detail)
	}
	if !events[0].At.Equal(time.Unix(100, 0)) {
		t.Fatalf("event stamped %v, want injected clock time", events[0].At)
	}
}

func TestTracerCapDrops(t *testing.T) {
	tr := NewTracer(4)
	tr.SetEnabled(true)
	for i := 0; i < 10; i++ {
		tr.Emit("e", "")
	}
	events, dropped := tr.Events()
	if len(events) != 4 || dropped != 6 {
		t.Fatalf("got %d events %d dropped, want 4/6", len(events), dropped)
	}
}

func TestNilReceiversSafe(t *testing.T) {
	var r *Registry
	r.SetClock(nil)
	r.Trace("x", "y")
	if r.Counter("c") != nil || r.Gauge("g") != nil || r.Family("f", "k") != nil {
		t.Fatal("nil registry should return nil metrics")
	}
	if r.Histogram("h", nil) != nil {
		t.Fatal("nil registry should return nil histogram")
	}
	var c *Counter
	c.Add(1)
	c.Inc()
	_ = c.Value()
	var g *Gauge
	g.Set(1)
	g.Add(1)
	_ = g.Value()
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	var f *Family
	if f.With("x") != nil {
		t.Fatal("nil family should return nil child")
	}
	f.Do(func(string, *Counter) { t.Fatal("nil family should not iterate") })
	var tr *Tracer
	tr.Emit("x", "")
	tr.SetEnabled(true)
	tr.SetClock(nil)
	tr.Span("s")()
	tr.Reset()
	if s := r.Snapshot(); s == nil || len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot should be empty, not nil")
	}
}

func TestRegistryDuplicateTypePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering gauge under a counter's name")
		}
	}()
	r.Gauge("x")
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := r.Counter("c_total")
			h := r.Histogram("h", DurationBuckets)
			f := r.Family("f_total", "worker")
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(int64(j))
				f.With(string(rune('a' + i%4))).Inc()
				if j%100 == 0 {
					// A snapshot taken mid-Observe is self-consistent: its
					// count is the sum of the buckets it copied.
					for _, hp := range r.Snapshot().Histograms {
						var sum uint64
						for _, c := range hp.Counts {
							sum += c
						}
						if sum != hp.Count {
							t.Errorf("%s: count %d, buckets hold %d", hp.Name, hp.Count, sum)
						}
					}
				}
			}
		}(i)
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters[0].Value != 8000 {
		t.Fatalf("counter: got %d want 8000", s.Counters[0].Value)
	}
	if s.Histograms[0].Count != 8000 {
		t.Fatalf("histogram: got %d want 8000", s.Histograms[0].Count)
	}
}

// TestHistogramPointIsOneMoment: a snapshot taken while two goroutines
// observe the value 1 must read each histogram's Sum and buckets from one
// moment, so every point has Sum == Count.
func TestHistogramPointIsOneMoment(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ones", []int64{1, 2})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(1)
				}
			}
		}()
	}
	torn := 0
	for i := 0; i < 20000; i++ {
		p := r.Snapshot().Histograms[0]
		if p.Sum != int64(p.Count) {
			torn++
		}
	}
	close(stop)
	wg.Wait()
	if torn > 0 {
		t.Fatalf("%d of 20000 snapshots read Sum != Count", torn)
	}
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("req_total").Add(5)
	r.Gauge("height").Set(10)
	r.Histogram("lat", []int64{100, 200}).Observe(150)
	r.Family("calls_total", "method").With("get_tip").Add(2)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"req_total 5",
		"height 10",
		`calls_total{method="get_tip"} 2`,
		`lat_bucket{le="200"} 1`,
		`lat_bucket{le="+Inf"} 1`,
		"lat_sum 150",
		"lat_count 1",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestInstrumentsAllocationFree: the instruments sit on every ingest stage
// and every routed query, and a tracer that is off (the default) must cost a
// branch. Exactly zero allocations each — an equality, not a ceiling.
func TestInstrumentsAllocationFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total")
	g := reg.Gauge("g")
	h := reg.Histogram("h_ns", DurationBuckets)
	tr := reg.Tracer()
	if tr.Enabled() {
		t.Fatal("tracer enabled by default")
	}
	var i int64
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Counter.Add", func() { c.Add(1) }},
		{"Gauge.Set", func() { i++; g.Set(i) }},
		{"Histogram.Observe", func() { i++; h.Observe(i % 1_000_000 * 1000) }},
		{"disabled Tracer.Emit", func() { tr.Emit("event", "detail") }},
		{"disabled Tracer.Span", func() { tr.Span("span")() }},
		{"disabled Registry.Trace", func() { reg.Trace("event", "detail") }},
	} {
		if avg := testing.AllocsPerRun(1000, tc.fn); avg != 0 {
			t.Errorf("%s allocates %.2f times per call, want 0", tc.name, avg)
		}
	}

	// Off also means lock-free: every executed query of every replica calls
	// Trace, and a disabled tracer must not serialize them on its mutex.
	// Hold the mutex and make the calls; one that locks never returns.
	tr.mu.Lock()
	defer tr.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		tr.Emit("event", "detail")
		tr.Span("span")()
		reg.Trace("event", "detail")
		_ = tr.Enabled()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a disabled tracer call waits for the tracer's mutex")
	}
}
