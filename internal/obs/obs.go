// Package obs is the deterministic observability layer: a typed,
// allocation-conscious metrics registry (monotonic counters, gauges,
// fixed-bucket histograms, labeled counter families) plus a lightweight
// event tracer.
//
// Determinism is the design constraint the usual metrics libraries don't
// have: the chaos and differential harnesses assert on telemetry itself, so
// two same-seed runs must produce byte-identical rendered snapshots. Three
// rules make that hold:
//
//   - Every time read goes through the registry clock (SetClock). Seeded
//     drivers (simnet/chaos/difftest) install the scheduler's virtual
//     clock, so durations are virtual-time deltas — identical per seed.
//     Unseeded drivers keep the wall-clock default.
//   - Snapshots iterate every metric in sorted name (and label) order, and
//     the Prometheus rendering (snapshot.go) has no map walks — its text is
//     a pure function of the metric values.
//   - Nothing samples goroutine-scheduling state (queue depths observed
//     from channel lengths, and the like): a metric whose value depends on
//     the schedule can never be bit-identical across runs.
//
// Hot-path cost: Counter.Add is one atomic add; Histogram.Observe is a
// short binary search plus two adds under the histogram's own lock (every
// Observe site runs per block, payload, frame or header, never per query).
// TestInstrumentsAllocationFree holds both to zero allocations. Every type
// is nil-receiver safe, so optional instrumentation needs no guards.
package obs

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds one subsystem's metrics. Each instrumented component
// (canister, adapter, fleet) owns its own registry — a fresh registry per
// instance is what keeps seeded runs independent of test ordering — and
// prefixes its metric names (canister_*, adapter_*, fleet_*) so snapshots
// merge without collisions.
type Registry struct {
	clock  atomic.Value // func() time.Time
	tracer *Tracer

	mu     sync.Mutex
	byName map[string]any // registration index (duplicate-name guard)

	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	families []*Family
}

// NewRegistry returns an empty registry on the wall clock, with a disabled
// tracer attached.
func NewRegistry() *Registry {
	r := &Registry{byName: make(map[string]any), tracer: NewTracer(defaultTraceCap)}
	r.clock.Store(time.Now)
	return r
}

// SetClock installs the registry's (and its tracer's) time source — the
// seeded scheduler's Now in deterministic runs. nil restores the wall clock.
func (r *Registry) SetClock(now func() time.Time) {
	if r == nil {
		return
	}
	if now == nil {
		now = time.Now
	}
	r.clock.Store(now)
	r.tracer.SetClock(now)
}

// Now reads the registry clock. All instrumentation timing must use it —
// never time.Now directly — so seeded runs stay deterministic.
func (r *Registry) Now() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.clock.Load().(func() time.Time)()
}

// Tracer returns the registry's event tracer.
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// Trace emits one tracer event (no-op unless the tracer is enabled).
func (r *Registry) Trace(name, detail string) { r.Tracer().Emit(name, detail) }

// register indexes a new metric under its name, panicking on duplicates —
// a duplicate registration is a wiring bug, not a runtime condition.
func (r *Registry) register(name string, m any) {
	if _, dup := r.byName[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	r.byName[name] = m
}

// Counter returns the registered counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m.(*Counter)
	}
	c := &Counter{name: name}
	r.register(name, c)
	r.counters = append(r.counters, c)
	return c
}

// Gauge returns the registered gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m.(*Gauge)
	}
	g := &Gauge{name: name}
	r.register(name, g)
	r.gauges = append(r.gauges, g)
	return g
}

// Histogram returns the registered histogram, creating it with the given
// bucket boundaries on first use (later calls ignore bounds). Boundaries
// must be strictly ascending; see NewHistogramBuckets for the semantics.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m.(*Histogram)
	}
	h := newHistogram(name, bounds)
	r.register(name, h)
	r.hists = append(r.hists, h)
	return h
}

// Family returns the registered labeled counter family, creating it on
// first use. label is the single label key (e.g. "method", "class").
func (r *Registry) Family(name, label string) *Family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m.(*Family)
	}
	f := &Family{name: name, label: label, children: make(map[string]*Counter)}
	r.register(name, f)
	r.families = append(r.families, f)
	return f
}

// Counter is a monotonic uint64 counter. Add is one atomic add.
type Counter struct {
	v    atomic.Uint64
	name string
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 value.
type Gauge struct {
	v    atomic.Int64
	name string
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram over int64 values (durations are
// observed as nanoseconds). Boundaries B0 < B1 < ... < B(m-1) define m+1
// buckets:
//
//	counts[0]   — the underflow bucket, v < B0
//	counts[i]   — B(i-1) <= v < B(i)   (boundary values round DOWN-bucket:
//	              an observation exactly at B(i) lands in the bucket whose
//	              lower bound it is)
//	counts[m]   — the overflow bucket, v >= B(m-1)
//
// Observe is allocation-free: a binary search over the boundaries plus
// two adds under mu. The count is the sum of the buckets, and a snapshot
// copies the buckets and the sum under the same lock, so a point's Sum and
// Count always come from one moment.
type Histogram struct {
	name   string
	bounds []int64

	mu     sync.Mutex
	counts []uint64
	sum    int64
}

func newHistogram(name string, bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram " + name + " needs at least one bucket boundary")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram " + name + " boundaries must be strictly ascending")
		}
	}
	return &Histogram{
		name:   name,
		bounds: append([]int64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// First i with v < bounds[i]: 0 is the underflow bucket, len(bounds)
	// the overflow bucket.
	i := sort.Search(len(h.bounds), func(i int) bool { return v < h.bounds[i] })
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.mu.Unlock()
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// point copies the histogram's buckets and sum under its lock.
func (h *Histogram) point() HistogramPoint {
	p := HistogramPoint{Name: h.name, Bounds: slices.Clone(h.bounds)}
	h.mu.Lock()
	p.Counts = slices.Clone(h.counts)
	p.Sum = h.sum
	h.mu.Unlock()
	for _, c := range p.Counts {
		p.Count += c
	}
	return p
}

// Family is a set of counters sharing one metric name, distinguished by a
// single label. Children are created on first use; iteration (and the
// snapshot) is always in sorted label order, regardless of insertion order.
type Family struct {
	name, label string

	mu       sync.RWMutex
	children map[string]*Counter
}

// With returns the child counter for one label value, creating it on first
// use. The read path is an RLock map hit.
func (f *Family) With(value string) *Counter {
	if f == nil {
		return nil
	}
	f.mu.RLock()
	c := f.children[value]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c := f.children[value]; c != nil {
		return c
	}
	c = &Counter{name: f.name + "{" + f.label + "=" + value + "}"}
	f.children[value] = c
	return c
}

// Do calls fn for every child in sorted label order — the deterministic
// iteration every consumer (snapshot, exposition) goes through.
func (f *Family) Do(fn func(value string, c *Counter)) {
	if f == nil {
		return
	}
	f.mu.RLock()
	labels := make([]string, 0, len(f.children))
	for v := range f.children {
		labels = append(labels, v)
	}
	f.mu.RUnlock()
	sort.Strings(labels)
	for _, v := range labels {
		f.mu.RLock()
		c := f.children[v]
		f.mu.RUnlock()
		fn(v, c)
	}
}

// DurationBuckets are the default boundaries for duration histograms, in
// nanoseconds: 100µs to 10s, roughly 3x apart. The underflow bucket absorbs
// sub-100µs observations — including the all-zero durations a virtual clock
// produces in seeded runs.
var DurationBuckets = []int64{
	100_000, 300_000, // 100µs, 300µs
	1_000_000, 3_000_000, // 1ms, 3ms
	10_000_000, 30_000_000, // 10ms, 30ms
	100_000_000, 300_000_000, // 100ms, 300ms
	1_000_000_000, 3_000_000_000, 10_000_000_000, // 1s, 3s, 10s
}
