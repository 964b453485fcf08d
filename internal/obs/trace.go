package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// defaultTraceCap bounds the tracer's event buffer. Events past the cap are
// counted (Dropped) rather than stored, so an enabled tracer can't grow
// without bound in a long soak.
const defaultTraceCap = 1 << 14

// Event is one tracer record: a timestamp from the owning registry's clock,
// a short name, and an optional detail string.
type Event struct {
	At     time.Time
	Name   string
	Detail string
}

// Tracer is a lightweight event recorder. It is disabled by default, and
// while it is, Emit, Enabled and Span are one atomic load: they take no lock
// and allocate nothing, so concurrent instrumented hot paths (every executed
// query of every replica) do not serialize on a tracer nobody reads. Like
// the registry it reads time through an injectable clock, so traces from
// seeded runs are deterministic.
type Tracer struct {
	enabled atomic.Bool
	mu      sync.Mutex // guards the fields below
	clock   func() time.Time
	cap     int
	events  []Event
	dropped uint64
}

// NewTracer returns a disabled tracer on the wall clock holding at most
// capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = defaultTraceCap
	}
	return &Tracer{clock: time.Now, cap: capacity}
}

// SetClock installs the tracer's time source (nil restores the wall clock).
func (t *Tracer) SetClock(now func() time.Time) {
	if t == nil {
		return
	}
	if now == nil {
		now = time.Now
	}
	t.mu.Lock()
	t.clock = now
	t.mu.Unlock()
}

// SetEnabled turns event recording on or off. Turning it on does not clear
// previously recorded events; use Reset for that.
func (t *Tracer) SetEnabled(on bool) {
	if t == nil {
		return
	}
	t.enabled.Store(on)
}

// Enabled reports whether the tracer records events.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Reset discards all recorded events and the dropped count.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = nil
	t.dropped = 0
	t.mu.Unlock()
}

// Emit records one event (no-op while disabled). Past the buffer cap the
// event is dropped and counted.
func (t *Tracer) Emit(name, detail string) {
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) >= t.cap {
		t.dropped++
		return
	}
	t.events = append(t.events, Event{At: t.clock(), Name: name, Detail: detail})
}

// Span records a begin event and returns a func recording the matching end
// event with the elapsed duration (per the tracer clock) in its detail.
// The returned func is safe to call on a nil or disabled tracer.
func (t *Tracer) Span(name string) func() {
	if !t.Enabled() {
		return func() {}
	}
	t.mu.Lock()
	start := t.clock()
	t.mu.Unlock()
	t.Emit(name+":begin", "")
	return func() {
		t.mu.Lock()
		elapsed := t.clock().Sub(start)
		t.mu.Unlock()
		t.Emit(name+":end", elapsed.String())
	}
}

// Events copies out the recorded events and the dropped count.
func (t *Tracer) Events() ([]Event, uint64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...), t.dropped
}

// WriteText renders the recorded events one per line
// ("<unix-nanos> <name> <detail>") plus a trailing dropped-count line when
// events were lost.
func (t *Tracer) WriteText(w io.Writer) error {
	events, dropped := t.Events()
	for _, ev := range events {
		if _, err := fmt.Fprintf(w, "%d %s %s\n", ev.At.UnixNano(), ev.Name, ev.Detail); err != nil {
			return err
		}
	}
	if dropped > 0 {
		if _, err := fmt.Fprintf(w, "# dropped %d events (buffer cap %d)\n", dropped, t.cap); err != nil {
			return err
		}
	}
	return nil
}
