// Package simnet provides the deterministic simulation fabric the rest of
// the repository runs on: a discrete-event scheduler with a virtual clock,
// a seeded RNG, and an in-process message-passing network with configurable
// latency, loss, and partitions.
//
// Running on virtual time makes every simulation deterministic and fast: a
// "10 second" replicated call completes in microseconds of wall-clock time
// while still taking 10 seconds of simulated time.
package simnet

import (
	"container/heap"
	"math/rand"
	"time"
)

// Event is a scheduled callback.
type event struct {
	at  time.Time
	seq uint64 // tie-break so same-instant events run in schedule order
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Scheduler is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use; the whole simulation runs on one goroutine, which is
// what makes runs reproducible.
type Scheduler struct {
	now   time.Time
	queue eventQueue
	seq   uint64
	rng   *rand.Rand
}

// NewScheduler creates a scheduler starting at a fixed epoch with a seeded
// RNG. All randomness in a simulation must come from Rand() to keep runs
// reproducible.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{
		now: time.Unix(1_700_000_000, 0).UTC(),
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time { return s.now }

// Rand returns the simulation's deterministic RNG.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// After schedules fn to run after a virtual delay.
func (s *Scheduler) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now.Add(d), fn)
}

// At schedules fn at an absolute virtual time (clamped to now).
func (s *Scheduler) At(t time.Time, fn func()) {
	if t.Before(s.now) {
		t = s.now
	}
	s.seq++
	heap.Push(&s.queue, &event{at: t, seq: s.seq, fn: fn})
}

// Step runs the next event, advancing the clock. It reports whether an
// event was run.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(*event)
	s.now = e.at
	e.fn()
	return true
}

// RunUntil processes events until the queue is empty or the virtual clock
// passes deadline. It returns the number of events processed.
func (s *Scheduler) RunUntil(deadline time.Time) int {
	n := 0
	for len(s.queue) > 0 && !s.queue[0].at.After(deadline) {
		s.Step()
		n++
	}
	if s.now.Before(deadline) {
		s.now = deadline
	}
	return n
}

// RunFor advances the simulation by a virtual duration.
func (s *Scheduler) RunFor(d time.Duration) int {
	return s.RunUntil(s.now.Add(d))
}

// Drain runs events until none remain or the safety cap is hit, returning
// the number processed. The cap guards against event loops that reschedule
// themselves forever.
func (s *Scheduler) Drain(maxEvents int) int {
	n := 0
	for n < maxEvents && s.Step() {
		n++
	}
	return n
}

// Pending returns the number of queued events.
func (s *Scheduler) Pending() int { return len(s.queue) }
