package simnet

import (
	"testing"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	s.After(30*time.Millisecond, func() { order = append(order, 3) })
	s.After(10*time.Millisecond, func() { order = append(order, 1) })
	s.After(20*time.Millisecond, func() { order = append(order, 2) })
	s.Drain(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
}

func TestSchedulerSameInstantFIFO(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	at := s.Now().Add(time.Second)
	for i := 0; i < 5; i++ {
		i := i
		s.At(at, func() { order = append(order, i) })
	}
	s.Drain(100)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events out of order: %v", order)
		}
	}
}

func TestSchedulerClockAdvances(t *testing.T) {
	s := NewScheduler(1)
	start := s.Now()
	var at time.Time
	s.After(5*time.Second, func() { at = s.Now() })
	s.Drain(10)
	if got := at.Sub(start); got != 5*time.Second {
		t.Fatalf("event ran at +%v", got)
	}
	// Past-time scheduling clamps to now.
	ran := false
	s.At(start, func() { ran = true })
	s.Step()
	if !ran || s.Now().Before(at) {
		t.Fatal("past event handling wrong")
	}
}

func TestRunUntilAndRunFor(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.After(time.Duration(i)*time.Second, func() { count++ })
	}
	n := s.RunFor(5 * time.Second)
	if n != 5 || count != 5 {
		t.Fatalf("n=%d count=%d", n, count)
	}
	// Clock must have advanced to the deadline even without events there.
	if s.Now().Sub(time.Unix(1_700_000_000, 0).UTC()) != 5*time.Second {
		t.Fatalf("clock at %v", s.Now())
	}
	s.RunFor(100 * time.Second)
	if count != 10 {
		t.Fatalf("count %d", count)
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	run := func() []int64 {
		s := NewScheduler(42)
		var samples []int64
		for i := 0; i < 10; i++ {
			d := time.Duration(s.Rand().Int63n(int64(time.Second)))
			s.After(d, func() { samples = append(samples, s.Now().UnixNano()) })
		}
		s.Drain(100)
		return samples
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("runs differ")
		}
	}
}

type recorder struct {
	msgs []any
	from []NodeID
}

func (r *recorder) Receive(from NodeID, msg any) {
	r.msgs = append(r.msgs, msg)
	r.from = append(r.from, from)
}

func TestNetworkDelivery(t *testing.T) {
	s := NewScheduler(1)
	n := NewNetwork(s)
	a, b := &recorder{}, &recorder{}
	n.Register("a", a)
	n.Register("b", b)

	n.Send("a", "b", "hello")
	s.Drain(10)
	if len(b.msgs) != 1 || b.msgs[0] != "hello" || b.from[0] != "a" {
		t.Fatalf("b got %v", b.msgs)
	}
	if len(a.msgs) != 0 {
		t.Fatal("sender received its own message")
	}
	sent, delivered, dropped := n.Stats()
	if sent != 1 || delivered != 1 || dropped != 0 {
		t.Fatalf("stats %d/%d/%d", sent, delivered, dropped)
	}
}

// TestNetworkLatencyApplied: an unprofiled link delays every message by the
// default model, 20ms base plus up to 30ms jitter.
func TestNetworkLatencyApplied(t *testing.T) {
	s := NewScheduler(1)
	n := NewNetwork(s)
	var delays []time.Duration
	n.Register("b", endpointFunc(func(_ NodeID, msg any) {
		delays = append(delays, s.Now().Sub(msg.(time.Time)))
	}))
	for i := 0; i < 100; i++ {
		n.Send("a", "b", s.Now())
		s.RunFor(time.Millisecond)
	}
	s.Drain(200)
	if len(delays) != 100 {
		t.Fatalf("delivered %d of 100 over an unprofiled link", len(delays))
	}
	for _, d := range delays {
		if d < 20*time.Millisecond || d >= 50*time.Millisecond {
			t.Fatalf("delivered after %v, outside [20ms, 50ms)", d)
		}
	}
}

type endpointFunc func(NodeID, any)

func (f endpointFunc) Receive(from NodeID, msg any) { f(from, msg) }

func TestNetworkDrops(t *testing.T) {
	s := NewScheduler(1)
	n := NewNetwork(s)
	r := &recorder{}
	n.Register("b", r)

	// Unknown destination: dropped.
	n.Send("a", "nobody", 1)
	// Crashed destination: a partition of one.
	n.SetPartition("b", "b")
	n.Send("a", "b", 2)
	n.SetPartition("b", "")
	// Crashed sender.
	n.SetPartition("a", "a")
	n.Send("a", "b", 3)
	n.SetPartition("a", "")
	s.Drain(10)
	if len(r.msgs) != 0 {
		t.Fatalf("messages leaked: %v", r.msgs)
	}
	_, _, dropped := n.Stats()
	if dropped != 3 {
		t.Fatalf("dropped %d, want 3", dropped)
	}
}

func TestNetworkPartition(t *testing.T) {
	s := NewScheduler(1)
	n := NewNetwork(s)
	b, c := &recorder{}, &recorder{}
	n.Register("b", b)
	n.Register("c", c)

	n.SetPartition("a", "east")
	n.SetPartition("b", "east")
	// c stays in the default group.
	n.Send("a", "b", "in-group")
	n.Send("a", "c", "cross-group")
	s.Drain(10)
	if len(b.msgs) != 1 {
		t.Fatalf("b got %d messages", len(b.msgs))
	}
	if len(c.msgs) != 0 {
		t.Fatal("partition leaked")
	}

	n.HealPartitions()
	n.Send("a", "c", "healed")
	s.Drain(10)
	if len(c.msgs) != 1 {
		t.Fatal("heal failed")
	}
}

func TestNetworkPartitionRaisedInFlight(t *testing.T) {
	s := NewScheduler(1)
	n := NewNetwork(s)
	r := &recorder{}
	n.Register("b", r)
	n.Send("a", "b", 1)
	// Partition raised while the message is in flight.
	n.SetPartition("b", "island")
	s.Drain(10)
	if len(r.msgs) != 0 {
		t.Fatal("in-flight message crossed a partition")
	}
}

func TestNetworkLossRate(t *testing.T) {
	s := NewScheduler(7)
	n := NewNetwork(s)
	n.SetLinkProfile("a", "b", &LinkProfile{LossRate: 0.5})
	r := &recorder{}
	n.Register("b", r)
	const total = 1000
	for i := 0; i < total; i++ {
		n.Send("a", "b", i)
	}
	s.Drain(total * 2)
	got := len(r.msgs)
	if got < total/3 || got > 2*total/3 {
		t.Fatalf("with 50%% loss, delivered %d of %d", got, total)
	}
	// Loss rate outside [0,1) is clamped.
	for _, c := range []struct{ set, want float64 }{{-1, 0}, {2, 0.999}} {
		n.SetLinkProfile("a", "b", &LinkProfile{LossRate: c.set})
		if got := n.links[linkKey{"a", "b"}].profile.LossRate; got != c.want {
			t.Fatalf("LossRate %v installed as %v, want %v", c.set, got, c.want)
		}
	}
}
