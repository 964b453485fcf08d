package simnet

import (
	"testing"
	"time"
)

func TestLatencyModelSampleBounds(t *testing.T) {
	s := NewScheduler(3)
	l := LatencyModel{Base: 40 * time.Millisecond, Jitter: 25 * time.Millisecond}
	for i := 0; i < 1000; i++ {
		d := l.sample(s)
		if d < l.Base || d >= l.Base+l.Jitter {
			t.Fatalf("sample %v outside [%v, %v)", d, l.Base, l.Base+l.Jitter)
		}
	}
	// Zero jitter is exactly Base, and must not consume RNG state.
	if (LatencyModel{Base: time.Second}).sample(s) != time.Second {
		t.Fatal("zero-jitter sample != Base")
	}
	a, b := NewScheduler(9), NewScheduler(9)
	(LatencyModel{Base: 7 * time.Millisecond}).sample(a)
	if a.Rand().Int63() != b.Rand().Int63() {
		t.Fatal("zero-jitter sample consumed RNG state")
	}
}

func TestLatencyModelSampleDeterminism(t *testing.T) {
	run := func() []time.Duration {
		s := NewScheduler(77)
		l := LatencyModel{Base: 10 * time.Millisecond, Jitter: 90 * time.Millisecond}
		out := make([]time.Duration, 200)
		for i := range out {
			out[i] = l.sample(s)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestNetworkStatsAccounting checks sent == delivered + dropped once the
// network quiesces, across loss, partitions, and crash faults.
func TestNetworkStatsAccounting(t *testing.T) {
	s := NewScheduler(11)
	n := NewNetwork(s)
	r := &recorder{}
	n.Register("a", &recorder{})
	n.Register("b", r)
	n.SetLinkProfile("a", "b", &LinkProfile{LossRate: 0.3})

	const total = 500
	for i := 0; i < total; i++ {
		if i == 200 {
			n.SetPartition("b", "island")
		}
		if i == 300 {
			n.HealPartitions()
		}
		if i == 350 {
			n.SetDown("b", true)
		}
		if i == 400 {
			n.SetDown("b", false)
		}
		n.Send("a", "b", i)
	}
	s.Drain(total * 2)

	sent, delivered, dropped := n.Stats()
	if sent != total {
		t.Fatalf("sent %d, want %d", sent, total)
	}
	if delivered+dropped != sent {
		t.Fatalf("delivered(%d)+dropped(%d) != sent(%d)", delivered, dropped, sent)
	}
	if int(delivered) != len(r.msgs) {
		t.Fatalf("delivered counter %d != receives %d", delivered, len(r.msgs))
	}
	if delivered == 0 || dropped == 0 {
		t.Fatalf("degenerate run: delivered=%d dropped=%d", delivered, dropped)
	}
}

// TestLinkProfileOverridesDefaults: a profile's latency replaces the
// default, and removing the profile returns the link to the default model.
func TestLinkProfileOverridesDefaults(t *testing.T) {
	s := NewScheduler(5)
	n := NewNetwork(s)

	var delays []time.Duration
	n.Register("b", endpointFunc(func(_ NodeID, msg any) {
		delays = append(delays, s.Now().Sub(msg.(time.Time)))
	}))
	n.SetLinkProfile("a", "b", &LinkProfile{
		Latency: LatencyModel{Base: 250 * time.Millisecond},
	})

	for i := 0; i < 50; i++ {
		n.Send("a", "b", s.Now())
	}
	s.Drain(200)
	if len(delays) != 50 {
		t.Fatalf("delivered %d of 50 over a lossless profiled link", len(delays))
	}
	for _, d := range delays {
		if d != 250*time.Millisecond {
			t.Fatalf("delivery at +%v, want +250ms", d)
		}
	}

	// Removing the profile restores the default model.
	n.SetLinkProfile("a", "b", nil)
	if n.LinkProfileCount() != 0 {
		t.Fatal("profile not removed")
	}
	delays = nil
	for i := 0; i < 200; i++ {
		n.Send("a", "b", s.Now())
	}
	s.Drain(500)
	if len(delays) != 200 {
		t.Fatalf("default link delivered %d of 200", len(delays))
	}
	for _, d := range delays {
		if d < 20*time.Millisecond || d >= 50*time.Millisecond {
			t.Fatalf("default delivery at +%v, outside [20ms, 50ms)", d)
		}
	}
}

func TestLinkProfileDirected(t *testing.T) {
	s := NewScheduler(5)
	n := NewNetwork(s)
	a, b := &recorder{}, &recorder{}
	n.Register("a", a)
	n.Register("b", b)
	// Kill only the a→b direction; b→a stays clean.
	n.SetLinkProfile("a", "b", &LinkProfile{LossRate: 0.9999})
	for i := 0; i < 100; i++ {
		n.Send("a", "b", i)
		n.Send("b", "a", i)
	}
	s.Drain(500)
	if len(a.msgs) != 100 {
		t.Fatalf("reverse direction degraded: %d of 100", len(a.msgs))
	}
	if len(b.msgs) > 10 {
		t.Fatalf("lossy direction delivered %d of 100", len(b.msgs))
	}
}

func TestLinkProfileSpikeEpisodes(t *testing.T) {
	s := NewScheduler(31)
	n := NewNetwork(s)
	r := &recorder{}
	_ = r
	var delays []time.Duration
	n.Register("b", endpointFunc(func(_ NodeID, msg any) {
		delays = append(delays, s.Now().Sub(msg.(time.Time)))
	}))
	n.SetLinkProfile("a", "b", &LinkProfile{
		Latency:       LatencyModel{Base: 10 * time.Millisecond},
		SpikeRate:     0.1,
		SpikeFactor:   20,
		SpikeDuration: time.Second,
	})
	for i := 0; i < 200; i++ {
		n.Send("a", "b", s.Now())
		s.RunFor(20 * time.Millisecond)
	}
	s.Drain(500)
	spiked, normal := 0, 0
	for _, d := range delays {
		switch d {
		case 10 * time.Millisecond:
			normal++
		case 200 * time.Millisecond:
			spiked++
		default:
			t.Fatalf("unexpected delay %v", d)
		}
	}
	if spiked == 0 || normal == 0 {
		t.Fatalf("expected both spiked and normal deliveries, got %d/%d", spiked, normal)
	}
	// Episodes stretch runs of messages: with SpikeDuration=1s and a message
	// every 20ms, a single episode covers dozens of consecutive sends, so
	// spiked must exceed the per-message entry count implied by rate alone.
	if spiked < 20 {
		t.Fatalf("spike episodes too short: %d spiked deliveries", spiked)
	}
}

func TestLinkProfileFlapping(t *testing.T) {
	s := NewScheduler(41)
	n := NewNetwork(s)
	r := &recorder{}
	n.Register("b", r)
	n.SetLinkProfile("a", "b", &LinkProfile{
		FlapPeriod: 100 * time.Millisecond,
		FlapDown:   40 * time.Millisecond,
	})
	const total = 300
	for i := 0; i < total; i++ {
		n.Send("a", "b", i)
		s.RunFor(time.Millisecond)
	}
	s.Drain(total * 2)
	got := len(r.msgs)
	// ~60% of the cycle is up; allow a wide band.
	if got < total/3 || got > total*5/6 {
		t.Fatalf("flapping link delivered %d of %d", got, total)
	}
	// Down windows are contiguous: the drop pattern must contain a run of
	// ~40 consecutive losses, not i.i.d. noise.
	seen := make(map[int]bool, got)
	for _, m := range r.msgs {
		seen[m.(int)] = true
	}
	longestGap, gap := 0, 0
	for i := 0; i < total; i++ {
		if seen[i] {
			gap = 0
			continue
		}
		gap++
		if gap > longestGap {
			longestGap = gap
		}
	}
	if longestGap < 20 {
		t.Fatalf("losses not bursty (longest run %d); flapping not contiguous", longestGap)
	}
}

// TestLinkProfileDeterminism re-runs a degraded-link workload with equal
// seeds and requires identical delivery traces.
func TestLinkProfileDeterminism(t *testing.T) {
	run := func() []any {
		s := NewScheduler(99)
		n := NewNetwork(s)
		r := &recorder{}
		n.Register("b", r)
		n.SetLinkProfile("a", "b", &LinkProfile{
			Latency:       LatencyModel{Base: 5 * time.Millisecond, Jitter: 45 * time.Millisecond},
			LossRate:      0.2,
			SpikeRate:     0.05,
			SpikeFactor:   10,
			SpikeDuration: 300 * time.Millisecond,
			FlapPeriod:    700 * time.Millisecond,
			FlapDown:      150 * time.Millisecond,
		})
		for i := 0; i < 300; i++ {
			n.Send("a", "b", i)
			s.RunFor(3 * time.Millisecond)
		}
		s.Drain(2000)
		return r.msgs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestZeroProfileIsUnprofiled: a link holding the zero profile and a link
// holding none draw the same numbers, so at one seed they deliver the same
// messages at the same instants.
func TestZeroProfileIsUnprofiled(t *testing.T) {
	type delivery struct {
		msg int
		at  time.Duration
	}
	run := func(profiled bool) []delivery {
		s := NewScheduler(17)
		n := NewNetwork(s)
		start := s.Now()
		var trace []delivery
		n.Register("b", endpointFunc(func(_ NodeID, msg any) {
			trace = append(trace, delivery{msg.(int), s.Now().Sub(start)})
		}))
		if profiled {
			n.SetLinkProfile("a", "b", &LinkProfile{})
		}
		for i := 0; i < 300; i++ {
			n.Send("a", "b", i)
			s.RunFor(3 * time.Millisecond)
		}
		s.Drain(1000)
		return trace
	}
	a, b := run(false), run(true)
	if len(a) != 300 {
		t.Fatalf("unprofiled link delivered %d of 300", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
