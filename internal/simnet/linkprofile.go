package simnet

import "time"

// LinkProfile describes the delivery behavior of one directed link. A link
// without one behaves as the zero LinkProfile: lossless, at the default
// latency. Profiles model *degraded* links — lossy, slow, bursty, flapping —
// as opposed to the binary up/down faults of SetDown/SetPartition. Because a
// profile is directed, asymmetric links (fast down, slow up) are expressed
// by installing different profiles for the two directions.
//
// All random draws come from the scheduler's seeded RNG, so runs with a
// profile installed stay fully deterministic.
type LinkProfile struct {
	// Latency is the link's one-way delay. A zero LatencyModel means the
	// default, 20ms base and 30ms jitter.
	Latency LatencyModel
	// LossRate is the per-message drop probability in [0,1) for this link.
	LossRate float64

	// Latency-spike episodes: with probability SpikeRate per message, the
	// link enters an episode lasting SpikeDuration during which every
	// message's sampled delay is multiplied by SpikeFactor. Episodes model
	// bufferbloat / route-flap bursts rather than i.i.d. per-packet jitter.
	SpikeRate     float64
	SpikeFactor   float64
	SpikeDuration time.Duration

	// Link flapping: when FlapPeriod > 0 the link is down for FlapDown out
	// of every FlapPeriod, on a schedule offset drawn once (seeded) when the
	// profile is installed. Messages sent while the link is down are dropped.
	FlapPeriod time.Duration
	FlapDown   time.Duration
}

// linkKey identifies a directed link.
type linkKey struct {
	from, to NodeID
}

// link is the per-directed-link runtime state of a profile.
type link struct {
	profile LinkProfile
	// spikeUntil is the end of the current latency-spike episode.
	spikeUntil time.Time
	// flapOffset randomizes (deterministically) where in the flap cycle
	// this link starts, so several flapping links don't beat in sync.
	flapOffset time.Duration
}

// SetLinkProfile installs a profile on the directed link from→to. Passing
// nil removes the profile, returning the link to the zero profile. The
// flap-schedule offset is drawn from the scheduler RNG at install time.
func (n *Network) SetLinkProfile(from, to NodeID, p *LinkProfile) {
	if n.links == nil {
		n.links = make(map[linkKey]*link)
	}
	key := linkKey{from, to}
	if p == nil {
		delete(n.links, key)
		return
	}
	prof := *p
	if prof.LossRate < 0 {
		prof.LossRate = 0
	}
	if prof.LossRate >= 1 {
		prof.LossRate = 0.999
	}
	l := &link{profile: prof}
	if prof.FlapPeriod > 0 {
		l.flapOffset = time.Duration(n.sched.Rand().Int63n(int64(prof.FlapPeriod)))
	}
	n.links[key] = l
}

// LinkProfileCount returns the number of installed link profiles.
func (n *Network) LinkProfileCount() int { return len(n.links) }

// flapDown reports whether a flapping link is in the down part of its cycle
// at virtual time t. The schedule is a pure function of (t, offset), so no
// RNG is consumed by the check and delivery-time re-checks are consistent.
func (l *link) flapDown(t time.Time) bool {
	p := l.profile
	if p.FlapPeriod <= 0 || p.FlapDown <= 0 {
		return false
	}
	phase := (time.Duration(t.UnixNano()) + l.flapOffset) % p.FlapPeriod
	return phase < p.FlapDown
}

// plan computes the delivery plan for one message on this link: whether it
// is dropped, and its delay. All draws come from the scheduler RNG in a
// fixed order so equal seeds replay identically; on the zero profile the
// only draw is one latency sample.
func (l *link) plan(n *Network) (drop bool, delay time.Duration) {
	p := l.profile
	now := n.sched.Now()
	rng := n.sched.Rand()

	if l.flapDown(now) {
		return true, 0
	}
	if p.LossRate > 0 && rng.Float64() < p.LossRate {
		return true, 0
	}

	lat := p.Latency
	if lat == (LatencyModel{}) {
		lat = defaultLatency
	}
	delay = lat.sample(n.sched)

	// Spike episodes: entering is a per-message draw; while inside one,
	// every message is stretched.
	if p.SpikeRate > 0 && p.SpikeFactor > 1 {
		if now.Before(l.spikeUntil) {
			delay = time.Duration(float64(delay) * p.SpikeFactor)
		} else if rng.Float64() < p.SpikeRate {
			l.spikeUntil = now.Add(p.SpikeDuration)
			delay = time.Duration(float64(delay) * p.SpikeFactor)
		}
	}
	return false, delay
}
