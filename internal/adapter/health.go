package adapter

import (
	"time"

	"icbtc/internal/simnet"
)

// State is the adapter's coarse operating state, reported to the canister on
// every response so the stack above can serve with an explicit staleness
// annotation instead of silently aging.
type State uint8

const (
	// StateUnknown is the zero value: no adapter report has been seen yet
	// (e.g. a freshly restored canister before its first payload).
	StateUnknown State = iota
	// StateSyncing is normal operation: peers are responding.
	StateSyncing
	// StateDegraded means the stall detector fired: no peer has produced any
	// response for at least stallTimeout. Headers/blocks served from
	// the adapter's tree may be arbitrarily stale.
	StateDegraded
)

func (s State) String() string {
	switch s {
	case StateSyncing:
		return "syncing"
	case StateDegraded:
		return "degraded"
	default:
		return "unknown"
	}
}

// Health is the adapter's self-report, carried on every Response.
type Health struct {
	State State
	// Height is the adapter's best known header height.
	Height int64
	// PendingBlocks is the number of in-flight block downloads.
	PendingBlocks int
	// Peers is the number of live peer connections.
	Peers int
}

// peerHealth tracks one Bitcoin peer's quality. Scores feed candidate
// ranking in fillConnections and the cooldown/ban list: a peer that times
// out or serves invalid data is deprioritized and eventually rotated out.
type peerHealth struct {
	// timeouts counts requests (getheaders or targeted getdata) the peer
	// failed to answer within the deadline, plus targeted not-found misses.
	timeouts int
	// invalid counts invalid headers/blocks the peer served.
	invalid int
	// latencyEWMA is an exponentially weighted moving average of the peer's
	// getheaders response latency, in seconds.
	latencyEWMA float64
	hasLatency  bool
	// banUntil puts the peer on the cooldown list until the given time.
	banUntil time.Time
	lastSeen time.Time
}

// score is the ranking key: lower is better. Timeouts weigh 1, invalid
// responses 2 (serving bad data is worse than being slow), and the latency
// EWMA contributes its value in seconds.
func (p *peerHealth) score() float64 {
	return float64(p.timeouts) + 2*float64(p.invalid) + p.latencyEWMA
}

func (p *peerHealth) observeLatency(d time.Duration) {
	s := d.Seconds()
	if !p.hasLatency {
		p.latencyEWMA = s
		p.hasLatency = true
		return
	}
	p.latencyEWMA = 0.8*p.latencyEWMA + 0.2*s
}

// blockRequest is the lifecycle record of one in-flight block download.
type blockRequest struct {
	// attempts counts issues of this request; it drives the exponential
	// backoff and resets when the adapter recovers from a stall.
	attempts int
	// issue increments on every (re-)issue and never resets; a scheduled
	// retry timer captures it so a timer belonging to a superseded issue
	// dies instead of double-retrying.
	issue int
	// sentAt is the time of the last issue.
	sentAt time.Time
	// peer is the sole target of a targeted issue ("" for broadcasts); a
	// deadline miss is charged to it.
	peer simnet.NodeID
}

// peer returns (creating on demand) the health record for a peer.
func (a *Adapter) peer(id simnet.NodeID) *peerHealth {
	ph := a.peerHealth[id]
	if ph == nil {
		ph = &peerHealth{}
		a.peerHealth[id] = ph
	}
	return ph
}

// PeerScore returns a peer's current health score (0 = perfect/unknown).
func (a *Adapter) PeerScore(id simnet.NodeID) float64 {
	if ph := a.peerHealth[id]; ph != nil {
		return ph.score()
	}
	return 0
}

// PeerBanned reports whether a peer is currently on the cooldown list.
func (a *Adapter) PeerBanned(id simnet.NodeID) bool {
	ph := a.peerHealth[id]
	return ph != nil && a.net.Scheduler().Now().Before(ph.banUntil)
}

// Degraded reports whether the stall detector has fired.
func (a *Adapter) Degraded() bool { return a.degraded }

// Health assembles the adapter's current self-report.
func (a *Adapter) Health() Health {
	st := StateSyncing
	if a.degraded {
		st = StateDegraded
	}
	return Health{
		State:         st,
		Height:        a.tree.MaxHeight(),
		PendingBlocks: len(a.requestedBlocks),
		Peers:         len(a.connected),
	}
}

// chargeTimeout records a missed deadline against a peer.
func (a *Adapter) chargeTimeout(id simnet.NodeID) {
	a.met.timeouts.Inc()
	ph := a.peer(id)
	ph.timeouts++
	a.maybeBan(id, ph)
}

// chargeInvalid records an invalid header/block served by a peer.
func (a *Adapter) chargeInvalid(id simnet.NodeID) {
	a.met.invalid.Inc()
	ph := a.peer(id)
	ph.invalid++
	a.maybeBan(id, ph)
}

// maybeBan puts a peer whose score crossed the ban threshold on the
// cooldown list, resets its counters (the ban IS the penalty; stale strikes
// must not instantly re-ban a recovered peer), and rotates it out of the
// connection set.
func (a *Adapter) maybeBan(id simnet.NodeID, ph *peerHealth) {
	if ph.score() < peerBanScore {
		return
	}
	a.met.bans.Inc()
	ph.banUntil = a.net.Scheduler().Now().Add(peerCooldown)
	ph.timeouts, ph.invalid = 0, 0
	ph.latencyEWMA, ph.hasLatency = 0, false
	if a.connected[id] {
		a.DropConnection(id)
	}
}

// noteResponse marks a peer (and the network as a whole) alive. Leaving the
// degraded state re-kicks every pending block download: backoff clocks that
// grew long during the stall must not delay recovery after heal.
func (a *Adapter) noteResponse(from simnet.NodeID) {
	a.met.responses.Inc()
	now := a.net.Scheduler().Now()
	a.lastResponse = now
	a.peer(from).lastSeen = now
	if a.degraded {
		a.degraded = false
		a.met.stateChanges.With(StateSyncing.String()).Inc()
		a.rekickPendingBlocks()
	}
}

// rekickPendingBlocks restarts the lifecycle of every in-flight block
// download: attempts reset (fresh backoff), immediate re-issue.
func (a *Adapter) rekickPendingBlocks() {
	hashes := a.pendingBlockHashes()
	for _, h := range hashes {
		if req := a.requestedBlocks[h]; req != nil {
			req.attempts = 0
			a.requestBlock(h)
		}
	}
}
