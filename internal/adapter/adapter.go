// Package adapter implements the Bitcoin adapter of §III-B: the sandboxed
// per-node process that connects the IC to the Bitcoin P2P network without
// intermediaries. The adapter
//
//   - discovers Bitcoin nodes starting from hard-coded seeds, collecting
//     addresses until an upper threshold t_u and replenishing below t_l,
//   - maintains ℓ connections to uniformly random Bitcoin nodes,
//   - downloads and validates block headers from genesis (well-formedness,
//     prev-pointer, difficulty bits, proof of work, timestamp) while doing
//     NO fork resolution — any valid header is stored,
//   - fetches blocks on demand and serves them to the Bitcoin canister via
//     Algorithm 1, and
//   - caches outbound transactions for 10 minutes and advertises them to
//     all connected peers.
package adapter

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"icbtc/internal/btc"
	"icbtc/internal/btcnode"
	"icbtc/internal/chain"
	"icbtc/internal/simnet"
)

// Config carries the §III-B parameters.
type Config struct {
	// Connections is ℓ, the number of Bitcoin peers (5 on mainnet).
	Connections int
	// AddrLowWater / AddrHighWater are t_l and t_u.
	AddrLowWater, AddrHighWater int
	// MaxHeaders is MAX_HEADERS, the N-set bound of Algorithm 1 (100).
	MaxHeaders int
	// MaxResponseBytes is MAX_SIZE, the soft block-byte bound (2 MiB).
	MaxResponseBytes int
	// MultiBlockSyncHeight: below this anchor height Algorithm 1 may return
	// many blocks per response (fast initial sync); at or above it, one
	// block per response (the conservative tip behavior, see §IV-A).
	MultiBlockSyncHeight int64
	// SyncInterval is how often the adapter polls peers for new headers.
	SyncInterval time.Duration
	// BlockRetryInterval is how long an in-flight getdata may go unanswered
	// before it is re-issued to the current peer set; it is also the base of
	// the exponential retry backoff (doubling per attempt up to
	// retryBackoffMax, jittered by RetryJitter). A peer that withholds a
	// requested block (or a partition that swallowed the request) must not
	// stall the fetch forever. Zero disables retries.
	BlockRetryInterval time.Duration
	// RetryJitter spreads each retry delay by ±(RetryJitter × delay), drawn
	// from the seeded scheduler RNG, so retries from many requests do not
	// synchronize into bursts.
	RetryJitter float64
	// RequestTimeout is the per-request deadline for getheaders round trips
	// (and the deadline charged against a targeted getdata peer at its first
	// retry). A peer missing the deadline takes a timeout strike. Zero
	// disables deadline tracking.
	RequestTimeout time.Duration
	// PeerBanScore is the health-score threshold at which a peer is put on
	// the cooldown list and rotated out (see peerHealth.score). Zero
	// disables banning.
	PeerBanScore float64
	// PeerCooldown is how long a banned peer stays excluded from the
	// connection draw.
	PeerCooldown time.Duration
	// StallTimeout flips the adapter into the Degraded state when no peer
	// has produced any response for this long. Zero disables the detector.
	StallTimeout time.Duration
}

const (
	// txCacheExpiry is the outbound transaction cache lifetime of §III-B.
	txCacheExpiry = 10 * time.Minute
	// retryBackoffMax caps the exponential retry backoff.
	retryBackoffMax = 80 * time.Second
)

// ConfigForNetwork returns the production parameters of §III-B for a
// network: t_l/t_u = 500/2000 mainnet, 100/1000 testnet, 1/1 regtest.
func ConfigForNetwork(n btc.Network) Config {
	cfg := Config{
		Connections:        5,
		MaxHeaders:         100,
		MaxResponseBytes:   2 << 20,
		SyncInterval:       2 * time.Second,
		BlockRetryInterval: 10 * time.Second,
		RetryJitter:        0.2,
		RequestTimeout:     5 * time.Second,
		PeerBanScore:       6,
		PeerCooldown:       60 * time.Second,
		StallTimeout:       6 * time.Second,
	}
	switch n {
	case btc.Mainnet:
		cfg.AddrLowWater, cfg.AddrHighWater = 500, 2000
	case btc.Testnet:
		cfg.AddrLowWater, cfg.AddrHighWater = 100, 1000
	default:
		cfg.AddrLowWater, cfg.AddrHighWater = 1, 1
	}
	return cfg
}

// BlockWithHeader pairs a block with its header, the elements of set B in
// Algorithm 1.
type BlockWithHeader struct {
	Block  *btc.Block
	Header btc.BlockHeader
}

// Request is the Bitcoin canister's update request to the adapter: the
// anchor β*, the set A of header hashes above the anchor whose blocks the
// canister already has, and outbound transactions T.
type Request struct {
	Anchor       btc.BlockHeader
	AnchorHeight int64
	Have         []btc.Hash
	Txs          [][]byte
}

// Response is the adapter's reply: blocks B extending the canister's tree
// and upcoming headers N, plus the adapter's health self-report so the
// canister (and the query fleet behind it) can annotate staleness.
type Response struct {
	Blocks []BlockWithHeader
	Next   []btc.BlockHeader
	Health Health
}

// cachedTx is a transaction awaiting advertisement, with its expiry.
type cachedTx struct {
	tx      *btc.Transaction
	expires time.Time
}

// Adapter is one node's Bitcoin adapter instance.
type Adapter struct {
	ID     simnet.NodeID
	cfg    Config
	params *btc.Params
	net    *simnet.Network
	dir    *btcnode.SeedDirectory

	// addressBook holds collected Bitcoin node addresses.
	addressBook []string
	addrSet     map[string]bool
	// connected holds the current ℓ peer connections.
	connected map[simnet.NodeID]bool

	// tree is B̄_a, the header tree; blocks is B_a.
	tree   *chain.Tree
	blocks map[btc.Hash]*btc.Block
	// requestedBlocks tracks the lifecycle of in-flight getdata requests:
	// attempts, issue counter, last send time, and the targeted peer.
	requestedBlocks map[btc.Hash]*blockRequest
	// headersPending stamps the time of the oldest unanswered getheaders per
	// peer; crossing RequestTimeout charges the peer a timeout strike.
	headersPending map[simnet.NodeID]time.Time
	// peerHealth scores every peer ever interacted with; it survives
	// Stop/Start (knowledge about the network outlives the process restart).
	peerHealth map[simnet.NodeID]*peerHealth

	txCache map[btc.Hash]cachedTx

	// lastResponse is the time any peer last produced a response; the stall
	// detector flips degraded when it falls StallTimeout behind.
	lastResponse time.Time
	degraded     bool

	running bool
	// syncGen invalidates scheduler ticks from superseded sync loops: every
	// Start begins a new generation, so a tick scheduled before a
	// Stop/Start pair cannot resurrect the old loop alongside the new one.
	syncGen int
	// stats
	headersAccepted int
	headersRejected int

	// met is the adapter's obs instrumentation (operational, not part of
	// any snapshot; survives Stop/Start like peerHealth does).
	met *adapterMetrics
}

// New creates an adapter. Call Start to begin discovery and syncing.
func New(id simnet.NodeID, net *simnet.Network, params *btc.Params, dir *btcnode.SeedDirectory, cfg Config) *Adapter {
	a := &Adapter{
		ID:              id,
		cfg:             cfg,
		params:          params,
		net:             net,
		dir:             dir,
		addrSet:         make(map[string]bool),
		connected:       make(map[simnet.NodeID]bool),
		tree:            chain.NewTree(params.GenesisHeader, 0),
		blocks:          make(map[btc.Hash]*btc.Block),
		requestedBlocks: make(map[btc.Hash]*blockRequest),
		headersPending:  make(map[simnet.NodeID]time.Time),
		peerHealth:      make(map[simnet.NodeID]*peerHealth),
		txCache:         make(map[btc.Hash]cachedTx),
		met:             newAdapterMetrics(),
	}
	net.Register(id, a)
	return a
}

// Start launches peer discovery and the periodic header sync loop.
func (a *Adapter) Start() {
	if a.running {
		return
	}
	a.running = true
	a.syncGen++
	a.lastResponse = a.net.Scheduler().Now()
	a.degraded = false
	a.met.stateChanges.With(StateSyncing.String()).Inc()
	a.discover()
	a.syncLoop(a.syncGen)
}

// Stop halts the sync loop (the adapter stays registered; Restart by
// calling Start again). In-flight block requests are forgotten: their
// replies will be discarded by the stopped Receive gate, so they must be
// re-issued after a restart. The sync generation is bumped here as well as
// in Start, so a tick scheduled before Stop is dead on both gates — the
// running flag alone left a window where a stale tick could race a
// not-yet-restarted loop's bookkeeping.
func (a *Adapter) Stop() {
	if a.running {
		a.met.stateChanges.With(StateStopped.String()).Inc()
	}
	a.running = false
	a.syncGen++
	a.requestedBlocks = make(map[btc.Hash]*blockRequest)
	a.headersPending = make(map[simnet.NodeID]time.Time)
	a.degraded = false
}

// Tree exposes the adapter's header tree.
func (a *Adapter) Tree() *chain.Tree { return a.tree }

// ConnectedPeers returns the current peer IDs in sorted order. The order
// matters for more than cosmetics: callers iterate this slice and act per
// peer (drop, reconnect, send), and every simnet send consumes scheduler
// RNG — map iteration order here would leak real-process nondeterminism
// into the seeded simulation.
func (a *Adapter) ConnectedPeers() []simnet.NodeID {
	out := make([]simnet.NodeID, 0, len(a.connected))
	for id := range a.connected {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HeaderStats returns (accepted, rejected) header counts.
func (a *Adapter) HeaderStats() (int, int) { return a.headersAccepted, a.headersRejected }

// HasBlock reports whether the adapter holds the block for a header hash.
func (a *Adapter) HasBlock(h btc.Hash) bool { return a.blocks[h] != nil }

// AddressBookSize returns the number of collected addresses.
func (a *Adapter) AddressBookSize() int { return len(a.addressBook) }

// discover implements the §III-B discovery process: request addresses from
// seeds until t_u are known, then connect to ℓ uniformly random nodes.
func (a *Adapter) discover() {
	for _, seed := range a.dir.Seeds() {
		a.net.Send(a.ID, seed, btcnode.MsgGetAddr{})
	}
	// Ask already-known peers too (recursive collection).
	for _, addr := range a.addressBook {
		if id, ok := a.dir.Resolve(addr); ok && len(a.addressBook) < a.cfg.AddrHighWater {
			a.net.Send(a.ID, id, btcnode.MsgGetAddr{})
		}
	}
	a.fillConnections()
}

// fillConnections tops up to ℓ random connections from the address book.
func (a *Adapter) fillConnections() {
	a.fillConnectionsExcluding("")
}

// fillConnectionsExcluding tops up to ℓ connections, drawing from the
// book's eligible candidates — resolvable, not self, not already connected.
// Unresolvable and self-resolving entries are dropped from the book (a node
// can learn its own address under a foreign label through gossip).
// Iterating over explicit candidates bounds the loop: the previous
// draw-and-retry scheme spun forever when the book was non-empty but every
// entry resolved to self or an existing connection.
//
// Candidates are ranked by health score: peers on the cooldown list are
// skipped entirely (unless nothing else remains — staying dark is worse),
// and the random draw is restricted to the best-scoring half, so a peer
// with accumulated timeout/invalid strikes is demonstrably deprioritized
// while healthy peers (all scoring 0) keep the original uniform draw.
//
// A non-empty exclude keeps that peer out of this round's draws (the
// just-dropped connection must rotate, not reconnect) — unless it is the
// only candidate left, where reconnecting beats staying dark.
func (a *Adapter) fillConnectionsExcluding(exclude simnet.NodeID) {
	rng := a.net.Scheduler().Rand()
	for len(a.connected) < a.cfg.Connections {
		now := a.net.Scheduler().Now()
		var candidates, banned []simnet.NodeID
		var stale []string
		for _, addr := range a.addressBook {
			id, ok := a.dir.Resolve(addr)
			if !ok || id == a.ID {
				stale = append(stale, addr)
				continue
			}
			if a.connected[id] {
				continue
			}
			if ph := a.peerHealth[id]; ph != nil && now.Before(ph.banUntil) {
				banned = append(banned, id)
				continue
			}
			candidates = append(candidates, id)
		}
		for _, addr := range stale {
			a.removeAddress(addr)
		}
		if len(candidates) == 0 {
			candidates = banned
		}
		if len(candidates) == 0 {
			return
		}
		pool := candidates
		if exclude != "" {
			kept := make([]simnet.NodeID, 0, len(candidates))
			for _, id := range candidates {
				if id != exclude {
					kept = append(kept, id)
				}
			}
			if len(kept) > 0 {
				pool = kept
			}
		}
		a.connected[a.pickRanked(pool, rng)] = true
	}
}

// pickRanked draws a random peer from the best-scoring half of the pool.
// Ties at the cutoff score are all included, so a pool of all-equal scores
// degenerates to the plain uniform draw. Sorting is by (score, ID) — the ID
// tiebreak keeps the draw independent of map iteration order.
func (a *Adapter) pickRanked(pool []simnet.NodeID, rng *rand.Rand) simnet.NodeID {
	if len(pool) == 1 {
		return pool[0]
	}
	sort.Slice(pool, func(i, j int) bool {
		si, sj := a.PeerScore(pool[i]), a.PeerScore(pool[j])
		if si != sj {
			return si < sj
		}
		return pool[i] < pool[j]
	})
	cutoff := a.PeerScore(pool[(len(pool)-1)/2])
	n := len(pool)
	for n > 1 && a.PeerScore(pool[n-1]) > cutoff {
		n--
	}
	return pool[rng.Intn(n)]
}

func (a *Adapter) removeAddress(addr string) {
	if !a.addrSet[addr] {
		return
	}
	delete(a.addrSet, addr)
	for i, s := range a.addressBook {
		if s == addr {
			a.addressBook = append(a.addressBook[:i], a.addressBook[i+1:]...)
			break
		}
	}
}

// DropConnection simulates a lost connection: the peer is disconnected and
// a new random connection is established, replenishing addresses if the
// book fell below t_l. The dropped peer is excluded from this round's
// refill whenever an alternative exists — immediately re-picking it would
// defeat the rotation the eclipse-recovery analysis relies on. A stopped
// adapter only records the disconnect — the torn-down process must not
// emit discovery traffic; Start re-runs discovery and refills connections.
func (a *Adapter) DropConnection(peer simnet.NodeID) {
	delete(a.connected, peer)
	if !a.running {
		return
	}
	if len(a.addressBook) < a.cfg.AddrLowWater {
		a.discover()
		return
	}
	a.fillConnectionsExcluding(peer)
}

// Disconnect severs a connection without DropConnection's replacement
// refill — the fault-injection hook chaos scenarios use to force a specific
// peer set together with ConnectPeer.
func (a *Adapter) Disconnect(peer simnet.NodeID) {
	delete(a.connected, peer)
}

// ConnectPeer force-establishes a connection to a specific peer, bypassing
// the random draw (fault-injection hook; an eclipse scenario pins the
// adapter's peer set to attacker-controlled nodes).
func (a *Adapter) ConnectPeer(peer simnet.NodeID) {
	if peer == a.ID {
		return
	}
	a.connected[peer] = true
}

// syncLoop periodically requests headers from all connected peers, enforces
// the getheaders deadline, runs the stall detector, and expires stale
// cached transactions. Ticks are gated on the adapter's running state and
// generation: a tick that fires after Stop (or after a Stop/Start pair
// started a newer loop) dies silently. Block-request retries run on their
// own gen-gated timers (see scheduleRetry), not on this loop.
func (a *Adapter) syncLoop(gen int) {
	if !a.running || gen != a.syncGen {
		return
	}
	now := a.net.Scheduler().Now()
	for id, ct := range a.txCache {
		if now.After(ct.expires) {
			delete(a.txCache, id)
		}
	}
	// Getheaders deadline: a peer whose oldest outstanding getheaders went
	// unanswered for RequestTimeout takes a timeout strike. The entry is
	// cleared so the strike is charged once per missed request, and the send
	// below re-arms the deadline.
	// Sweep in sorted order: a deadline strike can ban the peer, and the
	// ban's connection refill draws from the seeded RNG — map order here
	// would make the draw sequence differ run to run.
	if a.cfg.RequestTimeout > 0 {
		pending := make([]simnet.NodeID, 0, len(a.headersPending))
		for peer := range a.headersPending {
			pending = append(pending, peer)
		}
		sort.Slice(pending, func(i, j int) bool { return pending[i] < pending[j] })
		for _, peer := range pending {
			if !a.connected[peer] {
				delete(a.headersPending, peer)
				continue
			}
			if now.Sub(a.headersPending[peer]) >= a.cfg.RequestTimeout {
				delete(a.headersPending, peer)
				a.chargeTimeout(peer)
			}
		}
	}
	// Stall detector: no response from ANY peer for StallTimeout means the
	// network (or our whole peer set) has gone dark — honest nodes always
	// answer getheaders, even with an empty header list.
	if a.cfg.StallTimeout > 0 && now.Sub(a.lastResponse) >= a.cfg.StallTimeout {
		if !a.degraded {
			a.met.stateChanges.With(StateDegraded.String()).Inc()
		}
		a.degraded = true
	}
	locator := a.locator()
	for _, peer := range a.ConnectedPeers() {
		if _, pending := a.headersPending[peer]; !pending {
			a.headersPending[peer] = now
		}
		a.net.Send(a.ID, peer, btcnode.MsgGetHeaders{Locator: locator})
	}
	a.net.Scheduler().After(a.cfg.SyncInterval, func() { a.syncLoop(gen) })
}

// locator lists hashes of the adapter's best-known headers, newest first.
func (a *Adapter) locator() []btc.Hash {
	var loc []btc.Hash
	cur := a.tree.Tip()
	step := int64(1)
	for cur != nil {
		loc = append(loc, cur.Hash)
		if cur.Parent() == nil {
			break
		}
		if len(loc) >= 10 {
			step *= 2
		}
		for i := int64(0); i < step && cur.Parent() != nil; i++ {
			cur = cur.Parent()
		}
	}
	return loc
}

// Receive implements simnet.Endpoint. A stopped adapter (the node
// machine's sandboxed process being torn down) ignores all network traffic:
// without this gate the adapter kept syncing headers while Stop()ped, since
// peers' block announcements would trigger getheaders round trips entirely
// outside the (gated) sync loop.
func (a *Adapter) Receive(from simnet.NodeID, msg any) {
	if !a.running {
		return
	}
	switch m := msg.(type) {
	case btcnode.MsgAddr:
		a.noteResponse(from)
		a.handleAddr(m)
	case btcnode.MsgHeaders:
		a.noteResponse(from)
		a.handleHeaders(from, m)
	case btcnode.MsgBlock:
		a.noteResponse(from)
		a.handleBlock(from, m)
	case btcnode.MsgInvBlock:
		// A new block announcement; fetch headers soon via the sync loop.
		if !a.tree.Contains(m.Hash) {
			a.net.Send(a.ID, from, btcnode.MsgGetHeaders{Locator: a.locator()})
		}
	case btcnode.MsgGetTx:
		if ct, ok := a.txCache[m.TxID]; ok {
			a.net.Send(a.ID, from, btcnode.MsgTx{Tx: ct.tx})
		}
	case btcnode.MsgNotFound:
		a.noteResponse(from)
		a.handleNotFound(from, m)
	}
}

// handleNotFound processes a peer's miss on a getdata. A targeted miss is a
// strike (the ranked pick chose a peer that lacks the block) and escalates
// straight to a broadcast re-issue; a miss on a broadcast is ignored —
// other peers may still answer, and the retry timer covers total misses.
func (a *Adapter) handleNotFound(from simnet.NodeID, m btcnode.MsgNotFound) {
	for _, h := range m.Hashes {
		req := a.requestedBlocks[h]
		if req == nil || req.peer != from {
			continue
		}
		a.chargeTimeout(from)
		a.requestBlock(h)
	}
}

// handleAddr merges discovered addresses up to t_u. At the cap, room is
// made only by evicting an address whose peer is dead (unresolvable) or has
// been on the cooldown list longest — never a live, healthy entry — so a
// gossip flood of bogus addresses can churn other bogus entries but can
// neither grow the book past t_u nor displace working peers.
func (a *Adapter) handleAddr(m btcnode.MsgAddr) {
	for _, addr := range m.Addrs {
		if addr == string(a.ID) || a.addrSet[addr] {
			continue
		}
		if len(a.addressBook) >= a.cfg.AddrHighWater {
			victim := a.evictionVictim()
			if victim == "" {
				break
			}
			a.removeAddress(victim)
		}
		a.addrSet[addr] = true
		a.addressBook = append(a.addressBook, addr)
	}
	a.fillConnections()
}

// evictionVictim picks the address-book entry to drop when the book is full:
// the first dead (unresolvable or self) entry, else the non-connected banned
// peer whose ban started earliest. Returns "" when every entry is live and
// in good standing.
func (a *Adapter) evictionVictim() string {
	now := a.net.Scheduler().Now()
	var bannedAddr string
	var bannedUntil time.Time
	for _, addr := range a.addressBook {
		id, ok := a.dir.Resolve(addr)
		if !ok || id == a.ID {
			return addr
		}
		if a.connected[id] {
			continue
		}
		if ph := a.peerHealth[id]; ph != nil && now.Before(ph.banUntil) {
			if bannedAddr == "" || ph.banUntil.Before(bannedUntil) {
				bannedAddr, bannedUntil = addr, ph.banUntil
			}
		}
	}
	return bannedAddr
}

// handleHeaders validates and stores announced headers. Per §III-B the
// adapter accepts any valid header — multiple headers at the same height
// are fine; fork resolution is the canister's job. Provably invalid headers
// charge the serving peer an invalid strike; orphans (unknown parent) do
// not — out-of-order delivery from an honest peer looks identical.
func (a *Adapter) handleHeaders(from simnet.NodeID, m btcnode.MsgHeaders) {
	now := a.net.Scheduler().Now()
	if at, ok := a.headersPending[from]; ok {
		delete(a.headersPending, from)
		a.peer(from).observeLatency(now.Sub(at))
		a.met.headerLatency.ObserveDuration(now.Sub(at))
	}
	for i := range m.Headers {
		h := m.Headers[i]
		hash := h.BlockHash()
		if a.tree.Contains(hash) {
			continue
		}
		parent := a.tree.Get(h.PrevBlock)
		if parent == nil {
			a.headersRejected++
			a.met.headersRejected.Inc()
			continue
		}
		if err := chain.ValidateHeader(&h, parent, a.params, now); err != nil {
			a.headersRejected++
			a.met.headersRejected.Inc()
			a.chargeInvalid(from)
			continue
		}
		if _, err := a.tree.Insert(h); err != nil {
			a.headersRejected++
			a.met.headersRejected.Inc()
			a.chargeInvalid(from)
			continue
		}
		a.headersAccepted++
		a.met.headersAccepted.Inc()
	}
}

// handleBlock stores a requested block after verifying it matches a known
// valid header and its Merkle root. A corrupt block (Merkle mismatch)
// charges the serving peer an invalid strike and keeps the request alive so
// the retry fetches it from someone else.
func (a *Adapter) handleBlock(from simnet.NodeID, m btcnode.MsgBlock) {
	if m.Block == nil {
		return
	}
	hash := m.Block.BlockHash()
	if !a.tree.Contains(hash) {
		delete(a.requestedBlocks, hash)
		return // no validated header for it
	}
	if a.blocks[hash] != nil {
		delete(a.requestedBlocks, hash)
		return
	}
	if m.Block.MerkleRoot() != m.Block.Header.MerkleRoot {
		a.chargeInvalid(from)
		return
	}
	delete(a.requestedBlocks, hash)
	a.blocks[hash] = m.Block
	a.met.blocksStored.Inc()
}

// getBlock returns the block for a header if available, otherwise requests
// it from connected peers asynchronously and returns nil (Algorithm 1's
// get_block).
func (a *Adapter) getBlock(hash btc.Hash) *btc.Block {
	if b := a.blocks[hash]; b != nil {
		return b
	}
	if _, inFlight := a.requestedBlocks[hash]; !inFlight {
		a.requestBlock(hash)
	}
	return nil
}

// requestBlock (re-)issues a getdata for one block and arms its retry
// timer. The first attempt goes to the single best-ranked peer (cheap, and
// it exercises the health ranking); retries broadcast to the whole peer set
// — by then the cheap path has demonstrably failed.
func (a *Adapter) requestBlock(hash btc.Hash) {
	req := a.requestedBlocks[hash]
	if req == nil {
		req = &blockRequest{}
		a.requestedBlocks[hash] = req
	}
	req.attempts++
	req.issue++
	a.met.requests.Inc()
	if req.attempts > 1 {
		a.met.retries.Inc()
	}
	req.sentAt = a.net.Scheduler().Now()
	req.peer = ""
	msg := btcnode.MsgGetData{BlockHashes: []btc.Hash{hash}}
	if best := a.bestPeer(); req.attempts == 1 && best != "" {
		req.peer = best
		a.net.Send(a.ID, best, msg)
	} else {
		for _, peer := range a.ConnectedPeers() {
			a.net.Send(a.ID, peer, msg)
		}
	}
	a.scheduleRetry(hash, req)
}

// bestPeer returns the connected peer with the lowest health score (ID
// tiebreak for determinism), or "" with no connections.
func (a *Adapter) bestPeer() simnet.NodeID {
	var best simnet.NodeID
	bestScore := 0.0
	for peer := range a.connected {
		s := a.PeerScore(peer)
		if best == "" || s < bestScore || (s == bestScore && peer < best) {
			best, bestScore = peer, s
		}
	}
	return best
}

// scheduleRetry arms the retry/deadline timer for one in-flight block
// request: exponential backoff off BlockRetryInterval, capped at
// retryBackoffMax, jittered by ±RetryJitter. The timer captures the sync
// generation and the request's issue counter, so it dies silently if the
// adapter stopped or restarted (the PR 3 stale-request fix, extended to
// retries) or if a newer issue of the same request superseded it.
func (a *Adapter) scheduleRetry(hash btc.Hash, req *blockRequest) {
	if a.cfg.BlockRetryInterval <= 0 {
		return
	}
	gen, issue := a.syncGen, req.issue
	a.net.Scheduler().After(a.retryDelay(req.attempts), func() {
		a.retryTick(gen, hash, issue)
	})
}

// retryDelay computes the backoff before retry number attempts+1.
func (a *Adapter) retryDelay(attempts int) time.Duration {
	d := a.cfg.BlockRetryInterval
	for i := 1; i < attempts && i < 12; i++ {
		d *= 2
		if d >= retryBackoffMax {
			d = retryBackoffMax
			break
		}
	}
	if a.cfg.RetryJitter > 0 {
		spread := (a.net.Scheduler().Rand().Float64()*2 - 1) * a.cfg.RetryJitter
		d += time.Duration(spread * float64(d))
	}
	return d
}

// retryTick is the deadline/backoff timer body. A fire from a dead
// generation (the adapter stopped, or stopped and restarted, since the
// timer was armed) or a superseded issue is a no-op; otherwise the targeted
// peer is charged the missed deadline and the request re-issued.
func (a *Adapter) retryTick(gen int, hash btc.Hash, issue int) {
	if !a.running || gen != a.syncGen {
		return
	}
	req := a.requestedBlocks[hash]
	if req == nil || req.issue != issue {
		return
	}
	if req.peer != "" {
		a.chargeTimeout(req.peer)
	}
	a.requestBlock(hash)
}

// pendingBlockHashes snapshots the in-flight request set in deterministic
// order (re-kick iteration must not depend on map order — it draws from the
// seeded RNG per request).
func (a *Adapter) pendingBlockHashes() []btc.Hash {
	out := make([]btc.Hash, 0, len(a.requestedBlocks))
	for h := range a.requestedBlocks {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return string(out[i][:]) < string(out[j][:]) })
	return out
}

// maxBlocksAtHeight implements Algorithm 1's max_blocks_at_height: many
// blocks during initial sync (below the hard-coded height), one block near
// the tip — "returning only one block is preferable for security reasons"
// (§IV-A, Lemma IV.3 depends on it).
func (a *Adapter) maxBlocksAtHeight(anchorHeight int64) int {
	if anchorHeight < a.cfg.MultiBlockSyncHeight {
		return 1 << 30
	}
	return 1
}

// HandleRequest implements Algorithm 1: given the canister's request
// (β*, A, T), cache and advertise the transactions, then BFS the header
// tree from β* collecting blocks that extend the canister's state (set B)
// and upcoming headers the canister lacks (set N).
//
// A stopped adapter returns an empty response: the sandboxed process is
// down, so it can neither serve nor fetch. This gate closes the restart
// stall the race audit found — a request arriving between Stop and Start
// used to mark blocks as requested (getdata sent, reply discarded by the
// stopped Receive gate), and since Start does not clear that bookkeeping,
// the re-request logic would never re-issue the fetch: the block stayed
// permanently unfetchable until an unrelated inv arrived.
func (a *Adapter) HandleRequest(req Request) Response {
	if !a.running {
		return Response{Health: Health{State: StateStopped}}
	}
	a.met.reg.Trace("adapter.request", "")
	// Lines 1-3: cache and advertise outbound transactions.
	for _, raw := range req.Txs {
		tx, err := btc.ParseTransaction(raw)
		if err != nil {
			continue // canister already checked syntax; be defensive anyway
		}
		a.cacheAndAdvertise(tx)
	}

	anchorHash := req.Anchor.BlockHash()
	have := make(map[btc.Hash]bool, len(req.Have)+1)
	for _, h := range req.Have {
		have[h] = true
	}
	// The anchor's block has been consumed by the canister; treat it as had
	// so the anchor's children satisfy the prev ∈ A ∪ B condition.
	have[anchorHash] = true

	start := a.tree.Get(anchorHash)
	if start == nil {
		// The canister is ahead of or diverged from this adapter; nothing
		// useful to serve.
		return Response{Health: a.Health()}
	}

	var resp Response
	collected := make(map[btc.Hash]bool) // the set B̄ of Algorithm 1
	sizeBytes := 0
	maxBlocks := a.maxBlocksAtHeight(req.AnchorHeight)

	a.tree.BFSFrom(start, func(node *chain.Node) bool {
		if len(resp.Next) >= a.cfg.MaxHeaders {
			return false // |N| cap reached
		}
		cur := node.Hash
		if cur == anchorHash {
			return true // the canister knows its own anchor
		}
		// Lines 6-11: collect the block if the canister lacks it and its
		// predecessor is covered.
		if !have[cur] && (have[node.Header.PrevBlock] || collected[node.Header.PrevBlock]) {
			if b := a.getBlock(cur); b != nil &&
				sizeBytes < a.cfg.MaxResponseBytes &&
				len(resp.Blocks) < maxBlocks {
				resp.Blocks = append(resp.Blocks, BlockWithHeader{Block: b, Header: node.Header})
				collected[cur] = true
				sizeBytes += b.SerializedSize()
			}
		}
		// Lines 12-14: otherwise report the header as upcoming, and prefetch
		// its block "so that the block may be served in the response to a
		// future request" (§III-B).
		if !have[cur] && !collected[cur] {
			resp.Next = append(resp.Next, node.Header)
			a.getBlock(cur)
		}
		return true
	})
	resp.Health = a.Health()
	return resp
}

// cacheAndAdvertise puts a transaction in the expiring cache and announces
// it to all connected peers; peers pull it with MsgGetTx.
func (a *Adapter) cacheAndAdvertise(tx *btc.Transaction) {
	txid := tx.TxID()
	if _, dup := a.txCache[txid]; !dup {
		a.txCache[txid] = cachedTx{
			tx:      tx,
			expires: a.net.Scheduler().Now().Add(txCacheExpiry),
		}
	}
	for _, peer := range a.ConnectedPeers() {
		a.net.Send(a.ID, peer, btcnode.MsgInvTx{TxID: txid})
	}
}

// TxCacheSize returns the number of cached outbound transactions.
func (a *Adapter) TxCacheSize() int { return len(a.txCache) }

// String summarizes adapter state.
func (a *Adapter) String() string {
	return fmt.Sprintf("adapter{%s peers=%d headers=%d blocks=%d txcache=%d}",
		a.ID, len(a.connected), a.tree.Len(), len(a.blocks), len(a.txCache))
}
