// Package queryfleet is the certified read-replica serving layer for the
// Bitcoin canister. The paper's canister answers queries "on a single
// randomly chosen replica" whose responses "cannot be fully trusted"
// (§IV-B); this subsystem replaces that with a horizontally scaled fleet:
//
//   - Replicas hydrate from a canister snapshot (the statecodec fast-sync
//     image) and stay fresh by consuming the framed per-block delta stream
//     the canister publishes on every processed payload — they never
//     re-validate blocks or rebuild deltas.
//   - Each replica serves get_utxos / get_balance /
//     get_current_fee_percentiles / get_block_headers concurrently under an
//     epoch-counted RWMutex; each replica owns a bounded set of execution
//     slots, so execution capacity grows with the fleet size.
//   - A staleness bound caps how far (in blocks) a serving replica may lag
//     the authoritative canister; beyond the bound the query is forwarded to
//     the authoritative canister.
//   - Responses are certified: the fleet threshold-signs the canonical
//     digest of an ic.CertifiedQuery envelope — the response bound to the
//     serving anchor and tip heights — so any client holding the subnet
//     public key verifies it via ic.Subnet.VerifyCertified, closing the
//     trust gap plain queries have.
//
// Clients route queries with Fleet.RouteQuery and verify a certified answer
// with ic.Subnet.VerifyCertified over RoutedQuery.Envelope; ic.Subnet.Query
// stays the paper's uncertified single-replica query. The fleet's
// collaborators come in one way each, after New: SetSigner, SetVerifier,
// and — for harnesses only — the two fault seams SetFrameFault (the stream)
// and SetResponseFault (a served response). The fleet holds no fault logic
// of its own; what a corrupted frame or a lying replica looks like is the
// harness's code (internal/chaos/kit.go).
package queryfleet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"icbtc/internal/adapter"
	"icbtc/internal/canister"
	"icbtc/internal/ic"
	"icbtc/internal/tecdsa"
)

// SignFunc threshold-signs a 32-byte digest under the subnet key.
type SignFunc func(digest []byte) ([]byte, error)

// VerifyFunc checks a certification signature over a CertifiedQuery envelope
// against the subnet public key (ic.Subnet.VerifyCertified wrapped). When a
// verifier is installed (SetVerifier), the fleet audits every certified
// response a replica serves before returning it: a signature that does not
// verify, or a bound tip height outside the staleness bound, exposes a
// byzantine replica — it is ejected and the query retried on an honest one.
type VerifyFunc func(env ic.CertifiedQuery, signature []byte) bool

// FrameFault is a stream-corruption injection hook (SetFrameFault): called
// under the feed lock for every (replica, frame) pair, it returns the wire
// frames actually delivered to that replica's inbox — nil drops the frame (a
// gap), the same bytes twice duplicates it, modified bytes model bit-flips
// or truncation, and holding bytes to return with a later frame reorders the
// stream. The published slice handed back as it came shares the fleet's one
// decode of the frame; any other slice is an alternate, decoded on its own.
// The hook must not write into the slice it is handed. Test and chaos
// harness use only.
type FrameFault func(replica int, seq uint64, raw []byte) [][]byte

// ResponseFault is the byzantine-replica seam (SetResponseFault): called for
// every replica-served response after certification and before the audit, it
// returns what that replica hands to the router — the response unchanged, a
// tampered one, a replayed older one. It runs on the query path, concurrently.
// Test and chaos harness use only.
type ResponseFault func(replica int, method string, rq ic.RoutedQuery) ic.RoutedQuery

// CommitteeSigner adapts a tecdsa committee to SignFunc. The committee's
// signing protocol is not safe for concurrent use, so the adapter
// serializes calls.
func CommitteeSigner(c *tecdsa.Committee) SignFunc {
	var mu sync.Mutex
	return func(digest []byte) ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		sig, err := c.SignSchnorr(digest)
		if err != nil {
			return nil, err
		}
		return sig.Serialize(), nil
	}
}

// Authority is the fleet's view of the authoritative canister: the
// snapshot source for hydration and the forward target for queries beyond
// the staleness bound. *canister.BitcoinCanister satisfies it.
//
// The fleet serializes its own authority access (forwards, hydration
// snapshots) internally, but it cannot see the producer that mutates the
// authority between frames. A producer that runs on its own goroutine
// while queries are being served concurrently (stale forwarding or mid-run
// hydration) must wrap every authority mutation in
// Fleet.GuardAuthority, so forwards never observe a half-applied payload.
// Single-threaded drivers — the ic.Subnet scheduler, the differential
// harness, the benchmarks — need no guard: there, queries and payloads
// already execute on one goroutine.
type Authority interface {
	Snapshot() ([]byte, error)
	Query(ctx *ic.CallContext, method string, arg any) (any, error)
	TipHeight() int64
	AnchorHeight() int64
}

// Config parameterizes a fleet.
type Config struct {
	// Replicas is the fleet size.
	Replicas int
	// MaxLagBlocks bounds how many blocks a serving replica may lag the
	// authoritative tip; a query routed to a replica beyond it is forwarded
	// to the authoritative canister.
	MaxLagBlocks int64
	// QueryConcurrency is the number of concurrent query executions per
	// replica; <= 0 means 1 (the IC executes canister queries sequentially
	// per replica).
	QueryConcurrency int
	// Coalesce collapses concurrent identical queries (same canonical
	// request key from the canister's method registry) into one execution
	// whose response — signature included — fans out to every waiter.
	Coalesce bool
	// CacheEntries bounds the certified hot-response cache (0 disables):
	// responses to cacheable methods are served without re-execution until
	// the next stream frame invalidates them (see serving.go).
	CacheEntries int
}

// DefaultConfig returns a 4-replica fleet with a 2-block staleness bound
// (the canister's own τ default) that forwards stale queries.
func DefaultConfig() Config {
	return Config{Replicas: 4, MaxLagBlocks: 2}
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Served    uint64 // queries answered by replicas
	Forwarded uint64 // queries sent to the authoritative canister
	Certified uint64 // responses that carry a certification
	Frames    uint64 // stream frames distributed
	Coalesced uint64 // queries served as followers of a coalesced flight
	CacheHits uint64 // queries served from the certified response cache

	FrameCorrupt     uint64 // frames rejected by checksum/decode or embedded-seq mismatch
	FrameGaps        uint64 // frames rejected for a sequence gap (drop or reorder)
	FrameDuplicates  uint64 // re-delivered frames skipped as already applied
	Resyncs          uint64 // automatic re-hydrations after integrity failures and authority regressions
	ByzantineEjected uint64 // replicas ejected by the certified-response audit
}

// Fleet distributes the canister's delta stream to its replicas and routes
// queries across them.
type Fleet struct {
	cfg  Config
	auth Authority
	// authMu serializes fleet-initiated authority access (forwards and
	// hydration snapshots) — the authoritative canister is single-threaded.
	authMu sync.Mutex
	// feedMu orders frame distribution against replica addition/hydration,
	// so no replica ever misses a frame or sees one twice.
	feedMu sync.Mutex
	seq    uint64 // last distributed frame seq (under feedMu)

	authTip atomic.Int64
	// gen mirrors seq for the serving layers: the stream generation cached
	// responses and coalesced flights are keyed on. Bumped on every
	// distributed frame (under feedMu), read lock-free on the query path.
	gen atomic.Uint64
	// degraded caches the adapter health carried on the last distributed
	// frame: while true, every routed response is annotated as possibly
	// stale (the explicit degraded-mode serving contract).
	degraded atomic.Bool

	replicas []*Replica
	rr       atomic.Uint64

	// frameFault, when set, intercepts frame delivery per replica (stream
	// corruption injection; under feedMu).
	frameFault FrameFault

	// sign certifies every response, replica-served and forwarded alike
	// (SetSigner); verify audits replica-served ones (SetVerifier);
	// responseFault sits between the two (SetResponseFault). Each is nil until
	// installed, swapped rarely and loaded once per executed query.
	sign          atomic.Pointer[SignFunc]
	verify        atomic.Pointer[VerifyFunc]
	responseFault atomic.Pointer[ResponseFault]

	// met holds the fleet's obs registry, its counters, and the lock that
	// keeps the two counter pairs Stats() must not tear.
	met *fleetMetrics

	// serving holds the coalesce/cache layer state; a layer that is off has
	// a nil map and skips itself.
	serving *serving

	// decodes counts the frame decodes Feed started that have not finished.
	decodes sync.WaitGroup
}

// StreamSource is implemented by authorities that can publish the delta
// stream themselves (*canister.BitcoinCanister does). New installs the
// fleet's Feed on such an authority before taking the hydration snapshot,
// so no payload can slip between hydration and subscription — a frame
// missed there would freeze the fleet's view of the authoritative tip and
// let the staleness bound read stale replicas as fresh.
type StreamSource interface {
	SetStreamSink(func(*canister.Frame))
}

// New hydrates cfg.Replicas replicas from one snapshot of the authority
// and returns the fleet. When the authority implements StreamSource (the
// Bitcoin canister does), the fleet subscribes itself to the delta stream;
// otherwise the caller must wire SetStreamSink(fleet.Feed) before the next
// payload is processed. A caller that replaces the authority instance
// (canister upgrade, snapshot restore) must re-install the sink on the new
// instance. Queries reach the fleet through RouteQuery. The fleet's only
// goroutines decode published frames (see Feed); frames are applied by
// whoever calls ApplyPending, CatchUp or CatchUpAll.
func New(auth Authority, cfg Config) (*Fleet, error) {
	if cfg.Replicas <= 0 {
		return nil, fmt.Errorf("queryfleet: fleet needs at least one replica, got %d", cfg.Replicas)
	}
	if cfg.MaxLagBlocks < 0 {
		return nil, fmt.Errorf("queryfleet: staleness bound must be non-negative, got %d", cfg.MaxLagBlocks)
	}
	f := &Fleet{cfg: cfg, auth: auth, met: newFleetMetrics(), serving: newServing(cfg)}
	f.authMu.Lock()
	if src, ok := auth.(StreamSource); ok {
		src.SetStreamSink(f.Feed)
	}
	snapshot, err := auth.Snapshot()
	tip := auth.TipHeight()
	f.authMu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("queryfleet: snapshot for hydration: %w", err)
	}
	f.authTip.Store(tip)
	for i := 0; i < cfg.Replicas; i++ {
		r, err := newReplica(i, f, snapshot, 0)
		if err != nil {
			return nil, err
		}
		f.replicas = append(f.replicas, r)
	}
	return f, nil
}

// Close waits for the frame decodes Feed started. The fleet has no other
// goroutine to stop, and stays usable.
func (f *Fleet) Close() { f.decodes.Wait() }

// Replicas returns the fleet size.
func (f *Fleet) Replicas() int { return len(f.replicas) }

// Replica returns one replica by index (test and harness access).
func (f *Fleet) Replica(i int) *Replica { return f.replicas[i] }

// Stats returns the current counters, read so that the pairs bumped together
// on the serving path (served+certified, forwarded+certified) appear together
// or not at all: Certified never exceeds Served+Forwarded.
func (f *Fleet) Stats() Stats { return f.met.snapshotStats() }

// LastSeq returns the sequence number of the last distributed frame.
func (f *Fleet) LastSeq() uint64 {
	f.feedMu.Lock()
	defer f.feedMu.Unlock()
	return f.seq
}

// Feed is the canister's stream sink: it stamps the frame with the next
// sequence number, encodes it once, enqueues the one wire frame on every
// replica and starts its one decode on a goroutine of its own, so the frame
// is decoded by the time a replica reaches it. Apply happens on the replicas'
// side (ApplyPending), so a slow replica lags instead of stalling the
// authoritative canister.
func (f *Fleet) Feed(frame *canister.Frame) {
	f.feedMu.Lock()
	f.seq++
	frame.Seq = f.seq
	f.gen.Store(f.seq)
	raw := canister.EncodeFrame(frame)
	w := &wireFrame{raw: raw}
	// A tip moving backwards on the authoritative stream is not a reorg
	// (reorgs never lower the considered tip height) — it means the
	// authority lost state and recovered from an older checkpoint. Replicas
	// ahead of it would "apply" the replayed frames as no-ops while serving
	// a future the authority no longer has; flag them all for resync.
	if frame.TipHeight < f.authTip.Load() {
		for _, r := range f.replicas {
			r.needsResync.Store(true)
		}
	}
	f.authTip.Store(frame.TipHeight)
	f.degraded.Store(frame.Health.State == adapter.StateDegraded)
	at := f.met.reg.Now()
	for _, r := range f.replicas {
		if f.frameFault == nil {
			r.enqueue(w, frame.Seq, at)
			continue
		}
		for _, alt := range f.frameFault(r.index, frame.Seq, raw) {
			if len(alt) == len(raw) && &alt[0] == &raw[0] {
				r.enqueue(w, frame.Seq, at) // the published bytes, unchanged
			} else {
				r.enqueue(&wireFrame{raw: alt}, frame.Seq, at)
			}
		}
	}
	f.decodes.Add(1)
	go func() {
		defer f.decodes.Done()
		_, _ = w.decode(f.met) // a replica that reaches it reports the error
	}()
	f.feedMu.Unlock()
	f.met.frames.Inc()
}

// SetFrameFault installs (nil removes) the stream-corruption injection hook.
// Not for production paths — the chaos and differential harnesses use it to
// prove the frame-integrity machinery detects and recovers every corruption
// class.
func (f *Fleet) SetFrameFault(h FrameFault) {
	f.feedMu.Lock()
	f.frameFault = h
	f.feedMu.Unlock()
}

// GuardAuthority runs fn while holding the fleet's authority lock — the
// lock stale-query forwarding and hydration snapshots take. A producer
// that mutates the authority (ProcessPayload) from its own goroutine while
// the fleet serves concurrently wraps each mutation in it:
//
//	fleet.GuardAuthority(func() error {
//	    return can.ProcessPayload(ctx, payload) // Feed fires inside
//	})
//
// The frame sink runs inside fn (the canister publishes synchronously), so
// replicas receive the frame before any forwarded query can observe the
// post-payload state without it.
func (f *Fleet) GuardAuthority(fn func() error) error {
	f.authMu.Lock()
	defer f.authMu.Unlock()
	return fn()
}

// resyncReplica is the automatic-recovery path frame-integrity failures
// and authority regressions take: a plain re-hydration, counted. Called with
// no fleet locks held (HydrateReplica takes authMu → feedMu itself).
func (f *Fleet) resyncReplica(i int) error {
	if err := f.HydrateReplica(i); err != nil {
		return err
	}
	f.met.resyncs.Inc()
	return nil
}

// HydrateReplica refreshes one replica from a fresh authority snapshot —
// fast-sync for a replica that fell too far behind (or a new one), jumping
// it to the current stream position without replaying frames.
func (f *Fleet) HydrateReplica(i int) error {
	if i < 0 || i >= len(f.replicas) {
		return fmt.Errorf("queryfleet: no replica %d in a fleet of %d", i, len(f.replicas))
	}
	// Lock order is authMu → feedMu, matching GuardAuthority(fn)'s
	// authMu → Feed's feedMu; taking them in the opposite order here would
	// deadlock against a guarded producer. feedMu makes the snapshot
	// atomic with respect to the stream: every frame after seq reaches the
	// replica's inbox, every earlier one is superseded by the snapshot.
	f.authMu.Lock()
	defer f.authMu.Unlock()
	f.feedMu.Lock()
	defer f.feedMu.Unlock()
	snapshot, err := f.auth.Snapshot()
	if err != nil {
		return fmt.Errorf("queryfleet: snapshot for re-hydration: %w", err)
	}
	return f.replicas[i].Hydrate(snapshot, f.seq)
}

// AddReplica hydrates one new replica from a fresh authority snapshot and
// joins it to the fleet mid-stream (replica churn: scale-out, or replacing
// a decommissioned member). The snapshot and the join are atomic with
// respect to the stream — the newcomer sees every frame after its snapshot
// and none before — so it serves from a consistent state immediately.
//
// The replicas slice is read without a lock on the serving path, so
// AddReplica must not run concurrently with RouteQuery; call it from the
// single-threaded driver that owns the fleet (the chaos harness does).
func (f *Fleet) AddReplica() (int, error) {
	// Same lock order as HydrateReplica: authMu → feedMu.
	f.authMu.Lock()
	defer f.authMu.Unlock()
	f.feedMu.Lock()
	defer f.feedMu.Unlock()
	snapshot, err := f.auth.Snapshot()
	if err != nil {
		return 0, fmt.Errorf("queryfleet: snapshot for replica join: %w", err)
	}
	r, err := newReplica(len(f.replicas), f, snapshot, f.seq)
	if err != nil {
		return 0, err
	}
	f.replicas = append(f.replicas, r)
	return r.index, nil
}

// CatchUpAll applies every queued frame on every replica.
func (f *Fleet) CatchUpAll() error {
	for _, r := range f.replicas {
		if err := r.CatchUp(); err != nil {
			return err
		}
	}
	return nil
}

// RouteQuery serves one query: coalesce → cache → execute
// (serving.go), each layer skipping itself when it is off. A fleet with
// neither cache nor coalescing builds no request key and takes no serving
// lock on the way to executeQuery.
func (f *Fleet) RouteQuery(method string, arg any, caller string, now time.Time) ic.RoutedQuery {
	_ = caller // principals do not affect read-only routing
	m, ok := canister.MethodByName(method)
	if !ok {
		// Unregistered method: the replica reports the canonical dispatch
		// error.
		return f.execute(method, arg, now, 0, "", false)
	}
	s := f.serving
	cacheable := m.Cacheable && s.cache != nil
	if !cacheable && !s.coalesce {
		return f.execute(method, arg, now, 0, "", false)
	}
	var enc canister.RequestKey
	if err := m.KeyInto(&enc, arg); err != nil {
		// No key — a wrong-typed argument, or an encoding past the bound:
		// served as a layer-less fleet serves it, and the canister answers
		// it itself (the wrong type with its canonical error).
		return f.execute(method, arg, now, 0, "", false)
	}
	gen := f.gen.Load()
	if cacheable {
		// The cache is probed ahead of flight registration — same
		// semantics, no flight allocation on the hit path.
		if e := s.cacheGet(gen, enc.Bytes()); e != nil {
			f.met.cacheHits.Inc()
			return e.rq
		}
		f.met.cacheMisses.Inc()
	}
	key := string(enc.Bytes()) // a miss owns its key: the flight and the fill outlive enc
	if !s.coalesce {
		return f.execute(method, arg, now, gen, key, cacheable)
	}
	fk := flightKey{gen: gen, key: key}
	fl, leader := s.join(fk)
	if !leader {
		<-fl.done
		f.met.coalesced.Inc()
		return fl.rq
	}
	rq := f.execute(method, arg, now, gen, key, cacheable)
	s.finish(fk, fl, rq)
	return rq
}

// executeQuery is the execution layer: pick a healthy replica round-robin,
// forward if it lags beyond the staleness bound, otherwise execute — on the
// pick, or when the pick is busy on a free replica (claim) — and certify.
// Quarantined replicas (failed frame application) are skipped; if every
// replica is quarantined the query goes to the authoritative canister.
// servedSeq is the stream position of the replica state the response was
// computed at (0 for forwarded queries — the forwarded flag disambiguates),
// which is what lets the cache layer prove a response belongs to the
// current generation.
func (f *Fleet) executeQuery(method string, arg any, now time.Time) (rq ic.RoutedQuery, servedSeq uint64, forwarded bool) {
	// The outer loop is the byzantine-ejection retry: a replica whose
	// certified response fails the audit is ejected and the query re-routed
	// to the next healthy replica; when none remain, the authority serves.
	for attempt := 0; attempt < len(f.replicas); attempt++ {
		var r *Replica
		for probe := 0; probe < len(f.replicas); probe++ {
			// Modulo in uint64 space: a truncating int() conversion could go
			// negative on 32-bit platforms once the counter wraps 2^31.
			cand := f.replicas[int(f.rr.Add(1)%uint64(len(f.replicas)))]
			if !cand.broken.Load() {
				r = cand
				break
			}
		}
		if r == nil {
			return f.forward(method, arg, now), 0, true
		}

		if !f.inBound(r.TipHeight()) {
			return f.forward(method, arg, now), 0, true
		}

		r = f.claim(r)
		value, err, instructions, tip, anchor, seq := r.execute(method, arg, now)
		f.met.reg.Trace("fleet.execute", method)
		var certified bool
		rq, certified = f.certify(ic.RoutedQuery{
			Value:        value,
			Err:          err,
			Instructions: instructions,
			AnchorHeight: anchor,
			TipHeight:    tip,
			Degraded:     f.degraded.Load(),
		}, method)
		if fault := load(&f.responseFault); fault != nil {
			rq = fault(r.index, method, rq)
		}
		f.met.countCertified(f.met.served, certified)
		if !f.auditResponse(method, rq) {
			// The replica served a response that fails verification under the
			// subnet key or binds a tip outside the staleness bound while the
			// replica itself reads as fresh — a lying replica either way. Eject
			// it and retry on an honest replica.
			r.broken.Store(true)
			f.met.byzantine.Inc()
			continue
		}
		return rq, seq, false
	}
	return f.forward(method, arg, now), 0, true
}

// inBound reports whether a tip height lags the authoritative tip by no
// more than the staleness bound: the rule for a serving replica and for the
// tip a certified response binds.
func (f *Fleet) inBound(tip int64) bool {
	return f.authTip.Load()-tip <= f.cfg.MaxLagBlocks
}

// claim acquires the replica a query executes on. The round-robin pick
// serves if it is free. While it is busy — its slots all executing, or a
// frame application holding or awaiting its write lock — the next healthy
// replica within the staleness bound that is free serves instead, so a query
// does not wait behind a block it does not need. Only when every replica is
// busy does the query wait for the pick. A caller on one goroutine never
// finds a replica busy, so its serve order is the round-robin's.
func (f *Fleet) claim(pick *Replica) *Replica {
	if pick.tryAcquire() {
		return pick
	}
	n := len(f.replicas)
	for k := 1; k < n; k++ {
		r := f.replicas[(pick.index+k)%n]
		if !r.broken.Load() && f.inBound(r.TipHeight()) && r.tryAcquire() {
			return r
		}
	}
	pick.acquire()
	return pick
}

// auditResponse cross-checks a replica-served certified response: the
// signature must verify over the envelope the response claims, and the bound
// tip height must sit inside the staleness bound relative to the
// authoritative tip. Responses without a signature (signing disabled) and
// fleets without a verifier pass unaudited.
func (f *Fleet) auditResponse(method string, rq ic.RoutedQuery) bool {
	verify := load(&f.verify)
	if verify == nil || rq.Signature == nil {
		return true
	}
	if !verify(rq.Envelope(method), rq.Signature) {
		return false
	}
	// Generation bound: a correctly signed envelope from a long-dead tip is
	// a stale replay; the bound that limits replica lag also limits how old
	// a served certification may be.
	return f.inBound(rq.TipHeight)
}

// SetVerifier replaces the certified-response audit (nil disables it). Safe
// for concurrent use with serving.
func (f *Fleet) SetVerifier(v VerifyFunc) { f.verify.Store(&v) }

// SetResponseFault installs (nil removes) the byzantine-replica seam. Not for
// production paths — the chaos harness and the byzantine tests use it to prove
// the audit ejects a replica that tampers with or replays what it signed.
func (f *Fleet) SetResponseFault(h ResponseFault) { f.responseFault.Store(&h) }

// load reads one of the fleet's swappable collaborators; nil when none was
// ever installed or the last Set cleared it.
func load[F any](p *atomic.Pointer[F]) (fn F) {
	if v := p.Load(); v != nil {
		fn = *v
	}
	return fn
}

// CacheSize returns the number of resident response-cache entries.
func (f *Fleet) CacheSize() int { return f.serving.CacheSize() }

// Degraded reports whether the last distributed frame carried a degraded
// adapter health report.
func (f *Fleet) Degraded() bool { return f.degraded.Load() }

// forward serves a query from the authoritative canister: the staleness
// bound's escape hatch, and the fallback when no replica is healthy.
func (f *Fleet) forward(method string, arg any, now time.Time) ic.RoutedQuery {
	ctx := ic.NewCallContext(ic.KindQuery, now)
	f.authMu.Lock()
	value, err := f.auth.Query(ctx, method, arg)
	tip, anchor := f.auth.TipHeight(), f.auth.AnchorHeight()
	f.authMu.Unlock()
	rq, certified := f.certify(ic.RoutedQuery{
		Value:        value,
		Err:          err,
		Instructions: ctx.Meter.Total(),
		AnchorHeight: anchor,
		TipHeight:    tip,
		Forwarded:    true,
		Degraded:     f.degraded.Load(),
	}, method)
	f.met.countCertified(f.met.forwarded, certified)
	return rq
}

// SetSigner replaces the certification signer (nil disables
// certification). Safe for concurrent use with serving.
func (f *Fleet) SetSigner(sign SignFunc) { f.sign.Store(&sign) }

// certify threshold-signs the canonical digest of the response's
// CertifiedQuery envelope, binding it to the anchor and tip heights it was
// served at. It reports rather than counts success: the caller bumps the
// certified counter together with its served/forwarded bump (countCertified),
// so a Stats snapshot can never observe one without the other.
func (f *Fleet) certify(rq ic.RoutedQuery, method string) (ic.RoutedQuery, bool) {
	sign := load(&f.sign)
	if sign == nil {
		return rq, false
	}
	digest := ic.ResponseDigest(rq.Envelope(method), nil)
	sig, err := sign(digest[:])
	if err != nil {
		// A failed signing round leaves the response uncertified rather
		// than failing the query; the client sees the missing signature.
		return rq, false
	}
	rq.Signature = sig
	return rq, true
}

// Compile-time interface check.
var _ Authority = (*canister.BitcoinCanister)(nil)
