package ic

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"icbtc/internal/simnet"
	"icbtc/internal/tecdsa"
)

// Config parameterizes a subnet. Defaults, with the constants below,
// reproduce the latency envelope the paper reports for IC mainnet (§IV-B):
// replicated requests answered in 7–18 s (min ≈ 7 s, p90 ≈ 18 s), queries in
// a few hundred milliseconds.
type Config struct {
	// N is the number of replicas (must be 3f+1 for some f ≥ 0).
	N int
	// FinalizeBase/FinalizeJitter bound the notarization+finalization delay
	// after a block proposal.
	FinalizeBase, FinalizeJitter time.Duration
	// CertifyDelay is the response-certification (threshold signature) time.
	CertifyDelay time.Duration
	// XNetDelay is the one-way cross-subnet transfer time for replicated
	// calls arriving from (and returning to) canisters on other subnets.
	XNetDelay time.Duration
	// DegradedRoundProb is the probability a round degrades (block maker
	// timeout, fallback to the next rank), adding roundExtension delay.
	DegradedRoundProb float64
	// Seed seeds the beacon and the threshold-key DKG.
	Seed int64
	// DisableThresholdKeys skips DKG (faster tests that do not sign).
	DisableThresholdKeys bool
}

// The rest of the §IV-B envelope, the same on every subnet.
const (
	roundInterval  = time.Second     // target block time
	roundExtension = 9 * time.Second // extra delay of a degraded round
	// The client↔replica round trip of a non-replicated query is
	// queryRTTBase plus up to queryRTTJitter.
	queryRTTBase   = 180 * time.Millisecond
	queryRTTJitter = 80 * time.Millisecond
	// Instructions executed per second, query and replicated.
	queryRate          = 2e8
	updateRate         = 2e9
	maxIngressPerBlock = 64 // ingress messages drained into one block
)

// DefaultConfig returns the mainnet-flavored configuration: 13 replicas
// (f = 4).
func DefaultConfig() Config {
	return Config{
		N:                 13,
		FinalizeBase:      900 * time.Millisecond,
		FinalizeJitter:    900 * time.Millisecond,
		CertifyDelay:      1200 * time.Millisecond,
		XNetDelay:         2300 * time.Millisecond,
		DegradedRoundProb: 0.12,
		Seed:              1,
	}
}

// Replica is one subnet node. Honest replicas build payloads from their own
// Bitcoin adapter; Byzantine replicas may substitute arbitrary payloads when
// they are the block maker.
type Replica struct {
	Index int
	ID    simnet.NodeID
	// payloadBuilders produce per-canister payloads when this replica makes
	// a block.
	payloadBuilders map[CanisterID]PayloadBuilder
	// Byzantine marks the replica as attacker-controlled.
	Byzantine bool
	// MaliciousPayload, when set on a Byzantine replica, overrides the
	// payload for a canister when this replica is the block maker.
	MaliciousPayload func(CanisterID) any
	// Down marks a crashed replica; it is skipped as block maker.
	Down bool
}

// SetPayloadBuilder installs the builder used when this replica proposes.
func (r *Replica) SetPayloadBuilder(id CanisterID, b PayloadBuilder) {
	r.payloadBuilders[id] = b
}

// Result is the outcome of a canister call: the response as a router would
// return it, plus what the subnet adds on the way back to the caller. For a
// replicated call Signature certifies the digest of value and error alone,
// and the heights and the Forwarded/Degraded marks stay zero.
type Result struct {
	RoutedQuery
	// Latency is the end-to-end virtual time from submission to response.
	Latency time.Duration
	// Certified indicates the response carries a subnet threshold signature
	// (replicated calls, and queries served by a certified read-replica
	// fleet).
	Certified bool
}

// RoutedQuery is the outcome a QueryRouter returns for one query: the
// response, the instructions the serving replica charged, and — when the
// router certifies responses — the signature over the CertifiedQuery
// envelope together with the chain position it binds.
type RoutedQuery struct {
	Value any
	Err   error
	// Instructions charged during the execution.
	Instructions uint64
	// Signature, when non-nil, certifies Envelope(method) under the subnet
	// key.
	Signature []byte
	// AnchorHeight/TipHeight are the chain position the response was served
	// at, and the one a certified response is bound to (see CertifiedQuery).
	AnchorHeight int64
	TipHeight    int64
	// Forwarded reports that the staleness bound pushed the query to the
	// authoritative canister instead of a read replica.
	Forwarded bool
	// Degraded annotates the response as served off a possibly stale view:
	// the Bitcoin adapter behind the authoritative canister reported a
	// stalled chain feed, so the data may trail the real network arbitrarily.
	Degraded bool
}

// Envelope rebuilds the CertifiedQuery a router signs for this response —
// what the fleet certifies and audits, and what a client holding the response
// and the subnet key verifies.
func (rq RoutedQuery) Envelope(method string) CertifiedQuery {
	return CertifiedQuery{
		Method:       method,
		Value:        rq.Value,
		ErrText:      ErrText(rq.Err),
		AnchorHeight: rq.AnchorHeight,
		TipHeight:    rq.TipHeight,
	}
}

// QueryRouter serves non-replicated queries for a canister in place of the
// single-instance execution — the read-replica query fleet. Implementations
// must be safe for concurrent use.
type QueryRouter interface {
	RouteQuery(method string, arg any, caller string, now time.Time) RoutedQuery
}

// BlockMetrics records the execution cost of one finalized block.
type BlockMetrics struct {
	Round        int64
	Instructions uint64
	Categories   map[string]uint64
	Ingress      int
	Payloads     int
}

// Subnet is a replicated state machine hosting canisters.
type Subnet struct {
	cfg     Config
	sched   *simnet.Scheduler
	rng     *rand.Rand
	beacon  []byte
	running bool
	halted  bool

	replicas  []*Replica
	canisters map[CanisterID]Canister
	routers   map[CanisterID]QueryRouter
	committee *tecdsa.Committee

	// upgrades journals per-canister upgrade state so a crash mid-install is
	// detectable and recoverable (see UpgradeCanister).
	upgrades map[CanisterID]*upgradeJournal
	// armedCrash, when set, makes the next UpgradeCanister crash at the
	// configured point (chaos fault injection); consumed by that call.
	armedCrash *UpgradeCrash
	// lastUpgrade reports how the most recent UpgradeCanister call ended.
	lastUpgrade UpgradeReport

	round   int64
	ingress []*pendingCall

	// blockMetrics keeps per-block execution statistics for experiments.
	blockMetrics []BlockMetrics
	// onRound observers (tests hook round progression).
	onRound []func(round int64, maker *Replica)
}

type pendingCall struct {
	canister  CanisterID
	method    string
	arg       any
	caller    string
	submitted time.Time
	cb        func(Result)
}

// NewSubnet creates a subnet with the given configuration on a scheduler.
func NewSubnet(sched *simnet.Scheduler, cfg Config) (*Subnet, error) {
	if cfg.N <= 0 || (cfg.N-1)%3 != 0 {
		return nil, fmt.Errorf("ic: subnet size must be 3f+1, got %d", cfg.N)
	}
	s := &Subnet{
		cfg:       cfg,
		sched:     sched,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		canisters: make(map[CanisterID]Canister),
		routers:   make(map[CanisterID]QueryRouter),
		upgrades:  make(map[CanisterID]*upgradeJournal),
	}
	seed := sha256.Sum256([]byte(fmt.Sprintf("beacon-%d", cfg.Seed)))
	s.beacon = seed[:]
	f := (cfg.N - 1) / 3
	if !cfg.DisableThresholdKeys {
		committee, err := tecdsa.NewCommittee(cfg.N, f, s.rng)
		if err != nil {
			return nil, fmt.Errorf("ic: threshold DKG: %w", err)
		}
		s.committee = committee
	}
	for i := 0; i < cfg.N; i++ {
		s.replicas = append(s.replicas, &Replica{
			Index:           i,
			ID:              simnet.NodeID(fmt.Sprintf("ic/%d", i)),
			payloadBuilders: make(map[CanisterID]PayloadBuilder),
		})
	}
	return s, nil
}

// Replicas returns the subnet's replicas.
func (s *Subnet) Replicas() []*Replica { return s.replicas }

// Committee exposes the threshold-signature committee (nil when disabled).
func (s *Subnet) Committee() *tecdsa.Committee { return s.committee }

// InstallCanister deploys a canister under an ID.
func (s *Subnet) InstallCanister(id CanisterID, c Canister) {
	s.canisters[id] = c
}

// Canister returns an installed canister.
func (s *Subnet) Canister(id CanisterID) Canister { return s.canisters[id] }

// SetQueryRouter installs a read-replica query router for a canister:
// subsequent Query calls for that canister are served by the router (the
// fleet) instead of the single canister instance. Passing nil uninstalls.
func (s *Subnet) SetQueryRouter(id CanisterID, r QueryRouter) {
	if r == nil {
		delete(s.routers, id)
		return
	}
	s.routers[id] = r
}

// CrashStage selects where an armed upgrade crash strikes the install.
type CrashStage int

const (
	// CrashTornWrite kills the process mid-write: only a prefix of the
	// pending snapshot reaches disk (a torn state image).
	CrashTornWrite CrashStage = iota + 1
	// CrashBitFlip corrupts one bit of the fully written pending image —
	// the media-fault flavor of a torn state.
	CrashBitFlip
	// CrashMidRestore writes the pending image intact but kills the process
	// during the restore/install step, before the completion marker is set.
	CrashMidRestore
)

func (c CrashStage) String() string {
	switch c {
	case CrashTornWrite:
		return "torn-write"
	case CrashBitFlip:
		return "bit-flip"
	case CrashMidRestore:
		return "mid-restore"
	default:
		return fmt.Sprintf("CrashStage(%d)", int(c))
	}
}

// UpgradeCrash arms a crash for the next UpgradeCanister call. Offset seeds
// where the damage lands (byte offset for torn writes, bit position for
// flips); it is reduced modulo the image size.
type UpgradeCrash struct {
	Stage  CrashStage
	Offset int
}

// RecoverySource says which image a recovered upgrade restarted from.
type RecoverySource int

const (
	// RecoveryNone: the upgrade completed without recovery.
	RecoveryNone RecoverySource = iota
	// RecoveryPending: the pending image survived intact (restore-completion
	// marker was missing but the bytes verified), so recovery replayed it.
	RecoveryPending
	// RecoveryCheckpoint: the pending image was torn/corrupt; recovery fell
	// back to the last good checkpoint (CommitCheckpoint / last completed
	// upgrade).
	RecoveryCheckpoint
)

func (r RecoverySource) String() string {
	switch r {
	case RecoveryNone:
		return "none"
	case RecoveryPending:
		return "pending"
	case RecoveryCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("RecoverySource(%d)", int(r))
	}
}

// UpgradeReport describes how the most recent UpgradeCanister call ended:
// whether an armed crash fired, whether the pending image was detected as
// torn, and which image recovery restarted from.
type UpgradeReport struct {
	Crashed       bool
	Stage         CrashStage
	TornDetected  bool
	RecoveredFrom RecoverySource
}

// upgradeJournal is the per-canister durable upgrade record: the last image
// known good (checkpoint), the image of the in-flight upgrade (pending), and
// the restore-completion marker that distinguishes a finished install from
// one the process died inside.
type upgradeJournal struct {
	checkpoint []byte
	pending    []byte
	complete   bool
}

// ArmUpgradeCrash makes the next UpgradeCanister call crash at the given
// point. The arm is consumed by that call; recovery runs in the same call
// (modeling the post-restart recovery path) and its outcome is readable via
// LastUpgrade.
func (s *Subnet) ArmUpgradeCrash(c UpgradeCrash) { s.armedCrash = &c }

// LastUpgrade reports how the most recent UpgradeCanister call ended.
func (s *Subnet) LastUpgrade() UpgradeReport { return s.lastUpgrade }

// CommitCheckpoint snapshots the live canister into the upgrade journal's
// last-known-good slot — the image a torn upgrade falls back to. Upgrades
// that complete update the checkpoint themselves; call this to establish a
// baseline before the first upgrade (or to tighten the fallback window).
func (s *Subnet) CommitCheckpoint(id CanisterID) error {
	can := s.canisters[id]
	if can == nil {
		return fmt.Errorf("ic: checkpoint: canister %s not found", id)
	}
	sn, ok := can.(Snapshotter)
	if !ok {
		return fmt.Errorf("ic: checkpoint: canister %s has no stable state (does not implement Snapshotter)", id)
	}
	snapshot, err := sn.Snapshot()
	if err != nil {
		return fmt.Errorf("ic: checkpoint: snapshot of %s: %w", id, err)
	}
	j := s.journal(id)
	j.checkpoint = snapshot
	return nil
}

func (s *Subnet) journal(id CanisterID) *upgradeJournal {
	j := s.upgrades[id]
	if j == nil {
		j = &upgradeJournal{}
		s.upgrades[id] = j
	}
	return j
}

// UpgradeCanister performs a canister upgrade round: the running canister
// is stopped, its stable state is captured with Snapshot, reinstall builds
// the upgraded instance from those bytes, and the result replaces the old
// instance under the same ID. The upgrade is atomic with respect to rounds
// — it must be invoked between block executions (e.g. from an OnRound
// observer or from the driving test), mirroring how the real IC drains a
// canister's queues before swapping its Wasm while stable memory carries
// the state across.
//
// The upgrade is journaled: the snapshot is written to a pending slot, the
// install runs, and only then is the restore-completion marker set and the
// pending image promoted to the checkpoint (last known good). A crash armed
// via ArmUpgradeCrash interrupts that sequence at a chosen point — torn
// write, bit flip, or mid-restore — and the same call then runs the
// post-restart recovery path: the pending image is re-verified (statecodec
// checksum on decode plus a byte-identical re-snapshot round-trip — the
// completion marker being absent means it cannot be trusted blindly), and
// either replayed (intact) or discarded in favor of the checkpoint (torn).
// LastUpgrade reports which. A torn pending image with no checkpoint is an
// explicit unrecoverable error, never a silent install.
//
// Payload builders and callers that captured the old canister pointer must
// resolve the canister through Canister(id) per round instead; the old
// instance is frozen at the snapshot point and no longer installed.
func (s *Subnet) UpgradeCanister(id CanisterID, reinstall func(snapshot []byte) (Canister, error)) error {
	can := s.canisters[id]
	if can == nil {
		return fmt.Errorf("ic: upgrade: canister %s not found", id)
	}
	sn, ok := can.(Snapshotter)
	if !ok {
		return fmt.Errorf("ic: upgrade: canister %s has no stable state (does not implement Snapshotter)", id)
	}
	snapshot, err := sn.Snapshot()
	if err != nil {
		return fmt.Errorf("ic: upgrade: snapshot of %s: %w", id, err)
	}
	j := s.journal(id)
	j.complete = false

	if crash := s.armedCrash; crash != nil {
		s.armedCrash = nil
		s.lastUpgrade = UpgradeReport{Crashed: true, Stage: crash.Stage}
		switch crash.Stage {
		case CrashTornWrite:
			// Only a strict prefix of the image reached the pending slot.
			cut := 0
			if len(snapshot) > 0 {
				cut = crash.Offset % len(snapshot)
			}
			j.pending = append([]byte(nil), snapshot[:cut]...)
		case CrashBitFlip:
			cp := append([]byte(nil), snapshot...)
			if len(cp) > 0 {
				off := crash.Offset % len(cp)
				cp[off] ^= 1 << (crash.Offset % 8)
			}
			j.pending = cp
		case CrashMidRestore:
			// The image landed intact; the process died inside the install,
			// so whatever reinstall built is lost — only the journal (with
			// its completion marker still unset) survives the restart.
			j.pending = append([]byte(nil), snapshot...)
			if next, err := reinstall(j.pending); err == nil && next != nil {
				_ = next // died before the swap: discard
			}
		default:
			return fmt.Errorf("ic: upgrade: unknown crash stage %v", crash.Stage)
		}
		return s.recoverUpgrade(id, j, reinstall)
	}

	j.pending = append([]byte(nil), snapshot...)
	next, err := reinstall(j.pending)
	if err != nil {
		return fmt.Errorf("ic: upgrade: reinstall of %s: %w", id, err)
	}
	if next == nil {
		return fmt.Errorf("ic: upgrade: reinstall of %s returned no canister", id)
	}
	s.canisters[id] = next
	j.complete = true
	j.checkpoint = j.pending
	s.lastUpgrade = UpgradeReport{}
	return nil
}

// recoverUpgrade is the post-restart path after a crashed upgrade: the
// completion marker is unset, so the pending image must prove itself before
// it is trusted — reinstall must accept it AND the rebuilt canister must
// re-snapshot byte-identical to it (no silent acceptance of a near-miss
// decode). Anything less is a detected torn state, and recovery falls back
// to the last good checkpoint.
func (s *Subnet) recoverUpgrade(id CanisterID, j *upgradeJournal, reinstall func(snapshot []byte) (Canister, error)) error {
	if len(j.pending) > 0 {
		if next, err := reinstall(j.pending); err == nil && next != nil {
			if rsn, ok := next.(Snapshotter); ok {
				if again, err := rsn.Snapshot(); err == nil && bytes.Equal(again, j.pending) {
					s.canisters[id] = next
					j.complete = true
					j.checkpoint = j.pending
					s.lastUpgrade.RecoveredFrom = RecoveryPending
					return nil
				}
			}
		}
	}
	s.lastUpgrade.TornDetected = true
	if j.checkpoint == nil {
		return fmt.Errorf("ic: upgrade: %s crashed with a torn pending image and no checkpoint to recover from", id)
	}
	next, err := reinstall(j.checkpoint)
	if err != nil {
		return fmt.Errorf("ic: upgrade: %s recovery from checkpoint: %w", id, err)
	}
	if next == nil {
		return fmt.Errorf("ic: upgrade: %s recovery from checkpoint returned no canister", id)
	}
	s.canisters[id] = next
	j.pending = nil
	j.complete = true
	s.lastUpgrade.RecoveredFrom = RecoveryCheckpoint
	return nil
}

// OnRound registers an observer invoked at each round start with the round
// number and the selected block maker.
func (s *Subnet) OnRound(fn func(round int64, maker *Replica)) {
	s.onRound = append(s.onRound, fn)
}

// Start begins the consensus round loop.
func (s *Subnet) Start() {
	if s.running {
		return
	}
	s.running = true
	s.sched.After(roundInterval, s.runRound)
}

// SetHalted pauses (true) or resumes (false) block production — the
// "downtime of the Bitcoin canister" scenario of §IV-A. While halted the
// round loop keeps ticking but produces no blocks.
func (s *Subnet) SetHalted(h bool) { s.halted = h }

// blockMakerFor ranks replicas for a round using the random beacon and
// returns the first rank that is not down.
func (s *Subnet) blockMakerFor(round int64) *Replica {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(round))
	h := sha256.Sum256(append(append([]byte{}, s.beacon...), buf[:]...))
	// Fisher-Yates driven by the beacon gives the full ranking.
	perm := make([]int, len(s.replicas))
	for i := range perm {
		perm[i] = i
	}
	rnd := rand.New(rand.NewSource(int64(binary.BigEndian.Uint64(h[:8]))))
	rnd.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	for _, idx := range perm {
		if !s.replicas[idx].Down {
			return s.replicas[idx]
		}
	}
	return nil
}

// runRound executes one consensus round: select the block maker, assemble
// the block (payloads + ingress), and schedule deterministic execution at
// finalization time.
func (s *Subnet) runRound() {
	if !s.running {
		return
	}
	defer s.sched.After(roundInterval, s.runRound)
	if s.halted {
		return
	}
	round := s.round
	s.round++
	maker := s.blockMakerFor(round)
	if maker == nil {
		return // all replicas down
	}
	for _, fn := range s.onRound {
		fn(round, maker)
	}

	// Assemble payloads: the block maker queries its own builders; a
	// Byzantine maker may substitute arbitrary payloads.
	type payloadEntry struct {
		canister CanisterID
		payload  any
	}
	var payloads []payloadEntry
	for id := range s.canisters {
		if _, ok := s.canisters[id].(PayloadProcessor); !ok {
			continue
		}
		var p any
		if maker.Byzantine && maker.MaliciousPayload != nil {
			p = maker.MaliciousPayload(id)
		} else if b := maker.payloadBuilders[id]; b != nil {
			p = b.BuildPayload()
		}
		if p != nil {
			payloads = append(payloads, payloadEntry{canister: id, payload: p})
		}
	}

	// Drain ingress up to the per-block limit.
	take := min(len(s.ingress), maxIngressPerBlock)
	batch := s.ingress[:take]
	s.ingress = append([]*pendingCall(nil), s.ingress[take:]...)

	// Finalization delay, possibly degraded (maker timeout → next rank).
	delay := s.cfg.FinalizeBase
	if s.cfg.FinalizeJitter > 0 {
		delay += time.Duration(s.rng.Int63n(int64(s.cfg.FinalizeJitter)))
	}
	if s.cfg.DegradedRoundProb > 0 && s.rng.Float64() < s.cfg.DegradedRoundProb {
		delay += roundExtension
	}
	s.sched.After(delay, func() {
		if s.halted {
			return // halted while the block was in flight
		}
		blockTime := s.sched.Now()
		metrics := BlockMetrics{Round: round, Categories: make(map[string]uint64)}
		// 1. Payload processing (Bitcoin adapter responses etc.).
		for _, pe := range payloads {
			proc := s.canisters[pe.canister].(PayloadProcessor)
			meter := NewMeter()
			ctx := &CallContext{Meter: meter, Time: blockTime, Caller: "consensus", Kind: KindUpdate, subnet: s}
			// Errors are intentionally swallowed after accounting: a bad
			// payload must not halt the subnet.
			_ = proc.ProcessPayload(ctx, pe.payload)
			metrics.Instructions += meter.Total()
			for k, v := range meter.Categories() {
				metrics.Categories[k] += v
			}
			metrics.Payloads++
		}
		// 2. Ingress execution in consensus order.
		for _, call := range batch {
			s.executeUpdate(call, blockTime, &metrics)
		}
		// 3. Timers.
		for _, can := range s.canisters {
			if th, ok := can.(TimerHandler); ok {
				meter := NewMeter()
				ctx := &CallContext{Meter: meter, Time: blockTime, Caller: "timer", Kind: KindUpdate, subnet: s}
				th.OnTimer(ctx)
				metrics.Instructions += meter.Total()
			}
		}
		s.blockMetrics = append(s.blockMetrics, metrics)
	})
}

// executeUpdate runs one replicated call and schedules its certified
// response delivery.
func (s *Subnet) executeUpdate(call *pendingCall, blockTime time.Time, metrics *BlockMetrics) {
	can := s.canisters[call.canister]
	meter := NewMeter()
	res := Result{Certified: true}
	if can == nil {
		res.Err = fmt.Errorf("ic: canister %s not found", call.canister)
	} else if err := checkDispatch(can, call.method, KindUpdate); err != nil {
		res.Err = err
	} else {
		ctx := &CallContext{Meter: meter, Time: blockTime, Caller: call.caller, Kind: KindUpdate, subnet: s}
		res.Value, res.Err = can.Update(ctx, call.method, call.arg)
	}
	res.Instructions = meter.Total()
	metrics.Instructions += meter.Total()
	for k, v := range meter.Categories() {
		metrics.Categories[k] += v
	}
	metrics.Ingress++

	// Execution time + certification + XNet return hop.
	execTime := time.Duration(float64(meter.Total()) / updateRate * float64(time.Second))
	respDelay := execTime + s.cfg.CertifyDelay + s.cfg.XNetDelay
	submitted := call.submitted
	cb := call.cb
	s.sched.After(respDelay, func() {
		res.Latency = s.sched.Now().Sub(submitted)
		if s.committee != nil {
			// Certify the response with the subnet key so "any entity that
			// knows the public key of the corresponding subnet" can verify
			// it (§VI).
			digest := ResponseDigest(res.Value, res.Err)
			if sig, err := s.committee.SignSchnorr(digest[:]); err == nil {
				res.Signature = sig.Serialize()
			}
		}
		if cb != nil {
			cb(res)
		}
	})
}

// SubmitUpdate submits a replicated call as if from a canister on another
// subnet: the request pays the inbound XNet hop, waits for block inclusion,
// executes at finalization, and returns a certified response. cb runs on
// the simulation goroutine when the response arrives.
func (s *Subnet) SubmitUpdate(canister CanisterID, method string, arg any, caller string, cb func(Result)) {
	submitted := s.sched.Now()
	s.sched.After(s.cfg.XNetDelay, func() {
		s.ingress = append(s.ingress, &pendingCall{
			canister:  canister,
			method:    method,
			arg:       arg,
			caller:    caller,
			submitted: submitted,
			cb:        cb,
		})
	})
}

// Query executes a non-replicated call against the current state on a
// single randomly chosen replica. The response is not certified ("cannot be
// fully trusted", §IV-B).
func (s *Subnet) Query(canister CanisterID, method string, arg any, caller string, cb func(Result)) {
	submitted := s.sched.Now()
	rtt := queryRTTBase + time.Duration(s.rng.Int63n(int64(queryRTTJitter)))
	// Request travels half the RTT, executes, then returns.
	s.sched.After(rtt/2, func() {
		res := Result{}
		if router := s.routers[canister]; router != nil {
			// Read-replica fleet: the query is served (and certified) by a
			// snapshot-hydrated, delta-fed replica instead of the single
			// canister instance.
			res.RoutedQuery = router.RouteQuery(method, arg, caller, s.sched.Now())
			res.Certified = res.Signature != nil
		} else {
			can := s.canisters[canister]
			meter := NewMeter()
			if can == nil {
				res.Err = fmt.Errorf("ic: canister %s not found", canister)
			} else if err := checkDispatch(can, method, KindQuery); err != nil {
				res.Err = err
			} else {
				ctx := &CallContext{Meter: meter, Time: s.sched.Now(), Caller: caller, Kind: KindQuery, subnet: s}
				res.Value, res.Err = can.Query(ctx, method, arg)
			}
			res.Instructions = meter.Total()
		}
		execTime := time.Duration(float64(res.Instructions) / queryRate * float64(time.Second))
		s.sched.After(execTime+rtt/2, func() {
			res.Latency = s.sched.Now().Sub(submitted)
			if cb != nil {
				cb(res)
			}
		})
	})
}

// BlockMetricsLog returns the accumulated per-block execution metrics.
func (s *Subnet) BlockMetricsLog() []BlockMetrics { return s.blockMetrics }

// VerifyCertifiedQuery rebuilds the CertifiedQuery envelope of a routed
// query response and checks its fleet certification against the subnet's
// public key — what a client holding only the response and the subnet key
// does.
func (s *Subnet) VerifyCertifiedQuery(method string, res Result) bool {
	return res.Certified && s.VerifyCertified(res.Envelope(method), nil, res.Signature)
}

// VerifyCertified checks a certified response signature against the
// subnet's public key.
func (s *Subnet) VerifyCertified(value any, errVal error, signature []byte) bool {
	if s.committee == nil || len(signature) != 64 {
		return false
	}
	digest := ResponseDigest(value, errVal)
	sig, err := parseSchnorr(signature)
	if err != nil {
		return false
	}
	px := xOnly(s.committee.PublicKey().SerializeCompressed())
	return verifySchnorr(sig, digest[:], px)
}
