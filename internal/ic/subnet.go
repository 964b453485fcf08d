package ic

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"time"

	"icbtc/internal/secp256k1"
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
	// DegradedRoundProb is the probability a round degrades (block maker
	// timeout, fallback to the next rank), adding roundExtension delay.
	DegradedRoundProb float64
	// Seed seeds the beacon and the threshold-key DKG.
	Seed int64
	// DisableThresholdKeys skips DKG (faster tests that do not sign).
	DisableThresholdKeys bool
}

// The §IV-B latency envelope, the same on every subnet.
const (
	roundInterval  = time.Second     // target block time
	roundExtension = 9 * time.Second // extra delay of a degraded round
	// The notarization+finalization delay after a block proposal is
	// finalizeBase plus up to finalizeJitter.
	finalizeBase   = 900 * time.Millisecond
	finalizeJitter = 900 * time.Millisecond
	// certifyDelay is the response-certification (threshold signature) time.
	certifyDelay = 1200 * time.Millisecond
	// xnetDelay is the one-way cross-subnet transfer time for replicated
	// calls arriving from (and returning to) canisters on other subnets.
	xnetDelay = 2300 * time.Millisecond
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
		DegradedRoundProb: 0.12,
		Seed:              1,
	}
}

// Replica is one subnet node. Honest replicas build payloads from their own
// Bitcoin adapter; a Byzantine replica substitutes arbitrary payloads when it
// is the block maker.
type Replica struct {
	Index int
	ID    simnet.NodeID
	// payloadBuilders produce per-canister payloads when this replica makes
	// a block.
	payloadBuilders map[CanisterID]PayloadBuilder
	// MaliciousPayload, when set, makes the replica Byzantine: it overrides
	// the payload for a canister when this replica is the block maker.
	MaliciousPayload func(CanisterID) any
	// Down marks a crashed replica; it is skipped as block maker.
	Down bool
}

// SetPayloadBuilder installs the builder used when this replica proposes.
func (r *Replica) SetPayloadBuilder(id CanisterID, b PayloadBuilder) {
	r.payloadBuilders[id] = b
}

// Result is the outcome of a subnet call: the response and the instructions
// it charged, plus what the subnet adds on the way back to the caller. For a
// replicated call Signature certifies the digest of value and error alone,
// and the heights and the Forwarded/Degraded marks stay zero; a query's
// response is not certified.
type Result struct {
	RoutedQuery
	// Latency is the end-to-end virtual time from submission to response.
	Latency time.Duration
	// Certified indicates the response carries a subnet threshold signature:
	// a replicated call's.
	Certified bool
}

// RoutedQuery is the outcome of one query routed through the read-replica
// fleet (queryfleet.Fleet.RouteQuery): the response, the instructions the
// serving replica charged, and — when the fleet certifies responses — the
// signature over the CertifiedQuery envelope together with the chain
// position it binds.
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

// Envelope rebuilds the CertifiedQuery the fleet signs for this response —
// what the fleet certifies and audits, and what a client holding the response
// and the subnet key verifies with Subnet.VerifyCertified.
func (rq RoutedQuery) Envelope(method string) CertifiedQuery {
	return CertifiedQuery{
		Method:       method,
		Value:        rq.Value,
		ErrText:      ErrText(rq.Err),
		AnchorHeight: rq.AnchorHeight,
		TipHeight:    rq.TipHeight,
	}
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
	// order lists the installed canister IDs sorted, so a block processes
	// payloads and runs timers in the same order on every run.
	order     []CanisterID
	committee *tecdsa.Committee

	// checkpoints journals each canister's last image known good: the
	// image a crashed upgrade falls back to (see RecoverUpgrade).
	checkpoints map[CanisterID][]byte

	round   int64
	ingress []*pendingCall
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
		cfg:         cfg,
		sched:       sched,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		canisters:   make(map[CanisterID]Canister),
		checkpoints: make(map[CanisterID][]byte),
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
	if i, found := slices.BinarySearch(s.order, id); !found {
		s.order = slices.Insert(s.order, i, id)
	}
	s.canisters[id] = c
}

// Canister returns an installed canister.
func (s *Subnet) Canister(id CanisterID) Canister { return s.canisters[id] }

// RecoverySource says which image RecoverUpgrade restarted a canister from.
type RecoverySource int

const (
	// RecoveryPending: the pending image verified, so recovery installed it.
	RecoveryPending RecoverySource = iota + 1
	// RecoveryCheckpoint: the pending image was torn or corrupt; recovery
	// fell back to the last good checkpoint (CommitCheckpoint / last
	// completed upgrade).
	RecoveryCheckpoint
)

func (r RecoverySource) String() string {
	switch r {
	case RecoveryPending:
		return "pending"
	case RecoveryCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("RecoverySource(%d)", int(r))
	}
}

// snapshot captures an installed canister's stable state; op names the
// caller in errors.
func (s *Subnet) snapshot(op string, id CanisterID) ([]byte, error) {
	can := s.canisters[id]
	if can == nil {
		return nil, fmt.Errorf("ic: %s: canister %s not found", op, id)
	}
	sn, ok := can.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("ic: %s: canister %s has no stable state (does not implement Snapshotter)", op, id)
	}
	snapshot, err := sn.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("ic: %s: snapshot of %s: %w", op, id, err)
	}
	return snapshot, nil
}

// CommitCheckpoint snapshots the live canister into the upgrade journal's
// last-known-good slot — the image a torn upgrade falls back to. Upgrades
// that complete update the checkpoint themselves; call this to establish a
// baseline before the first upgrade (or to tighten the fallback window).
func (s *Subnet) CommitCheckpoint(id CanisterID) error {
	snapshot, err := s.snapshot("checkpoint", id)
	if err != nil {
		return err
	}
	s.checkpoints[id] = snapshot
	return nil
}

// UpgradeCanister performs a canister upgrade round: the running canister
// is stopped, its stable state is captured with Snapshot, reinstall builds
// the upgraded instance from those bytes, and the result replaces the old
// instance under the same ID. The upgrade is atomic with respect to rounds
// — it must be invoked between block executions (e.g. from the driving
// test), mirroring how the real IC drains a canister's queues before
// swapping its Wasm while stable memory carries the state across.
//
// The upgrade is journaled: the snapshot is the pending image, the install
// runs, and only once the new instance is in place is the pending image
// promoted to the checkpoint (last known good). A replica that dies inside
// that sequence restarts into RecoverUpgrade.
//
// Payload builders and callers that captured the old canister pointer must
// resolve the canister through Canister(id) per round instead; the old
// instance is frozen at the snapshot point and no longer installed.
func (s *Subnet) UpgradeCanister(id CanisterID, reinstall func(snapshot []byte) (Canister, error)) error {
	snapshot, err := s.snapshot("upgrade", id)
	if err != nil {
		return err
	}
	next, err := reinstall(snapshot)
	if err != nil {
		return fmt.Errorf("ic: upgrade: reinstall of %s: %w", id, err)
	}
	if next == nil {
		return fmt.Errorf("ic: upgrade: reinstall of %s returned no canister", id)
	}
	s.canisters[id] = next
	s.checkpoints[id] = snapshot
	return nil
}

// RecoverUpgrade is the path of a replica that restarts after dying inside
// an upgrade of canister id: pending is the image that reached the pending
// slot, possibly torn or corrupt. With no completion marker the image must
// prove itself before it is trusted — reinstall must accept it AND the
// rebuilt canister must re-snapshot byte-identical to it (no silent
// acceptance of a near-miss decode). A verified image is installed and
// becomes the checkpoint. Anything less is a detected torn state, and
// recovery reinstalls the last good checkpoint instead. A torn image with no
// checkpoint is an explicit error that leaves the installed instance alone,
// never a silent install.
func (s *Subnet) RecoverUpgrade(id CanisterID, pending []byte, reinstall func(snapshot []byte) (Canister, error)) (RecoverySource, error) {
	if s.canisters[id] == nil {
		return 0, fmt.Errorf("ic: recover: canister %s not found", id)
	}
	if len(pending) > 0 {
		if next, err := reinstall(pending); err == nil && next != nil {
			if rsn, ok := next.(Snapshotter); ok {
				if again, err := rsn.Snapshot(); err == nil && bytes.Equal(again, pending) {
					s.canisters[id] = next
					s.checkpoints[id] = pending
					return RecoveryPending, nil
				}
			}
		}
	}
	checkpoint := s.checkpoints[id]
	if checkpoint == nil {
		return 0, fmt.Errorf("ic: recover: %s has a torn pending image and no checkpoint to recover from", id)
	}
	next, err := reinstall(checkpoint)
	if err != nil {
		return 0, fmt.Errorf("ic: recover: %s from checkpoint: %w", id, err)
	}
	if next == nil {
		return 0, fmt.Errorf("ic: recover: %s from checkpoint returned no canister", id)
	}
	s.canisters[id] = next
	return RecoveryCheckpoint, nil
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
	maker := s.blockMakerFor(s.round)
	s.round++
	if maker == nil {
		return // all replicas down
	}

	// Assemble payloads: the block maker queries its own builders; a
	// Byzantine maker substitutes arbitrary payloads.
	type payloadEntry struct {
		canister CanisterID
		payload  any
	}
	var payloads []payloadEntry
	for _, id := range s.order {
		if _, ok := s.canisters[id].(PayloadProcessor); !ok {
			continue
		}
		var p any
		if maker.MaliciousPayload != nil {
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
	delay := finalizeBase + time.Duration(s.rng.Int63n(int64(finalizeJitter)))
	if s.cfg.DegradedRoundProb > 0 && s.rng.Float64() < s.cfg.DegradedRoundProb {
		delay += roundExtension
	}
	s.sched.After(delay, func() {
		if s.halted {
			return // halted while the block was in flight
		}
		blockTime := s.sched.Now()
		// 1. Payload processing (Bitcoin adapter responses etc.).
		for _, pe := range payloads {
			proc := s.canisters[pe.canister].(PayloadProcessor)
			ctx := &CallContext{Meter: NewMeter(), Time: blockTime, Caller: "consensus", Kind: KindUpdate, subnet: s}
			// Errors are intentionally swallowed: a bad payload must not
			// halt the subnet.
			_ = proc.ProcessPayload(ctx, pe.payload)
		}
		// 2. Ingress execution in consensus order.
		for _, call := range batch {
			s.executeUpdate(call, blockTime)
		}
		// 3. Timers.
		for _, id := range s.order {
			if th, ok := s.canisters[id].(TimerHandler); ok {
				th.OnTimer(&CallContext{Meter: NewMeter(), Time: blockTime, Caller: "timer", Kind: KindUpdate, subnet: s})
			}
		}
	})
}

// executeUpdate runs one replicated call and schedules its certified
// response delivery.
func (s *Subnet) executeUpdate(call *pendingCall, blockTime time.Time) {
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

	// Execution time + certification + XNet return hop.
	execTime := time.Duration(float64(meter.Total()) / updateRate * float64(time.Second))
	respDelay := execTime + certifyDelay + xnetDelay
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
	s.sched.After(xnetDelay, func() {
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
		execTime := time.Duration(float64(res.Instructions) / queryRate * float64(time.Second))
		s.sched.After(execTime+rtt/2, func() {
			res.Latency = s.sched.Now().Sub(submitted)
			if cb != nil {
				cb(res)
			}
		})
	})
}

// VerifyCertified checks a certified response signature against the
// subnet's public key.
func (s *Subnet) VerifyCertified(value any, errVal error, signature []byte) bool {
	if s.committee == nil || len(signature) != 64 {
		return false
	}
	digest := ResponseDigest(value, errVal)
	sig, err := secp256k1.ParseSchnorrSignature(signature)
	if err != nil {
		return false
	}
	px := new(big.Int).SetBytes(s.committee.PublicKey().XOnlyPubKey())
	return secp256k1.SchnorrVerify(sig, digest[:], px)
}
