// Package chaos is a seeded, deterministic fault-injection harness over the
// full stack — simulated Bitcoin network (btcnode), adapter, canister-on-
// subnet, and read-replica query fleet. Each scenario scripts a fault
// schedule (eclipse, partition, withheld/invalid/stale blocks, deep reorg
// attempts near the anchor, replica churn, upgrades under load) against a
// world driven round by round, while an undisturbed oracle canister is fed
// byte-identical payloads (the difftest oracle pattern). After every round
// the harness checks the paper's safety invariants:
//
//   - anchor monotonicity: the δ-stable anchor height never decreases, no
//     matter what the network serves (§III-C's core guarantee);
//   - oracle equivalence: the chaos canister's state stays byte-identical
//     to the oracle's — faults may stall progress, never corrupt it;
//   - certified-response verifiability: fleet responses signed under the
//     subnet key verify via Subnet.VerifyCertified and fail after
//     tampering;
//   - replica freshness: a caught-up, non-quarantined replica serves at
//     the authoritative tip.
//
// Scenarios end healed: the harness requires reconvergence with the honest
// chain and reports rounds-to-reconverge, the recovery metric
// TestChaosScenarios logs per scenario under -v and `bench -fig degrade`
// sweeps against loss rate. Every failure message carries the scenario
// name, seed, and round plus a one-line reproduction command.
package chaos

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/btcnode"
	"icbtc/internal/canister"
	"icbtc/internal/ic"
	"icbtc/internal/ingest"
	"icbtc/internal/obs"
	"icbtc/internal/queryfleet"
	"icbtc/internal/simnet"
)

// CanisterID is the chaos canister's ID on the harness subnet.
const CanisterID ic.CanisterID = "bitcoin"

// Config parameterizes a scenario run.
type Config struct {
	// Seed drives every random choice (scheduler, fault schedule, worker
	// counts). Same seed, same run.
	Seed int64
	// Rounds is the number of harness rounds (0 selects the scenario's
	// default, 60).
	Rounds int
	// CertifyEvery verifies one threshold-signed fleet response every N
	// rounds (0 disables — threshold signing costs tens of ms per round).
	CertifyEvery int
}

// DefaultConfig returns the scenario battery's standard run: 60 rounds,
// certification checked every 10.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, Rounds: 60, CertifyEvery: 10}
}

// The world every scenario runs in; scripts name adversaries and replicas by
// index, so its size is not a per-run choice.
const (
	honestNodes = 8 // honest Bitcoin nodes
	adversaries = 3 // adversarial Bitcoin nodes
	replicas    = 3 // initial query-fleet size
)

// Result summarizes one scenario run.
type Result struct {
	Scenario string
	Seed     int64
	Rounds   int
	// HealRound is the round the scenario lifted its faults (-1 when the
	// scenario injects none).
	HealRound int
	// ConvergedRound is the first post-heal round at which the canister held
	// the honest chain in full (tip hash and available height), or -1.
	ConvergedRound int
	// RecoveryRounds = ConvergedRound − HealRound (0 when no faults).
	RecoveryRounds int
	// OracleIdentical reports whether the final chaos-canister snapshot was
	// byte-identical to the undisturbed oracle's.
	OracleIdentical bool
	// FinalHeight is the honest chain height at the end of the run.
	FinalHeight int64
	// SnapshotBytes is the size of the final state snapshot.
	SnapshotBytes int
	// MetricsText is the merged observability snapshot of the run — the
	// canister, adapter, and fleet registries in Prometheus text form — for
	// humans and soak artifacts.
	MetricsText string
	// MetricsDigest is the SHA-256 of the canonical encoding of the
	// deterministic subset of that snapshot (see World.metricsView for what
	// is excluded and why). Same seed ⇒ same digest: the telemetry extension
	// of the harness's "same seed, same run" promise.
	MetricsDigest [32]byte
}

// World is the live stack a scenario injects faults into. Scenario steps
// may reach any layer: the simnet network (partitions, loss), the btcnode
// adversaries, the adapter's connection hooks, the fleet's churn hooks, and
// the subnet's upgrade path.
type World struct {
	Cfg   Config
	Sched *simnet.Scheduler
	Net   *simnet.Network
	Sim   *btcnode.SimNetwork
	Miner *btcnode.Miner
	// Adapter is the one adapter under test (ID "adapter/chaos").
	Adapter *adapter.Adapter
	// Subnet hosts the chaos canister (upgrades, threshold signing). It is
	// never Start()ed: the harness drives payloads directly so the oracle
	// sees the exact same sequence.
	Subnet *ic.Subnet
	// Oracle is the undisturbed twin: same config, same payloads, never
	// upgraded, never restored.
	Oracle *canister.BitcoinCanister
	Fleet  *queryfleet.Fleet
	// Rng is the harness's fault-schedule RNG, separate from the
	// scheduler's so network jitter and fault timing don't entangle.
	Rng *rand.Rand

	signer     queryfleet.SignFunc
	verifier   queryfleet.VerifyFunc
	lastAnchor int64
	healRound  int
	converged  int
	// recovering is set while the canister replays wire history after a
	// checkpoint rollback (CrashUpgrade → RecoveryCheckpoint): the chaos
	// canister legitimately trails the oracle until replay catches up, at
	// which point byte-equality is re-required and the flag clears.
	recovering bool
	// streamFaulted is set while a frame-fault hook is installed
	// (SetFrameFault): a dropped round-final frame leaves a replica
	// legitimately stale until the next frame reveals the gap, so the
	// freshness invariant is suspended.
	streamFaulted bool
}

// Recovering reports whether the harness is between a checkpoint rollback
// and the round wire replay re-reaches the oracle's state.
func (w *World) Recovering() bool { return w.recovering }

// Canister resolves the chaos canister through the subnet, so scenario
// steps and invariants always see the post-upgrade instance.
func (w *World) Canister() *canister.BitcoinCanister {
	return w.Subnet.Canister(CanisterID).(*canister.BitcoinCanister)
}

// SetHealed records the round the scenario lifted its faults; recovery is
// measured from here.
func (w *World) SetHealed(round int) {
	if w.healRound < 0 {
		w.healRound = round
	}
}

// UpgradeCanister runs a snapshot-reinstall upgrade of the chaos canister
// and re-installs the fleet's stream sink on the new instance (the harness
// authority is a proxy, so the fleet itself needs no rewiring).
func (w *World) UpgradeCanister() error {
	if err := w.Subnet.UpgradeCanister(CanisterID, w.reinstall); err != nil {
		return err
	}
	w.Canister().SetStreamSink(w.Fleet.Feed)
	return nil
}

// reinstall is the upgrade's reinstall step. The restored instance carries a
// fresh metrics registry, which starts on the wall clock; it is put on
// scheduler time here, before the subnet gets it — journal recovery
// re-snapshots the instance inside UpgradeCanister, and a snapshot is timed.
func (w *World) reinstall(snapshot []byte) (ic.Canister, error) {
	c, err := canister.RestoreSnapshot(snapshot)
	if err != nil {
		return nil, err
	}
	c.Metrics().SetClock(w.Sched.Now)
	return c, nil
}

// CrashUpgrade runs a snapshot-reinstall upgrade with a crash armed at the
// given point. The subnet's journal recovery runs in the same call; the
// world is rewired to whatever instance recovery installed. A checkpoint rollback
// (RecoveredFrom == RecoveryCheckpoint) puts the harness into recovering
// mode — the canister replays wire history toward the oracle — and
// re-hydrates every fleet replica, whose states are ahead of the rolled-back
// authority.
func (w *World) CrashUpgrade(crash ic.UpgradeCrash) (ic.UpgradeReport, error) {
	w.Subnet.ArmUpgradeCrash(crash)
	err := w.Subnet.UpgradeCanister(CanisterID, w.reinstall)
	rep := w.Subnet.LastUpgrade()
	if err != nil {
		return rep, err
	}
	w.Canister().SetStreamSink(w.Fleet.Feed)
	if rep.RecoveredFrom == ic.RecoveryCheckpoint {
		w.recovering = true
		for i := 0; i < w.Fleet.Replicas(); i++ {
			if err := w.Fleet.HydrateReplica(i); err != nil {
				return rep, fmt.Errorf("re-hydrate replica %d after rollback: %w", i, err)
			}
		}
	}
	return rep, nil
}

// SetFrameFault installs (or with nil clears) a corruption hook on the
// fleet's frame stream and tracks it for the freshness invariant (a dropped
// frame leaves replicas legitimately stale until the stream moves again).
func (w *World) SetFrameFault(h queryfleet.FrameFault) {
	w.streamFaulted = h != nil
	w.Fleet.SetFrameFault(h)
}

// IsAdversary reports whether a peer ID belongs to an adversarial node.
func (w *World) IsAdversary(id simnet.NodeID) bool {
	for _, adv := range w.Sim.Adversaries {
		if adv.Node.ID == id {
			return true
		}
	}
	return false
}

// DegradeAdapterLinks installs a link profile on BOTH directions of every
// link between the adapter and a Bitcoin node (honest and adversarial
// alike), leaving the honest mesh untouched — the fault entry point for the
// lossy/flapping/spiking network scenarios. The honest nodes keep gossiping
// normally; only the adapter's view of the network degrades, which is the
// deployment-relevant failure (the adapter sits behind its own uplink).
// Passing nil heals every adapter link.
func (w *World) DegradeAdapterLinks(p *simnet.LinkProfile) {
	degrade := func(id simnet.NodeID) {
		w.Net.SetLinkProfile(w.Adapter.ID, id, p)
		w.Net.SetLinkProfile(id, w.Adapter.ID, p)
	}
	for _, n := range w.Sim.Nodes {
		degrade(n.ID)
	}
	for _, adv := range w.Sim.Adversaries {
		degrade(adv.Node.ID)
	}
}

// EclipseAdapter replaces the adapter's peer set with the given peers —
// the fault entry point for eclipse-style scenarios.
func (w *World) EclipseAdapter(peers []simnet.NodeID) {
	for _, p := range w.Adapter.ConnectedPeers() {
		w.Adapter.Disconnect(p)
	}
	for _, p := range peers {
		w.Adapter.ConnectPeer(p)
	}
}

// newWorld builds the full stack for one scenario run.
func newWorld(cfg Config) (*World, error) {
	sched := simnet.NewScheduler(cfg.Seed)
	net := simnet.NewNetwork(sched)
	params := btc.RegtestParams()
	sim := btcnode.BuildHonestNetwork(net, params, honestNodes)
	sim.AddAdversaries(adversaries)

	subnet, signer, verifier, err := Committee(sched, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ccfg := canister.DefaultConfig(btc.Regtest)
	subnet.InstallCanister(CanisterID, canister.New(ccfg))

	acfg := adapter.ConfigForNetwork(btc.Regtest)
	acfg.Connections = 3
	acfg.AddrLowWater = 1
	acfg.AddrHighWater = honestNodes + adversaries
	ad := adapter.New("adapter/chaos", net, params, sim.Directory, acfg)

	w := &World{
		Cfg:       cfg,
		Sched:     sched,
		Net:       net,
		Sim:       sim,
		Miner:     btcnode.NewMiner(sim.Nodes[0], btc.PayToPubKeyHashScript([20]byte{0x42})),
		Adapter:   ad,
		Subnet:    subnet,
		Oracle:    canister.New(ccfg),
		Rng:       rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		signer:    signer,
		verifier:  verifier,
		healRound: -1,
		converged: -1,
	}
	// Every obs registry in the world runs on the scheduler's virtual clock:
	// same seed, same timestamps, bit-identical metrics snapshots. Installed
	// BEFORE the fleet exists — replica hydration takes an authority
	// snapshot, and that snapshot's timing must already be virtual.
	w.Canister().Metrics().SetClock(sched.Now)
	w.Oracle.Metrics().SetClock(sched.Now)
	ad.Metrics().SetClock(sched.Now)
	// The fleet reaches its authority through the subnet (Authority proxy), so
	// upgrades that swap the installed instance are transparent to it.
	fleet, err := queryfleet.New(Authority(w.Canister), queryfleet.Config{
		Replicas:     replicas,
		MaxLagBlocks: 3,
		StalePolicy:  queryfleet.StaleForward,
		AutoResync:   true,
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	w.Fleet = fleet
	fleet.Metrics().SetClock(sched.Now)
	// The proxy authority is not a StreamSource; install the sink by hand
	// (and again after every upgrade — UpgradeCanister does).
	w.Canister().SetStreamSink(fleet.Feed)
	ad.Start()
	return w, nil
}

// RunScenario executes one named (registered) scenario under cfg.
func RunScenario(name string, cfg Config) (Result, error) {
	s, ok := Lookup(name)
	if !ok {
		return Result{}, fmt.Errorf("chaos: unknown scenario %q (have %v)", name, Names())
	}
	return Run(s, cfg)
}

// Run executes one scenario under cfg and returns its result — the entry
// point for parameterized, unregistered scenarios built on the fly (the
// degradation experiments sweep loss rates this way). Any invariant
// violation or scenario error is wrapped with the scenario name, seed, and
// round, plus a one-line reproduction command.
func Run(s Scenario, cfg Config) (Result, error) {
	name := s.Name
	if cfg.Rounds <= 0 {
		cfg.Rounds = 60
	}
	w, err := newWorld(cfg)
	if err != nil {
		return Result{}, fmt.Errorf("chaos: scenario %q seed %d: %w", name, cfg.Seed, err)
	}
	defer w.Fleet.Close()

	fail := func(round int, err error) (Result, error) {
		return Result{}, fmt.Errorf("chaos: scenario %q seed %d round %d: %w\nreproduce: go test ./internal/chaos -run TestChaosScenarios -chaos.scenario=%s -chaos.seed=%d",
			name, cfg.Seed, round, err, name, cfg.Seed)
	}

	for round := 0; round < cfg.Rounds; round++ {
		if err := s.Step(w, round); err != nil {
			return fail(round, err)
		}
		if _, err := w.Miner.Mine(0); err != nil {
			return fail(round, fmt.Errorf("mining: %w", err))
		}
		w.Sched.RunFor(2 * time.Second)
		if err := w.deliverPayload(); err != nil {
			return fail(round, err)
		}
		if err := w.fleetTick(); err != nil {
			return fail(round, err)
		}
		if err := w.checkInvariants(round); err != nil {
			return fail(round, err)
		}
		if w.converged < 0 && w.healRound >= 0 && round >= w.healRound && w.convergedWithHonestChain() {
			w.converged = round
		}
	}

	// A run may not end mid-recovery: a checkpoint rollback must have been
	// replayed back to oracle equality before the last round.
	if w.recovering {
		return fail(cfg.Rounds-1, fmt.Errorf("still replaying after a checkpoint rollback: canister tip %d, oracle %d",
			w.Canister().TipHeight(), w.Oracle.TipHeight()))
	}

	// Every scenario must end healed and reconverged with the honest chain.
	if w.healRound < 0 {
		w.healRound = 0
		if w.converged < 0 && w.convergedWithHonestChain() {
			w.converged = 0
		}
	}
	if w.converged < 0 {
		return fail(cfg.Rounds-1, fmt.Errorf("never reconverged after heal at round %d: canister height %d (available %d), honest chain %d",
			w.healRound, w.Canister().TipHeight(), w.Canister().AvailableHeight(), w.Sim.Nodes[0].Height()))
	}
	chaosSnap, oracleSnap, err := w.snapshots()
	if err != nil {
		return fail(cfg.Rounds-1, err)
	}
	identical := bytes.Equal(chaosSnap, oracleSnap)
	if !identical {
		return fail(cfg.Rounds-1, fmt.Errorf("final state diverged from the oracle: %d vs %d snapshot bytes",
			len(chaosSnap), len(oracleSnap)))
	}
	metricsText, metricsDigest, err := w.metricsView()
	if err != nil {
		return fail(cfg.Rounds-1, err)
	}
	return Result{
		Scenario:        name,
		Seed:            cfg.Seed,
		Rounds:          cfg.Rounds,
		HealRound:       w.healRound,
		ConvergedRound:  w.converged,
		RecoveryRounds:  w.converged - w.healRound,
		OracleIdentical: identical,
		FinalHeight:     w.Sim.Nodes[0].Height(),
		SnapshotBytes:   len(chaosSnap),
		MetricsText:     metricsText,
		MetricsDigest:   metricsDigest,
	}, nil
}

// metricsView merges the world's per-subsystem obs registries into the
// run's telemetry result: the full merged snapshot as Prometheus text, and
// a SHA-256 digest of its canonical (statecodec) encoding.
//
// The digest covers EVERY metric, fleet apply-path histograms included: the
// harness fleet has no auto-apply workers (frames apply on the driver
// goroutine via CatchUp), Fleet.Close joins any workers a fleet does run,
// and all durations are virtual-clock deltas — so the full snapshot
// reproduces bit for bit per seed, with no carve-out.
func (w *World) metricsView() (string, [32]byte, error) {
	canSnap := w.Canister().Metrics().Snapshot()
	adSnap := w.Adapter.Metrics().Snapshot()
	fleetSnap := w.Fleet.Metrics().Snapshot()

	full, err := obs.Merge(canSnap, adSnap, fleetSnap)
	if err != nil {
		return "", [32]byte{}, fmt.Errorf("merge metrics: %w", err)
	}
	var text strings.Builder
	if err := full.WriteProm(&text); err != nil {
		return "", [32]byte{}, fmt.Errorf("render metrics: %w", err)
	}
	return text.String(), sha256.Sum256(full.Encode()), nil
}

// payloadsPerRound is how many consensus payloads execute per harness round.
// Past MultiBlockSyncHeight the adapter serves one block per payload (the
// Algorithm 1 response cap), while the harness mines one block per round —
// recovery is only possible because consensus rounds outnumber blocks, as
// they do on the real IC (~1 s rounds vs ~600 s blocks).
const payloadsPerRound = 3

// deliverPayload runs Algorithm 1 against the chaos canister's current
// request and feeds the resulting payload to BOTH canisters with identical
// contexts — the oracle on one worker, the chaos canister at a randomized
// worker count (1–4, byte-identical by construction).
// Virtual time advances between payloads so blocks requested by one
// HandleRequest can arrive before the next.
func (w *World) deliverPayload() error {
	for k := 0; k < payloadsPerRound; k++ {
		can := w.Canister()
		payload := w.Adapter.HandleRequest(can.CurrentRequest())
		now := w.Sched.Now()
		if err := w.Oracle.ProcessPayload(ic.NewCallContext(ic.KindUpdate, now), payload); err != nil {
			return fmt.Errorf("oracle payload: %w", err)
		}
		workers := 1 + w.Rng.Intn(4)
		if err := can.ProcessPayloadPipelined(ic.NewCallContext(ic.KindUpdate, now), payload, ingest.Config{Workers: workers}); err != nil {
			return fmt.Errorf("chaos payload (%d workers): %w", workers, err)
		}
		w.Sched.RunFor(500 * time.Millisecond)
	}
	return nil
}

// fleetTick catches up every healthy replica. Quarantined replicas stay
// behind (scenarios heal them explicitly); a frame failure on a healthy
// replica quarantines it — RouteQuery then skips it, which the freshness
// invariant tolerates and the storm scenarios exercise.
func (w *World) fleetTick() error {
	for i := 0; i < w.Fleet.Replicas(); i++ {
		r := w.Fleet.Replica(i)
		if r.Broken() {
			continue
		}
		if err := r.CatchUp(); err != nil && !r.Broken() {
			return fmt.Errorf("replica %d catch-up: %w", i, err)
		}
	}
	return nil
}

// checkInvariants runs the per-round safety checks.
func (w *World) checkInvariants(round int) error {
	can := w.Canister()

	// While replaying wire history after a checkpoint rollback, the chaos
	// canister legitimately trails the oracle — monotonicity and
	// byte-equality are suspended, but the canister must never OVERTAKE the
	// oracle, and the moment replay catches up it must be byte-identical
	// again (recovery converges exactly, not approximately).
	if w.recovering {
		got, want := can.TipHeight(), w.Oracle.TipHeight()
		if got > want {
			return fmt.Errorf("recovering canister overtook the oracle: %d vs %d", got, want)
		}
		if got < want || can.AnchorHeight() < w.Oracle.AnchorHeight() ||
			can.AvailableHeight() < w.Oracle.AvailableHeight() {
			return nil // still replaying (headers can lead block downloads)
		}
		chaosSnap, oracleSnap, err := w.snapshots()
		if err != nil {
			return err
		}
		if !bytes.Equal(chaosSnap, oracleSnap) {
			return fmt.Errorf("recovery reached the oracle tip but diverged: %d vs %d snapshot bytes",
				len(chaosSnap), len(oracleSnap))
		}
		w.recovering = false
	}

	// 1. Anchor monotonicity: the δ-stable anchor never rolls back.
	if a := can.AnchorHeight(); a < w.lastAnchor {
		return fmt.Errorf("anchor rolled back: %d -> %d", w.lastAnchor, a)
	} else {
		w.lastAnchor = a
	}

	// 2. Oracle equivalence: faults may stall the chain view, never fork it
	// from the oracle fed the same payloads.
	if got, want := can.TipHeight(), w.Oracle.TipHeight(); got != want {
		return fmt.Errorf("tip height diverged from oracle: %d vs %d", got, want)
	}
	if got, want := can.AnchorHeight(), w.Oracle.AnchorHeight(); got != want {
		return fmt.Errorf("anchor height diverged from oracle: %d vs %d", got, want)
	}
	chaosSnap, oracleSnap, err := w.snapshots()
	if err != nil {
		return err
	}
	if !bytes.Equal(chaosSnap, oracleSnap) {
		return fmt.Errorf("snapshot diverged from oracle: %d vs %d bytes", len(chaosSnap), len(oracleSnap))
	}

	// 3. Replica freshness: a caught-up, healthy replica serves at the
	// authoritative tip — staleness never hides behind an empty inbox.
	// Suspended while a frame-fault hook is live: a dropped round-final
	// frame leaves a replica stale with an empty inbox until the next frame
	// reveals the gap and triggers its resync.
	for i := 0; !w.streamFaulted && i < w.Fleet.Replicas(); i++ {
		r := w.Fleet.Replica(i)
		if r.Broken() || r.Pending() > 0 {
			continue
		}
		if got, want := r.TipHeight(), can.TipHeight(); got != want {
			return fmt.Errorf("caught-up replica %d at tip %d, authority at %d", i, got, want)
		}
	}

	// 4. Certified-response verifiability (every CertifyEvery rounds).
	if w.Cfg.CertifyEvery > 0 && round%w.Cfg.CertifyEvery == w.Cfg.CertifyEvery-1 {
		if err := w.checkCertification(); err != nil {
			return err
		}
	}
	return nil
}

// checkCertification routes signed queries through the fleet and verifies
// each certification under the subnet key, including a tamper check. Both a
// chain query (get_tip) and the telemetry endpoint (get_metrics) are
// exercised: the metrics snapshot rides the same certification envelope as
// any other response, so a client can prove the telemetry it reads came
// from the subnet.
func (w *World) checkCertification() error {
	w.Fleet.SetSigner(w.signer)
	tip := w.Fleet.RouteQuery("get_tip", nil, "chaos", w.Sched.Now())
	met := w.Fleet.RouteQuery("get_metrics", nil, "chaos", w.Sched.Now())
	w.Fleet.SetSigner(nil)
	for _, c := range []struct {
		method string
		rq     ic.RoutedQuery
	}{{"get_tip", tip}, {"get_metrics", met}} {
		if c.rq.Err != nil {
			return fmt.Errorf("certified %s: %w", c.method, c.rq.Err)
		}
		if err := CheckCertified(w.Subnet, c.method, c.rq); err != nil {
			return err
		}
	}
	return nil
}

// convergedWithHonestChain reports whether the chaos canister holds the
// honest chain in full: same tip hash and every block downloaded.
func (w *World) convergedWithHonestChain() bool {
	can := w.Canister()
	honest := w.Sim.Nodes[0]
	if can.AvailableHeight() != honest.Height() {
		return false
	}
	tip, err := can.Query(ic.NewCallContext(ic.KindQuery, w.Sched.Now()), "get_tip", nil)
	if err != nil {
		return false
	}
	hash, ok := tip.(btc.Hash)
	return ok && hash == honest.BestTip().Hash
}

// snapshots returns the chaos and oracle snapshots for byte comparison.
func (w *World) snapshots() (chaosSnap, oracleSnap []byte, err error) {
	chaosSnap, err = w.Canister().Snapshot()
	if err != nil {
		return nil, nil, fmt.Errorf("chaos snapshot: %w", err)
	}
	oracleSnap, err = w.Oracle.Snapshot()
	if err != nil {
		return nil, nil, fmt.Errorf("oracle snapshot: %w", err)
	}
	return chaosSnap, oracleSnap, nil
}
