// Package difftest is the differential test harness for the canister read
// path: the incremental unstable-state overlay is an equivalence-preserving
// rewrite of the naive §III-C per-request block replay, so the harness runs
// randomized workloads — mines, reorgs up to δ−1 deep, sends (including
// double spends and spends of outputs created on losing branches, which the
// canister deliberately does not validate away), and paginated queries at
// varying minConfirmations — through one canister and answers every request
// twice: by the canister's own read path, and by the replay oracle
// (canister.ReplayUTXOs / ReplayBalance) rescanning the same canister's
// unstable blocks. All request results must be byte-identical, and the
// oracle must leave the canister exactly as it found it.
//
// The harness additionally exercises the snapshot subsystem: at random
// points mid-run the canister is serialized, decoded into a fresh instance,
// and replaced (Config.SnapshotEvery). The oracle derives its answers from
// the restored blocks and stable set alone, never from the restored deltas
// or caches, and a second canister fed through the parallel ingest pipeline,
// never restarted at the same points, must stay byte-identical — the upgrade
// and crash-recovery scenarios, differentially verified.
//
// The harness also stands up a read-replica query fleet (fleetReplicas wide,
// forwarding beyond fleetMaxLag) fed by the overlay canister's delta stream,
// and verifies bounded-staleness serving *exactly*: after every published frame it
// records the authoritative canister's answers to a fixed probe set, then
// holds each replica at a random lag (including mid-reorg, when a reorg's
// blocks arrive as separate frames, and immediately after a snapshot
// re-hydration) and requires the replica's answers to be byte-identical to
// the authoritative canister's recorded answers at the replica's frame.
// Certified responses must verify under the subnet key, and forwarded
// (too-stale) responses must match the current authoritative state.
package difftest

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/btcnode"
	"icbtc/internal/canister"
	"icbtc/internal/chaos"
	"icbtc/internal/ic"
	"icbtc/internal/ingest"
	"icbtc/internal/obs"
	"icbtc/internal/queryfleet"
	"icbtc/internal/simnet"
)

// Config parameterizes one differential run.
type Config struct {
	// Seed drives every random choice; a run is fully reproducible.
	Seed int64
	// Steps is how many workload iterations to execute.
	Steps int
	// Delta is δ (the canisters' stability threshold).
	Delta int64
	// SnapshotEvery, when > 0, snapshot/restores the overlay canister with
	// probability 1/SnapshotEvery per step: the canister is serialized,
	// decoded into a fresh instance that replaces it mid-run, and
	// re-encoding the restored instance must reproduce the snapshot bytes.
	// Every later query cross-checks the restored deltas against the replay
	// oracle's rescan of the restored blocks.
	SnapshotEvery int
	// CertifyEvery, when > 0, threshold-signs one routed query every
	// CertifyEvery steps and verifies it via Subnet.VerifyCertified.
	CertifyEvery int
	// ServeLayers, when true, enables the fleet's serving layers (request
	// coalescing and the certified hot-response cache) and differentially
	// verifies them: a repeat at an unchanged stream generation must be
	// served from the cache byte-identical to a fresh execution, any
	// generation change must invalidate (the cache never serves across a
	// tip move), and a cache-served certified envelope must still verify
	// under the subnet key.
	ServeLayers bool
	// FrameFaults, when true, corrupts the fleet's delta stream with seeded
	// bit-flips, truncations, duplications, and drops (a private RNG, so the
	// workload sequence is identical with faults on or off). Corrupted frames
	// heal by the fleet's automatic re-hydration, not by failing the run.
	// Every corruption must be detected — the
	// per-failure-class counters in Stats are pinned nonzero by the test —
	// and every replica must keep answering byte-identical to the recorded
	// authoritative history at its frame, resyncs included.
	FrameFaults bool
}

// The same on every run.
const (
	addresses     = 10 // size of the synthetic address population
	fleetReplicas = 3  // width of the read-replica fleet
	fleetMaxLag   = 3  // its bounded-staleness limit, in blocks
	hydrateEvery  = 9  // a replica fast-syncs from a fresh snapshot with probability 1/hydrateEvery per step
)

// DefaultConfig returns a workload mix that exercises forks, conflicting
// spends, pagination, confirmation filters, mid-run snapshot/restores, and
// a lag-randomized query fleet within a small δ.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed: seed, Steps: 100, Delta: 6, SnapshotEvery: 5, CertifyEvery: 20, ServeLayers: true,
	}
}

// Stats summarizes a completed run.
type Stats struct {
	Steps            int
	BlocksMined      int
	Reorgs           int
	SplitReorgs      int
	Queries          int
	PagesWalked      int
	ScriptsDerived   int // oracle UTXOs whose script was checked to be the one the queried address derives
	HeaderDelays     int
	SnapshotRestores int
	// SnapshotBytes is the size of the last snapshot taken.
	SnapshotBytes int
	// PipelinedChecks counts steps at which the pipelined canister's
	// snapshot and probe responses were verified byte-identical to the
	// serial overlay's; PipelinedRestores counts its mid-run parallel
	// snapshot re-hydrations; PipelinedWorkerSum accumulates the randomized
	// worker counts (coverage signal: both 1 and >1 must occur).
	PipelinedChecks    int
	PipelinedRestores  int
	PipelinedWorkerSum int
	PipelinedSerial    int // steps run with 1 worker (serial degeneration)
	// Fleet counters.
	FleetFrames        uint64 // frames published by the overlay canister
	FleetReplicaChecks int    // lagged-replica probe batches verified
	FleetLagSum        int64  // total frames of lag across verified checks
	FleetHydrations    int    // mid-run snapshot re-hydrations
	FleetForwardChecks int    // too-stale forwards verified against the authority
	FleetCertified     int    // certified responses verified under the subnet key
	// Frame-stream corruption counters (zero when Config.FrameFaults is
	// off): detections by failure class, and the automatic re-hydrations
	// those detections triggered.
	FleetFrameCorrupt    uint64
	FleetFrameGaps       uint64
	FleetFrameDuplicates uint64
	FleetResyncs         uint64
	// Serving-layer counters (zero when Config.ServeLayers is off).
	FleetServeChecks   int    // same-generation cache-hit batches verified byte-identical
	FleetGenMisses     int    // cross-generation routes verified to bypass the cache
	FleetCertifiedHits int    // cache-served certified envelopes verified under the subnet key
	FleetCacheHits     uint64 // fleet-reported hot-cache hits over the run
	FleetCoalesced     uint64 // fleet-reported coalesced followers over the run
}

// Harness drives the canister under test.
type Harness struct {
	cfg Config
	rng *rand.Rand

	// overlay is the canister under test: it serves every request by its
	// own read path and is the state the replay oracle rescans.
	overlay *canister.BitcoinCanister
	// pipelined receives identical payloads through ProcessPayloadPipelined
	// at per-payload randomized worker counts (1..8, degenerating to the
	// serial loop at 1; the prefetch window is twice the count). After every
	// step its full snapshot and its probe responses must be byte-identical to the
	// serial overlay's, its oracle — across reorgs, header delays and its own
	// mid-run RestoreSnapshotParallel re-hydrations.
	pipelined *canister.BitcoinCanister

	// forge mines every block of the run, on any branch, validating nothing.
	forge *btcnode.Forge
	now   time.Time
	// faultRng drives frame-stream corruption when Config.FrameFaults is
	// set; a private RNG so the workload draws are identical either way.
	faultRng *rand.Rand

	// addrs is the synthetic population queries and outputs draw from.
	addrs []popAddr
	// pool holds previously created outpoints across every branch; spends
	// sample it with replacement, so double spends and spends of outputs
	// created on losing branches occur naturally.
	pool []poolEntry
	// pending holds blocks whose headers were announced (via Next) one step
	// before their blocks are delivered, exercising header-only tree nodes.
	pending []*btc.Block

	// Query-fleet verification state.
	fleet *queryfleet.Fleet
	// probeHistory records, per stream frame seq, the authoritative
	// canister's canonical probe digests right after publishing that frame;
	// a replica whose state sits at frame s must reproduce history[s].
	probeHistory map[uint64][]probeDigest
	lastRecorded uint64
	// subnet supplies the threshold committee certified responses are
	// signed with and verified against; signer is its SignFunc, installed
	// on the fleet only for the queries checkCertification exercises (a
	// threshold signing round costs tens of milliseconds — signing every
	// probe would dominate the run).
	subnet *ic.Subnet
	signer queryfleet.SignFunc
	// lastServe remembers the request the previous serving-layer check
	// cached and the stream generation it was cached at, so the next check
	// can assert the entry is never served once the generation has moved.
	lastServe struct {
		ok   bool
		args canister.GetUTXOsArgs
		gen  uint64
	}

	stats Stats
}

// probeDigest is one probe's canonical response digest.
type probeDigest [32]byte

type popAddr struct {
	address string
	script  []byte
}

// coinbasePayout receives every mined block's subsidy.
var coinbasePayout = btc.PayToPubKeyHashScript([20]byte{0xD1, 0xFF})

type poolEntry struct {
	op    btc.OutPoint
	value int64
}

// New creates a harness with its canisters at genesis.
func New(cfg Config) *Harness {
	params := btc.RegtestParams()
	mk := func() *canister.BitcoinCanister {
		c := canister.DefaultConfig(btc.Regtest)
		c.StabilityThreshold = cfg.Delta
		return canister.New(c)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	h := &Harness{
		cfg:       cfg,
		rng:       rng,
		overlay:   mk(),
		pipelined: mk(),
		forge:     btcnode.NewForge(params),
		now:       time.Unix(int64(params.GenesisHeader.Timestamp), 0).Add(time.Hour),
	}
	if cfg.FrameFaults {
		h.faultRng = rand.New(rand.NewSource(cfg.Seed ^ 0xf4a17))
	}
	for i := 0; i < addresses; i++ {
		var hash [20]byte
		rng.Read(hash[:])
		a := btc.NewP2PKHAddress(hash, params.Network)
		h.addrs = append(h.addrs, popAddr{address: a.String(), script: btc.PayToAddrScript(a)})
	}
	h.setupFleet()
	return h
}

// setupFleet hydrates the read-replica fleet from the (genesis) overlay
// canister and installs its delta-stream sink. The harness applies frames
// itself, so it controls each replica's lag deterministically.
func (h *Harness) setupFleet() {
	fcfg := queryfleet.Config{Replicas: fleetReplicas, MaxLagBlocks: fleetMaxLag}
	if h.cfg.ServeLayers {
		// Coalescing and the hot-response cache sit in front of every routed
		// query, so the whole randomized workload runs against them.
		fcfg.Coalesce = true
		fcfg.CacheEntries = 128
	}
	if h.cfg.CertifyEvery > 0 {
		// A minimal committee-backed subnet supplies threshold signing and
		// the client-side VerifyCertified check.
		var err error
		h.subnet, h.signer, _, err = chaos.Committee(simnet.NewScheduler(h.cfg.Seed), h.cfg.Seed)
		if err != nil {
			panic(fmt.Sprintf("difftest: %v", err))
		}
	}
	// The authority is a proxy through the harness, so snapshot restarts that
	// swap the overlay canister instance mid-run are transparent to the fleet.
	fleet, err := queryfleet.New(chaos.Authority(func() *canister.BitcoinCanister { return h.overlay }), fcfg)
	if err != nil {
		panic(fmt.Sprintf("difftest: fleet: %v", err))
	}
	h.fleet = fleet
	if h.cfg.FrameFaults {
		fleet.SetFrameFault(func(replica int, seq uint64, raw []byte) [][]byte {
			// One RNG draw per (replica, frame) delivery keeps the fault
			// sequence deterministic for a given seed.
			if h.faultRng.Float64() >= 0.15 {
				return [][]byte{raw}
			}
			return chaos.MutateFrame(h.faultRng, raw)
		})
	}
	h.probeHistory = make(map[uint64][]probeDigest)
	h.overlay.SetStreamSink(fleet.Feed)
	// Seed the history for the hydration state (frame 0 = genesis).
	h.probeHistory[0] = h.probeDigests(h.overlay)
}

// Run executes cfg.Steps workload iterations, stopping at the first
// divergence between the overlay and the oracle.
func (h *Harness) Run() (Stats, error) {
	for i := 0; i < h.cfg.Steps; i++ {
		if err := h.Step(); err != nil {
			return h.stats, fmt.Errorf("difftest: seed %d step %d: %w\nreproduce: go test ./internal/difftest -run TestDifferentialOverlayVsReplay -difftest.seed=%d",
				h.cfg.Seed, i, err, h.cfg.Seed)
		}
	}
	return h.stats, nil
}

// Step executes one workload iteration: deliver any deferred blocks, mutate
// the chain (extend or reorg), then cross-check a batch of queries.
func (h *Harness) Step() error {
	h.stats.Steps++
	if err := h.deliverPending(); err != nil {
		return err
	}

	switch {
	case h.rng.Intn(4) == 0 && h.forkDepthBudget() > 0:
		if err := h.reorg(); err != nil {
			return err
		}
	default:
		block, err := h.mineOnTip()
		if err != nil {
			return err
		}
		// One time in five, announce the header first and hold the block
		// back one step (the adapter's upcoming-headers flow), putting a
		// header-only node at the tip of the considered chain.
		if h.rng.Intn(5) == 0 {
			h.stats.HeaderDelays++
			h.pending = append(h.pending, block)
			if err := h.deliver(adapter.Response{Next: []btc.BlockHeader{block.Header}}); err != nil {
				return err
			}
		} else if err := h.deliverBlocks(block); err != nil {
			return err
		}
	}

	// Occasionally tear the overlay canister down to bytes and bring it
	// back mid-run — an upgrade/crash-recovery at a random point in the
	// workload. All later checks run against the restored instance.
	if h.cfg.SnapshotEvery > 0 && h.rng.Intn(h.cfg.SnapshotEvery) == 0 {
		if err := h.snapshotRestart(); err != nil {
			return err
		}
	}

	if err := h.checkPipelined(); err != nil {
		return err
	}
	if err := h.checkQueries(); err != nil {
		return err
	}
	return h.fleetStep()
}

// checkPipelined asserts the pipelined canister is byte-identical to the
// serial overlay oracle: the full snapshot (state, counters, tree, deltas)
// and every probe response. One step in SnapshotEvery it is additionally
// torn down and restored through the sharded parallel decoder at a random
// worker count; re-encoding the restored instance must reproduce the
// snapshot bytes.
func (h *Harness) checkPipelined() error {
	want, err := h.overlay.Snapshot()
	if err != nil {
		return fmt.Errorf("overlay snapshot: %w", err)
	}
	got, err := h.pipelined.Snapshot()
	if err != nil {
		return fmt.Errorf("pipelined snapshot: %w", err)
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("pipelined ingest diverged from the serial oracle: snapshots differ (%d vs %d bytes)",
			len(got), len(want))
	}
	wantProbes := h.probeDigests(h.overlay)
	gotProbes := h.probeDigests(h.pipelined)
	for p := range wantProbes {
		if gotProbes[p] != wantProbes[p] {
			return fmt.Errorf("pipelined ingest diverged from the serial oracle at probe %d", p)
		}
	}
	if h.cfg.SnapshotEvery > 0 && h.rng.Intn(h.cfg.SnapshotEvery) == 0 {
		workers := 1 + h.rng.Intn(8)
		restored, err := canister.RestoreSnapshotParallel(got, ingest.Config{Workers: workers})
		if err != nil {
			return fmt.Errorf("pipelined parallel restore (workers=%d): %w", workers, err)
		}
		again, err := restored.Snapshot()
		if err != nil {
			return fmt.Errorf("pipelined re-snapshot: %w", err)
		}
		if !bytes.Equal(got, again) {
			return fmt.Errorf("parallel restore (workers=%d) not byte-stable: %d -> %d bytes", workers, len(got), len(again))
		}
		h.pipelined = restored
		h.stats.PipelinedRestores++
	}
	h.stats.PipelinedChecks++
	return nil
}

// snapshotRestart replaces the overlay canister with one restored from its
// own snapshot, first asserting the codec's determinism: re-encoding the
// restored canister must reproduce the snapshot byte for byte.
func (h *Harness) snapshotRestart() error {
	snap, err := h.overlay.Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	restored, err := canister.RestoreSnapshot(snap)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	again, err := restored.Snapshot()
	if err != nil {
		return fmt.Errorf("re-snapshot: %w", err)
	}
	if !bytes.Equal(snap, again) {
		return fmt.Errorf("snapshot non-deterministic: re-encoding a restored canister changed %d -> %d bytes",
			len(snap), len(again))
	}
	h.overlay = restored
	// The restored instance must keep publishing the delta stream; its state
	// is byte-identical, so replicas hydrated or fed from the old instance
	// continue seamlessly.
	h.overlay.SetStreamSink(h.fleet.Feed)
	h.stats.SnapshotRestores++
	h.stats.SnapshotBytes = len(snap)
	return nil
}

// deliverPending ships blocks whose headers went out last step.
func (h *Harness) deliverPending() error {
	if len(h.pending) == 0 {
		return nil
	}
	blocks := h.pending
	h.pending = nil
	return h.deliverBlocks(blocks...)
}

// forkDepthBudget returns the deepest admissible fork point distance from
// the tip: at most δ−1 and never below the anchor.
func (h *Harness) forkDepthBudget() int64 {
	budget := h.overlay.TipHeight() - h.overlay.AnchorHeight()
	if max := h.cfg.Delta - 1; budget > max {
		budget = max
	}
	return budget
}

// reorg mines a heavier competing branch from up to δ−1 blocks below the
// tip and delivers it; the canisters must switch their current chain to it.
func (h *Harness) reorg() error {
	h.stats.Reorgs++
	depth := 1 + h.rng.Int63n(h.forkDepthBudget())
	base := h.tipHash()
	for i := int64(0); i < depth; i++ {
		base = h.forge.Parent(base)
	}
	// depth+1 blocks strictly outweigh the displaced suffix (equal bits).
	blocks := make([]*btc.Block, 0, depth+1)
	parent := base
	for i := int64(0); i <= depth; i++ {
		b, err := h.forge.Mine(parent, coinbasePayout, h.randomTxs()...)
		if err != nil {
			return err
		}
		h.recordOutputs(b)
		blocks = append(blocks, b)
		parent = b.BlockHash()
		h.now = h.now.Add(time.Minute)
	}
	h.stats.BlocksMined += len(blocks)
	// Half the reorgs arrive one block per payload: each delivery publishes
	// its own frame, so replicas can be held mid-reorg — on a state where the
	// heavier branch is only partially known — and must still answer exactly
	// as the authoritative canister did at that frame.
	if h.rng.Intn(2) == 0 {
		h.stats.SplitReorgs++
		for _, b := range blocks {
			if err := h.deliverBlocks(b); err != nil {
				return err
			}
		}
		return nil
	}
	return h.deliverBlocks(blocks...)
}

// mineOnTip extends the current chain by one block of random transactions.
func (h *Harness) mineOnTip() (*btc.Block, error) {
	block, err := h.forge.Mine(h.tipHash(), coinbasePayout, h.randomTxs()...)
	if err != nil {
		return nil, err
	}
	h.recordOutputs(block)
	h.stats.BlocksMined++
	h.now = h.now.Add(time.Minute)
	return block, nil
}

// tipHash asks the canister for its current tip.
func (h *Harness) tipHash() btc.Hash {
	v, err := h.overlay.Update(h.ctx(ic.KindUpdate), "get_tip", nil)
	if err != nil {
		panic(err) // get_tip cannot fail
	}
	return v.(btc.Hash)
}

// randomTxs builds 0..4 transactions: spends sampled (with replacement)
// from every output ever created on any branch, occasional alien inputs the
// canister never tracked, and 1..3 outputs paying population addresses.
// One block in eight additionally carries a burst transaction paying tens
// of outputs to a single address, so stable buckets grow deep enough that
// paginated queries resume mid-bucket (exercising the ordered index's
// cursor binary search, not just first pages).
func (h *Harness) randomTxs() []*btc.Transaction {
	txs := make([]*btc.Transaction, 0, 5)
	for n := h.rng.Intn(5); n > 0; n-- {
		tx := &btc.Transaction{Version: 2}
		switch {
		case len(h.pool) > 0 && h.rng.Intn(10) < 7:
			for k := 1 + h.rng.Intn(2); k > 0 && len(h.pool) > 0; k-- {
				e := h.pool[h.rng.Intn(len(h.pool))]
				tx.Inputs = append(tx.Inputs, btc.TxIn{PreviousOutPoint: e.op, Sequence: 0xffffffff})
			}
		default:
			// Alien input: value entering the tracked set from outside, or
			// plain garbage — the canister trusts proof of work, not spends.
			var fake btc.OutPoint
			h.rng.Read(fake.TxID[:])
			tx.Inputs = append(tx.Inputs, btc.TxIn{PreviousOutPoint: fake, Sequence: 0xffffffff})
		}
		for k := 1 + h.rng.Intn(3); k > 0; k-- {
			addr := h.addrs[h.rng.Intn(len(h.addrs))]
			tx.Outputs = append(tx.Outputs, btc.TxOut{
				Value:    500 + int64(h.rng.Intn(10_000)),
				PkScript: addr.script,
			})
		}
		txs = append(txs, tx)
	}
	if h.rng.Intn(8) == 0 {
		burst := &btc.Transaction{Version: 2}
		var fake btc.OutPoint
		h.rng.Read(fake.TxID[:])
		burst.Inputs = append(burst.Inputs, btc.TxIn{PreviousOutPoint: fake, Sequence: 0xffffffff})
		addr := h.addrs[h.rng.Intn(len(h.addrs))]
		for k := 20 + h.rng.Intn(21); k > 0; k-- {
			burst.Outputs = append(burst.Outputs, btc.TxOut{
				Value:    400 + int64(h.rng.Intn(5_000)),
				PkScript: addr.script,
			})
		}
		txs = append(txs, burst)
	}
	return txs
}

// recordOutputs adds a block's outputs to the spend-candidate pool.
func (h *Harness) recordOutputs(block *btc.Block) {
	for _, tx := range block.Transactions {
		txid := tx.TxID()
		for vout := range tx.Outputs {
			h.pool = append(h.pool, poolEntry{
				op:    btc.OutPoint{TxID: txid, Vout: uint32(vout)},
				value: tx.Outputs[vout].Value,
			})
		}
	}
	if len(h.pool) > 600 {
		h.pool = h.pool[len(h.pool)-600:]
	}
}

// deliverBlocks ships blocks (parent-first) to every canister.
func (h *Harness) deliverBlocks(blocks ...*btc.Block) error {
	resp := adapter.Response{}
	for _, b := range blocks {
		resp.Blocks = append(resp.Blocks, adapter.BlockWithHeader{Block: b, Header: b.Header})
	}
	return h.deliver(resp)
}

// deliver processes one payload on every canister with identical contexts,
// then records the authoritative probe answers for any frame the payload
// published — the per-frame history lagged replicas are verified against.
// The pipelined canister receives the payload through the parallel ingest
// pipeline at a per-payload randomized worker count.
func (h *Harness) deliver(resp adapter.Response) error {
	if err := h.overlay.ProcessPayload(h.ctx(ic.KindUpdate), resp); err != nil {
		return fmt.Errorf("overlay payload: %w", err)
	}
	cfg := ingest.Config{Workers: 1 + h.rng.Intn(8)}
	h.stats.PipelinedWorkerSum += cfg.Workers
	if cfg.Workers == 1 {
		h.stats.PipelinedSerial++
	}
	if err := h.pipelined.ProcessPayloadPipelined(h.ctx(ic.KindUpdate), resp, cfg); err != nil {
		return fmt.Errorf("pipelined payload (workers=%d): %w", cfg.Workers, err)
	}
	if seq := h.fleet.LastSeq(); seq > h.lastRecorded {
		h.probeHistory[seq] = h.probeDigests(h.overlay)
		h.lastRecorded = seq
	}
	return nil
}

func (h *Harness) ctx(kind ic.CallKind) *ic.CallContext {
	return &ic.CallContext{Meter: ic.NewMeter(), Time: h.now, Kind: kind}
}

// checkQueries cross-checks a batch of balance and paginated UTXO queries,
// including a deliberately out-of-range confirmations filter.
func (h *Harness) checkQueries() error {
	confChoices := []int64{0, 1, h.cfg.Delta / 2, h.cfg.Delta, h.cfg.Delta + 1}
	for q := 0; q < 4; q++ {
		addr := h.addrs[h.rng.Intn(len(h.addrs))].address
		if h.rng.Intn(12) == 0 {
			addr = "unknown-address"
		}
		minConf := confChoices[h.rng.Intn(len(confChoices))]
		if err := h.compareBalance(addr, minConf); err != nil {
			return err
		}
		if err := h.compareUTXOPages(addr, minConf, 1+h.rng.Intn(7)); err != nil {
			return err
		}
	}
	if err := h.compareFeePercentiles(); err != nil {
		return err
	}
	return h.checkOracleReadOnly()
}

// checkOracleReadOnly pins the oracle's isolation: it reads the canister
// the overlay serves from, so a replay call must leave that canister's
// snapshot bytes and its read memo exactly as they were.
func (h *Harness) checkOracleReadOnly() error {
	before, err := h.overlay.Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot before replay: %w", err)
	}
	cached := h.overlay.ReadMemoSize()
	addr := h.addrs[0].address
	_, _ = canister.ReplayBalance(h.overlay, h.ctx(ic.KindQuery), canister.GetBalanceArgs{Address: addr})
	_, _ = canister.ReplayUTXOs(h.overlay, h.ctx(ic.KindQuery), canister.GetUTXOsArgs{Address: addr})
	after, err := h.overlay.Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot after replay: %w", err)
	}
	if !bytes.Equal(before, after) {
		return fmt.Errorf("replay oracle mutated the canister it read: snapshot %d -> %d bytes", len(before), len(after))
	}
	if got := h.overlay.ReadMemoSize(); got != cached {
		return fmt.Errorf("replay oracle touched the read memo: %d -> %d entries", cached, got)
	}
	return nil
}

// compareFeePercentiles cross-checks get_current_fee_percentiles: the
// per-tip cached query path and an update-kind execution, which bypasses the
// cache and rescans every unstable block on every call, against the replay
// oracle's outpoint-map rescan — answer and metering — twice, so the second
// query answer comes from the cache.
func (h *Harness) compareFeePercentiles() error {
	for round := 0; round < 2; round++ {
		h.stats.Queries++
		a, errA := h.overlay.GetCurrentFeePercentiles(h.ctx(ic.KindQuery))
		updCtx, oracleCtx := h.ctx(ic.KindUpdate), h.ctx(ic.KindUpdate)
		b, errB := h.overlay.GetCurrentFeePercentiles(updCtx)
		want, errW := canister.ReplayFeePercentiles(h.overlay, oracleCtx)
		for _, got := range []struct {
			what string
			v    []int64
			err  error
		}{{"cached", a, errA}, {"uncached", b, errB}} {
			if err := sameError(got.err, errW); err != nil {
				return fmt.Errorf("get_current_fee_percentiles round %d, %s: %w", round, got.what, err)
			}
			if ic.ResponseDigest(got.v, got.err) != ic.ResponseDigest(want, errW) {
				return fmt.Errorf("get_current_fee_percentiles round %d: %s %v != replay %v", round, got.what, got.v, want)
			}
		}
		if u, o := updCtx.Meter.Total(), oracleCtx.Meter.Total(); u != o {
			return fmt.Errorf("get_current_fee_percentiles round %d: uncached metered %d, replay %d", round, u, o)
		}
	}
	return nil
}

func (h *Harness) compareBalance(addr string, minConf int64) error {
	h.stats.Queries++
	args := canister.GetBalanceArgs{Address: addr, MinConfirmations: minConf}
	a, errA := h.overlay.GetBalance(h.ctx(ic.KindQuery), args)
	b, errB := canister.ReplayBalance(h.overlay, h.ctx(ic.KindQuery), args)
	if err := sameError(errA, errB); err != nil {
		return fmt.Errorf("get_balance(%s, c=%d): %w", addr, minConf, err)
	}
	if errA == nil && a != b {
		return fmt.Errorf("get_balance(%s, c=%d): overlay=%d replay=%d", addr, minConf, a, b)
	}
	// A repeated query must hit the overlay's read memo and agree.
	a2, err := h.overlay.GetBalance(h.ctx(ic.KindQuery), args)
	if errA == nil && (err != nil || a2 != a) {
		return fmt.Errorf("get_balance(%s, c=%d): cache answered %d/%v, first answer %d", addr, minConf, a2, err, a)
	}
	return nil
}

func (h *Harness) compareUTXOPages(addr string, minConf int64, limit int) error {
	var tokA, tokB []byte
	for page := 0; ; page++ {
		if page > 400 {
			return fmt.Errorf("get_utxos(%s, c=%d): pagination did not terminate", addr, minConf)
		}
		h.stats.Queries++
		h.stats.PagesWalked++
		resA, errA := h.overlay.GetUTXOs(h.ctx(ic.KindQuery), canister.GetUTXOsArgs{
			Address: addr, MinConfirmations: minConf, Page: tokA, Limit: limit,
		})
		resB, errB := canister.ReplayUTXOs(h.overlay, h.ctx(ic.KindQuery), canister.GetUTXOsArgs{
			Address: addr, MinConfirmations: minConf, Page: tokB, Limit: limit,
		})
		if err := sameError(errA, errB); err != nil {
			return fmt.Errorf("get_utxos(%s, c=%d) page %d: %w", addr, minConf, page, err)
		}
		if errA != nil {
			return nil // both rejected identically (e.g. c > δ)
		}
		if page == 0 {
			if err := h.checkScriptsDerivable(addr, minConf); err != nil {
				return err
			}
		}
		if ic.ResponseDigest(resA, nil) != ic.ResponseDigest(resB, nil) {
			return fmt.Errorf("get_utxos(%s, c=%d) page %d: overlay %+v != replay %+v", addr, minConf, page, resA, resB)
		}
		if resA.NextPage == nil {
			return nil
		}
		tokA, tokB = resA.NextPage, resB.NextPage
	}
}

// checkScriptsDerivable is what lets a get_utxos page drop the script: every
// UTXO in the oracle's whole view of a standard address is locked by exactly
// the script a client derives from that address. A key that parses as no
// address names a script its caller already holds.
func (h *Harness) checkScriptsDerivable(addr string, minConf int64) error {
	a, err := btc.ParseAddress(addr, btc.Regtest)
	if err != nil {
		return nil
	}
	want := btc.PayToAddrScript(a)
	view, err := canister.ReplayView(h.overlay, h.ctx(ic.KindQuery), addr, minConf)
	if err != nil {
		return fmt.Errorf("get_utxos(%s, c=%d) full view: %w", addr, minConf, err)
	}
	for _, u := range view {
		if !bytes.Equal(u.PkScript, want) {
			return fmt.Errorf("get_utxos(%s, c=%d): %v is locked by %x, the address derives %x", addr, minConf, u.OutPoint, u.PkScript, want)
		}
	}
	h.stats.ScriptsDerived += len(view)
	return nil
}

func sameError(a, b error) error {
	switch {
	case a == nil && b == nil:
		return nil
	case a == nil || b == nil:
		return fmt.Errorf("error divergence: overlay=%v replay=%v", a, b)
	case a.Error() != b.Error():
		return fmt.Errorf("error divergence: overlay=%q replay=%q", a, b)
	}
	return nil
}

// probeSpec is one entry of the fixed probe set: a registry method name
// plus its argument. Expressing probes by name keeps the set checkable
// against the canister's method registry — TestProbesCoverRegistryQuery
// asserts every read-only registry method is probed.
type probeSpec struct {
	method string
	arg    any
}

// probeSpecs returns the fixed probe set. It covers every read endpoint in
// the registry: balances (filtered and unfiltered, known and unknown
// addresses), a paginated UTXO page, the fee percentiles, the full header
// range, the health summary (chain-derived apart from the adapter's
// always-zero-in-this-harness self-report), and the exact tip hash.
func (h *Harness) probeSpecs() []probeSpec {
	a0 := h.addrs[0].address
	a1 := h.addrs[1].address
	return []probeSpec{
		{"get_balance", canister.GetBalanceArgs{Address: a0}},
		{"get_balance", canister.GetBalanceArgs{Address: a1}},
		{"get_balance", canister.GetBalanceArgs{Address: "unknown-address"}},
		{"get_balance", canister.GetBalanceArgs{Address: a0, MinConfirmations: h.cfg.Delta}},
		{"get_utxos", canister.GetUTXOsArgs{Address: a0, Limit: 5}},
		{"get_utxos", canister.GetUTXOsArgs{Address: a1, Limit: 5}},
		{"get_current_fee_percentiles", nil},
		{"get_block_headers", canister.GetBlockHeadersArgs{}},
		{"get_health", nil},
		{"get_metrics", nil},
		{"get_tip", nil},
	}
}

// probeDigests answers the fixed probe set on one canister — dispatched by
// method name through the registry, the same path fleet queries take — and
// returns the canonical digest of every response (value and error alike).
//
// get_metrics is the one probe whose raw response legitimately differs
// between equivalent canisters: request counters depend on how often each
// canister has been probed, and a hydrated replica's counters restart at its
// hydration point. Its digest is therefore restricted to the deterministic
// gauge subset — the chain-derived values every canister at the same frame
// must agree on.
func (h *Harness) probeDigests(c *canister.BitcoinCanister) []probeDigest {
	specs := h.probeSpecs()
	out := make([]probeDigest, 0, len(specs))
	for _, p := range specs {
		v, err := c.Query(ic.NewCallContext(ic.KindQuery, h.now), p.method, p.arg)
		if p.method == "get_metrics" && err == nil {
			v = deterministicMetricsView(v)
		}
		out = append(out, probeDigest(ic.ResponseDigest(v, err)))
	}
	return out
}

// deterministicMetricsView reduces a get_metrics response to the gauges in
// canister.DeterministicMetricGauges, in that list's (sorted) order.
func deterministicMetricsView(v any) any {
	res, ok := v.(*canister.MetricsResult)
	if !ok {
		return v
	}
	snap, err := obs.DecodeSnapshot(res.Encoded)
	if err != nil {
		return fmt.Sprintf("difftest: undecodable metrics snapshot: %v", err)
	}
	byName := make(map[string]int64, len(snap.Gauges))
	for _, g := range snap.Gauges {
		byName[g.Name] = g.Value
	}
	view := make([]obs.GaugePoint, 0, len(canister.DeterministicMetricGauges))
	for _, name := range canister.DeterministicMetricGauges {
		view = append(view, obs.GaugePoint{Name: name, Value: byName[name]})
	}
	return view
}

// fleetStep advances each replica by a random number of frames (sometimes
// none, sometimes a snapshot re-hydration) and verifies its answers against
// the recorded authoritative history at its exact frame; then spot-checks
// the routing policies (forwarding beyond the staleness bound, response
// certification).
func (h *Harness) fleetStep() error {
	// Frames a replica may fall behind before the harness force-applies;
	// bounds the probe history the run retains.
	const maxPendingFrames = 10
	for i := 0; i < h.fleet.Replicas(); i++ {
		r := h.fleet.Replica(i)
		if h.rng.Intn(hydrateEvery) == 0 {
			// Fast-sync mid-workload: the replica jumps to the newest state
			// without replaying its queued frames.
			if err := h.fleet.HydrateReplica(i); err != nil {
				return err
			}
			h.stats.FleetHydrations++
		} else {
			pending := r.Pending()
			apply := h.rng.Intn(pending + 1)
			if keep := pending - apply; keep > maxPendingFrames {
				apply = pending - maxPendingFrames
			}
			if _, err := r.ApplyPending(apply); err != nil {
				return err
			}
		}
		if err := h.checkReplicaAgainstHistory(i, r); err != nil {
			return err
		}
	}
	h.pruneHistory()
	if err := h.checkStaleForwarding(); err != nil {
		return err
	}
	// Every seventh step (not every step: the check catches all replicas
	// up, and doing so each step would collapse the random lag distribution
	// the history checks exist for) the serving layers are verified.
	if h.cfg.ServeLayers && h.stats.Steps%7 == 0 {
		if err := h.checkServingLayers(); err != nil {
			return err
		}
	}
	if h.cfg.CertifyEvery > 0 && h.stats.Steps%h.cfg.CertifyEvery == 0 {
		if err := h.checkCertification(); err != nil {
			return err
		}
	}
	fs := h.fleet.Stats()
	h.stats.FleetFrames = fs.Frames
	h.stats.FleetCacheHits = fs.CacheHits
	h.stats.FleetCoalesced = fs.Coalesced
	h.stats.FleetFrameCorrupt = fs.FrameCorrupt
	h.stats.FleetFrameGaps = fs.FrameGaps
	h.stats.FleetFrameDuplicates = fs.FrameDuplicates
	h.stats.FleetResyncs = fs.Resyncs
	return nil
}

// checkServingLayers differentially verifies the fleet's serving layers.
// Cross-generation first: the request the previous check cached must not be
// served from the cache once any frame has moved the stream generation —
// the "never serve across a tip change" contract. Then same-generation:
// with every replica caught up (so the fill provably belongs to the current
// generation) a repeated get_utxos must be served from the cache and be
// byte-identical to both its first execution and a fresh authoritative one.
// Finally a concurrent burst of identical balance queries — whatever mix of
// coalesced followers, cache hits, and executions it resolves to — must fan
// out the one authoritative answer.
func (h *Harness) checkServingLayers() error {
	if h.lastServe.ok && h.fleet.LastSeq() != h.lastServe.gen {
		hits := h.fleet.Stats().CacheHits
		rq := h.fleet.RouteQuery("get_utxos", h.lastServe.args, "difftest", h.now)
		if got := h.fleet.Stats().CacheHits; got != hits {
			return fmt.Errorf("cache served across a generation change (%d -> %d)",
				h.lastServe.gen, h.fleet.LastSeq())
		}
		if rq.Err != nil {
			return fmt.Errorf("cross-generation get_utxos: %w", rq.Err)
		}
		h.stats.FleetGenMisses++
	}
	if err := h.fleet.CatchUpAll(); err != nil {
		return err
	}
	addr := h.addrs[h.rng.Intn(len(h.addrs))].address
	args := canister.GetUTXOsArgs{Address: addr, Limit: 4}
	first := h.fleet.RouteQuery("get_utxos", args, "difftest", h.now)
	if first.Err != nil {
		return fmt.Errorf("serve-layers get_utxos(%s): %w", addr, first.Err)
	}
	hits := h.fleet.Stats().CacheHits
	second := h.fleet.RouteQuery("get_utxos", args, "difftest", h.now)
	if got := h.fleet.Stats().CacheHits; got != hits+1 {
		return fmt.Errorf("repeat get_utxos(%s) at an unchanged generation not served from the cache (hits %d -> %d)",
			addr, hits, got)
	}
	auth, authErr := h.overlay.GetUTXOs(h.ctx(ic.KindQuery), args)
	d := ic.ResponseDigest(second.Value, second.Err)
	if d != ic.ResponseDigest(first.Value, first.Err) {
		return fmt.Errorf("cached get_utxos(%s) differs from its first execution", addr)
	}
	if d != ic.ResponseDigest(auth, authErr) {
		return fmt.Errorf("cached get_utxos(%s) differs from a fresh authoritative execution", addr)
	}
	h.lastServe.ok = true
	h.lastServe.args = args
	h.lastServe.gen = h.fleet.LastSeq()

	bargs := canister.GetBalanceArgs{Address: addr}
	want, wantErr := h.overlay.GetBalance(h.ctx(ic.KindQuery), bargs)
	const burst = 4
	results := make(chan ic.RoutedQuery, burst)
	for i := 0; i < burst; i++ {
		go func() { results <- h.fleet.RouteQuery("get_balance", bargs, "difftest", h.now) }()
	}
	for i := 0; i < burst; i++ {
		rq := <-results
		if err := sameError(rq.Err, wantErr); err != nil {
			return fmt.Errorf("burst get_balance(%s): %w", addr, err)
		}
		if rq.Err == nil && ic.ResponseDigest(rq.Value, nil) != ic.ResponseDigest(want, nil) {
			return fmt.Errorf("burst get_balance(%s) diverged from the authoritative answer", addr)
		}
	}
	h.stats.FleetServeChecks++
	return nil
}

// checkReplicaAgainstHistory requires the replica's probe answers to be
// byte-identical to what the authoritative canister answered at the
// replica's exact frame — whatever its lag, including mid-reorg states and
// states reached by snapshot hydration.
func (h *Harness) checkReplicaAgainstHistory(i int, r *queryfleet.Replica) error {
	seq := r.Seq()
	want, ok := h.probeHistory[seq]
	if !ok {
		return fmt.Errorf("fleet replica %d sits at frame %d with no recorded history", i, seq)
	}
	got := h.probeDigests(r.Canister())
	if len(got) != len(want) {
		return fmt.Errorf("fleet replica %d: %d probes, history has %d", i, len(got), len(want))
	}
	for p := range got {
		if got[p] != want[p] {
			return fmt.Errorf("fleet replica %d at frame %d (lag %d): probe %d diverged from the authoritative response",
				i, seq, h.lastRecorded-seq, p)
		}
	}
	h.stats.FleetReplicaChecks++
	h.stats.FleetLagSum += int64(h.lastRecorded - seq)
	return nil
}

// pruneHistory drops probe records no replica can reach anymore.
func (h *Harness) pruneHistory() {
	min := h.lastRecorded
	for i := 0; i < h.fleet.Replicas(); i++ {
		if s := h.fleet.Replica(i).Seq(); s < min {
			min = s
		}
	}
	for seq := range h.probeHistory {
		if seq < min {
			delete(h.probeHistory, seq)
		}
	}
}

// checkStaleForwarding routes one query through the fleet's policy layer:
// when the round-robin replica exceeds the staleness bound the query must
// come back marked Forwarded and carry the *current* authoritative answer.
func (h *Harness) checkStaleForwarding() error {
	addr := h.addrs[h.rng.Intn(len(h.addrs))].address
	args := canister.GetBalanceArgs{Address: addr}
	rq := h.fleet.RouteQuery("get_balance", args, "difftest", h.now)
	if !rq.Forwarded {
		return nil // served by a within-bound replica; covered by history checks
	}
	auth, err := h.overlay.GetBalance(h.ctx(ic.KindQuery), args)
	if serr := sameError(rq.Err, err); serr != nil {
		return fmt.Errorf("forwarded get_balance(%s): %w", addr, serr)
	}
	if rq.Err == nil && rq.Value.(int64) != auth {
		return fmt.Errorf("forwarded get_balance(%s) = %d, authoritative %d", addr, rq.Value, auth)
	}
	if rq.TipHeight != h.overlay.TipHeight() {
		return fmt.Errorf("forwarded response bound to tip %d, authoritative at %d", rq.TipHeight, h.overlay.TipHeight())
	}
	h.stats.FleetForwardChecks++
	return nil
}

// checkCertification verifies one routed response's threshold signature the
// way a client would — via Subnet.VerifyCertified over the rebuilt
// CertifiedQuery envelope — and that tampering breaks it.
func (h *Harness) checkCertification() error {
	addr := h.addrs[h.rng.Intn(len(h.addrs))].address
	args := canister.GetUTXOsArgs{Address: addr, Limit: 3}
	h.fleet.SetSigner(h.signer)
	defer h.fleet.SetSigner(nil)
	if h.cfg.ServeLayers {
		// Catch the replicas up so the signed response is served at — and
		// therefore cached under — the current stream generation, making the
		// repeat below provably a cache hit.
		if err := h.fleet.CatchUpAll(); err != nil {
			return err
		}
	}
	rq := h.fleet.RouteQuery("get_utxos", args, "difftest", h.now)
	if err := chaos.CheckCertified(h.subnet, "get_utxos", rq); err != nil {
		return fmt.Errorf("get_utxos(%s): %w", addr, err)
	}
	h.stats.FleetCertified++
	if !h.cfg.ServeLayers {
		return nil
	}
	// The repeat must come out of the hot cache carrying the *same*
	// threshold signature bytes, and that cache-served envelope must verify
	// under the subnet key exactly as the fresh one did.
	hits := h.fleet.Stats().CacheHits
	hit := h.fleet.RouteQuery("get_utxos", args, "difftest", h.now)
	if got := h.fleet.Stats().CacheHits; got != hits+1 {
		return fmt.Errorf("signed repeat get_utxos(%s) not served from the hot cache (hits %d -> %d)", addr, hits, got)
	}
	if !bytes.Equal(hit.Signature, rq.Signature) {
		return fmt.Errorf("cache-served get_utxos(%s) carries different signature bytes", addr)
	}
	if err := chaos.CheckCertified(h.subnet, "get_utxos", hit); err != nil {
		return fmt.Errorf("cache-served get_utxos(%s): %w", addr, err)
	}
	h.stats.FleetCertifiedHits++
	return nil
}
