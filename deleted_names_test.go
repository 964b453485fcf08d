package icbtc_test

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// deletedName is one row of TestDeletedNamesStayDeleted: the names or
// patterns a simplification deleted, the files that must not hold them
// again, and why. A later deletion adds a row.
type deletedName struct {
	rule   string // what stays true while the names stay gone
	reason string
	// words are whole identifiers, matched the way grep -w matches them: a
	// maximal run of the word characters [A-Za-z0-9_] equal to one of them.
	words []string
	// patterns are regular expressions matched within one line. Each starts
	// with a literal, so a pass over the tree stays cheap: an alternation is
	// written as one pattern per alternative.
	patterns []string
	// roots are files, directories (every .go file below them) or globs. A
	// root that names nothing fails the row instead of passing it vacuously.
	roots []string
	tests bool   // scan _test.go files too
	skip  string // regexp over the slash path of files the row leaves out
	// probe is one line the row must flag, so a typo cannot make it vacuous.
	probe string
	// gone is a file that must not exist, in a directory that must; a row
	// with it has no names.
	gone string
}

var deletedNames = []deletedName{
	{
		rule: "the module reads no wall clock",
		reason: "benchmark/ is the only wall-clock ruler; the figures, the example contracts and every " +
			"simulation under internal/ run on the virtual clock and are gated on byte equality, so one " +
			"time.Now there makes a golden noise. The match is on the name, not a call: time.Now handed over " +
			"as a value reads the wall clock as well. internal/obs is the one door: its registries and " +
			"tracers default to the wall clock, and every deterministic run replaces it with SetClock",
		patterns: []string{`time\.(Now|Since|Sleep)\b`},
		roots:    []string{"cmd", "examples", "internal"},
		skip:     `^internal/obs/`,
		probe:    `	start := time.Now()`,
	},
	{
		rule: "one forge grinds every synthetic block",
		reason: "every harness that holds the canister to its oracle gets blocks valid by proof of work " +
			"yet carrying unvalidated transactions from btcnode.Forge, pinned byte for byte by " +
			"TestForgeBytes; a harness that assembles and grinds a header itself is a second miner whose " +
			"bytes nothing pins. btc owns MineHeader, btcnode holds the forge, the validating Miner and the " +
			"adversary's withheld branch, and chain's tests mine bare headers for the retarget and " +
			"validation rules",
		patterns: []string{`MineHeader\(`},
		roots:    []string{"cmd", "examples", "internal"},
		tests:    true,
		skip:     `^internal/(btc|btcnode)/|^internal/chain/[^/]*_test\.go$`,
		probe:    `	btc.MineHeader(&hdr, params)`,
	},
	{
		rule: "the fleet serves one way",
		reason: "admission budgets, reject-on-stale and background apply workers were deleted because no " +
			"deployment, harness or benchmark selected them: a replica past the staleness bound forwards, " +
			"every execution runs, and whoever drives the fleet applies its frames; their names returning " +
			"means a second serving mode is coming back",
		words: []string{"StalePolicy", "StaleReject", "ErrTooStale", "ErrBusy", "AutoApply", "Budgets", "CostClass"},
		roots: []string{"cmd", "examples", "internal", "alloc_regression_test.go"},
		tests: true,
		probe: `	cfg.StalePolicy = queryfleet.StaleReject`,
	},
	{
		rule: "only deployments choose settings",
		reason: "the adapter's request lifecycle and Algorithm 1 bounds and the subnet's latency envelope are " +
			"constants, and the fleet always recovers: every deployment, harness and figure ran them at one " +
			"value, and each off-switch only a test turned doubled the configurations to cover; their names " +
			"returning means a test-only mode is coming back. Whole words keep btcnode.MaxHeadersPerMsg out",
		words: []string{"FinalizeBase", "FinalizeJitter", "CertifyDelay", "XNetDelay", "MaxHeaders",
			"MaxResponseBytes", "SyncInterval", "BlockRetryInterval", "RetryJitter", "RequestTimeout",
			"PeerBanScore", "PeerCooldown", "StallTimeout", "AutoResync"},
		roots: []string{"cmd", "examples", "internal", "alloc_regression_test.go"},
		tests: true,
		probe: `	cfg.MaxHeaders = 2000`,
	},
	{
		rule: "figures measure what the code decides: no scaling figure, τ sweep or block log",
		reason: "the throughput-scaling figure rose K-fold with its own load generator, the τ sweep restated " +
			"the one comparison of the synced flag (TestSyncedFlagTau pins it), and the subnet's per-block " +
			"metrics log and round observers had no reader",
		words: []string{"RunScaling", "ScalingResult", "RunTauSweep", "TauSweepResult", "BlockMetrics",
			"BlockMetricsLog", "OnRound"},
		roots: []string{"cmd", "examples", "internal", "alloc_regression_test.go"},
		tests: true,
		probe: `	res := experiments.RunScaling(cfg)`,
	},
	{
		rule:     "figures measure what the code decides: the meter keeps no category table",
		reason:   "Meter.Categories went with the subnet's per-block metrics log: nothing outside a test read it",
		patterns: []string{`func \(m \*Meter\) Categories`},
		roots:    []string{"internal/ic/metering.go"},
		probe:    `func (m *Meter) Categories() map[string]uint64 {`,
	},
	{
		rule: "figures measure what the code decides: no lemma samplers",
		reason: "the eclipse and downtime Monte Carlo samplers drew math/rand numbers against ϕ^ℓ and " +
			"3^(−c*) and ran no system code; the adapter's and the subnet's tests check Lemmas IV.1 and IV.3",
		words: []string{"RunEclipse", "EclipseResult", "EclipseRow", "RunDowntime", "DowntimeResult", "DowntimeRow"},
		roots: []string{"cmd", "examples", "internal", "alloc_regression_test.go"},
		tests: true,
		probe: `	rows := experiments.RunEclipse(seed).Rows`,
	},
	{
		rule:     "figures measure what the code decides: cmd/bench has no -trials",
		reason:   "-trials sized the deleted lemma samplers and nothing else",
		patterns: []string{`"trials"`},
		roots:    []string{"cmd/bench/main.go"},
		probe:    `	trials := flag.Int("trials", 1000, "Monte Carlo trials")`,
	},
	{
		rule: "figures measure what the code decides: no Figure 5",
		reason: "Figure 5 printed UTXOs = 326 + 1506·(week−1), the generator's net 251 outputs per block at " +
			"six blocks a week, and storage = 605 B × UTXOs, so its linearity check read 0 by construction; " +
			"the set's byte model existed only to draw it. The benchmark's snapshot_bytes_per_utxo and " +
			"heap_bytes_per_utxo are the set's size numbers",
		words: []string{"RunFig5", "Fig5Result", "Fig5Row", "Fig5Config", "DefaultFig5Config", "LinearityError",
			"ApproxBytes", "approxBytes", "perUTXOOverhead", "StableStorageBytes"},
		roots: []string{"cmd", "examples", "internal"},
		tests: true,
		probe: `	bytes := set.ApproxBytes()`,
	},
	{
		rule:     "figures measure what the code decides: the golden holds no Figure 5",
		reason:   "Figure 5 read its own generator back (see the Figure 5 row)",
		patterns: []string{`===== Figure 5`},
		roots:    []string{"cmd/bench/testdata/figures.golden"},
		probe:    `===== Figure 5: UTXO set size over time =====`,
	},
	{
		rule: "figures measure what the code decides: no §IV-B latency table",
		reason: "the §IV-B latency table and Figure 7's response-time panels printed the subnet's envelope " +
			"back: a replicated call takes 2·xnetDelay + the wait for the next round (≤ roundInterval) + " +
			"finalizeBase + U[0, finalizeJitter) (+ roundExtension in a degraded round) + certifyDelay + " +
			"instructions/updateRate, a query queryRTTBase + U[0, queryRTTJitter) + instructions/queryRate, " +
			"and Figure 7's bal-repl column was a request's place in the 64-message ingress queue. " +
			"internal/ic's TestReplicatedLatencyEnvelope and TestQueryFasterThanUpdate hold every sample to " +
			"that closed form",
		words: []string{"RunLatency", "LatencyResult", "LatencyConfig", "DefaultLatencyConfig", "Fig7Config",
			"BalanceReplicated", "UTXOsReplicated"},
		roots: []string{"cmd", "examples", "internal"},
		tests: true,
		probe: `	res := experiments.RunLatency(experiments.DefaultLatencyConfig())`,
	},
	{
		rule:     "figures measure what the code decides: cmd/bench has no -scale",
		reason:   "Figure 7 (right) and the cost table meter Canister.Update without a subnet, and -scale had one value in use",
		patterns: []string{`"scale"`},
		roots:    []string{"cmd/bench/main.go"},
		probe:    `	scale := flag.Int("scale", 10, "population scale")`,
	},
	{
		rule:     "figures measure what the code decides: the golden holds no latency table",
		reason:   "the latency distribution printed the subnet's constants back (see the §IV-B row)",
		patterns: []string{`===== Latency distribution`},
		roots:    []string{"cmd/bench/testdata/figures.golden"},
		probe:    `===== Latency distribution (§IV-B) =====`,
	},
	{
		rule:     "figures measure what the code decides: the experiments run no subnet",
		reason:   "Figure 7 (right) and the cost table meter Canister.Update without a subnet; a subnet there would time its own envelope again",
		patterns: []string{`NewSubnet`},
		roots:    []string{"internal/experiments"},
		probe:    `	subnet, err := ic.NewSubnet(sched, cfg)`,
	},
	{
		rule: "figures measure what the code decides: no ablations, and Figure 6 and the read path take a seed",
		reason: "the δ sweep printed CostRequestBase + CostPerIndexSeek + 53·CostPerUTXOStableIndexed + " +
			"(δ−1)·(CostPerUTXOUnstable + CostPerDeltaLookup + CostPerDeltaEntry), 18.8 M + 0.114 M·(δ−1), " +
			"of which the overlay's per-block term is 2 000; the sync-mode table printed maxBlocksAtHeight's " +
			"caps, 1 and 1<<30, over a 40-block chain. -fig readpath shows cost against depth, and the " +
			"adapter's Algorithm 1 tests hold one block per response near the tip and more during initial " +
			"sync. The config structs of Figure 6 and the read path had fields only tests set",
		words: []string{"RunDeltaSweep", "DeltaSweepResult", "DeltaRow", "RunSyncModes", "SyncModeResult",
			"SyncModeRow", "Fig6Config", "DefaultFig6Config", "ReadPathConfig", "DefaultReadPathConfig"},
		roots: []string{"cmd", "examples", "internal"},
		probe: `	res, err := experiments.RunReadPath(experiments.DefaultReadPathConfig())`,
	},
	{
		rule:     "figures measure what the code decides: the golden holds no ablations",
		reason:   "the δ sweep and the sync-mode table read the metering constants and Algorithm 1's caps back (see the ablations row)",
		patterns: []string{`===== Ablation`},
		roots:    []string{"cmd/bench/testdata/figures.golden"},
		probe:    `===== Ablation: δ sweep =====`,
	},
	{
		rule: "fault models live in the harness",
		reason: "the Bitcoin canister gets adapter responses as payloads of finalized blocks, so no lossy hop " +
			"sits between consensus and the canister, and a crashed upgrade is the chaos harness damaging the " +
			"live image and calling Subnet.RecoverUpgrade on it; their names returning means a transport the " +
			"system lacks, or a crash switch inside the subnet, is coming back",
		patterns: []string{`ArmUpgradeCrash`, `UpgradeCrash`, `CrashStage`, `CrashTornWrite`, `CrashBitFlip`,
			`CrashMidRestore`, `LastUpgrade`, `LossyLink`, `lossyLink`, `mildLossProfile`},
		roots: []string{"cmd", "examples", "internal"},
		probe: `	s.ArmUpgradeCrash(CrashStage{CrashTornWrite, CrashBitFlip, CrashMidRestore}, s.LastUpgrade, LossyLink{}, lossyLink, mildLossProfile)`,
	},
	{
		rule: "a cache hit copies its answer once",
		reason: "the registry's key writer is a switch on an argument kind fixed when the registry is built, so " +
			"the key pointer RouteQuery hands it stays on the stack, and MethodByName walks the eight-entry " +
			"table; a func-valued encoder would make the key escape, and a name map hashes on every query. " +
			"Their names returning means the hit path copies again (TestRouteHitAllocations catches an " +
			"escaping key)",
		patterns: []string{`encodeKey`, `methodByName\b`},
		roots:    []string{"internal/canister/*.go"},
		probe:    `	m, ok := methodByName[name]; key := m.encodeKey(arg)`,
	},
	{
		rule: "the read API returns coins",
		reason: "a get_utxos page is utxo.Coin entries — (outpoint, value, height), the IC API's record — 56 " +
			"bytes and pointer-free; the queried address names the script. A []utxo.UTXO in the response " +
			"type or the contract kit means a page holds a script slice per entry again",
		patterns: []string{`\[\]utxo\.UTXO`},
		roots:    []string{"internal/canister/api.go", "internal/core/*.go"},
		tests:    true,
		probe:    `	UTXOs []utxo.UTXO`,
	},
	{
		rule: "the pipeline prebuilds no delta",
		reason: "a block's delta depends on the state the block attaches at, and catch-up folds most blocks " +
			"before their payload ends, so the canister builds deltas last (buildDeltas), only for the blocks " +
			"still above the anchor; a delta, a PreparedDelta or a script-ID cache in the ingest pipeline " +
			"means the prebuild of deltas nobody reads is back",
		patterns: []string{`PrepareBlockDelta`, `ScriptIDCache`, `PreparedDelta`},
		roots:    []string{"internal/ingest/*.go"},
		probe:    `	d := utxo.PrepareBlockDelta(block, ids) // PreparedDelta over a ScriptIDCache`,
	},
	{
		rule:     "the pipeline predicts no attach heights",
		reason:   "attach heights predicted for a prebuilt delta mean the prebuild of deltas nobody reads is back (see the pipeline row)",
		patterns: []string{`predictHeights`},
		roots:    []string{"internal/canister/*.go"},
		probe:    `	heights := predictHeights(blocks)`,
	},
	{
		rule: "a UTXO set changes one way",
		reason: "a set changes by folding whole blocks (ApplyBlockIngest) or by snapshot decode, and nothing " +
			"is unapplied: the canister never rolls back below the anchor, and a simulated Bitcoin node " +
			"refolds its chain from genesis to switch branches. The strict staged apply, block undo data " +
			"and entry-wise Add/Remove were a second way to change a set; whole words keep " +
			"ApplyBlockIngest out",
		words: []string{"ApplyBlock", "UnapplyBlock", "BlockUndo", "ApplyStats", "undoByBlock"},
		roots: []string{"cmd", "examples", "internal"},
		probe: `	undo, err := set.ApplyBlock(block, height)`,
	},
	{
		rule:     "a UTXO set changes one way: no entry-wise writers",
		reason:   "entry-wise Add/Remove were a second way to change a set (see the row above)",
		patterns: []string{`func \(s \*Set\) (Add|Remove)\(`},
		roots:    []string{"internal/utxo/*.go"},
		probe:    `func (s *Set) Add(u UTXO, key string) error {`,
	},
	{
		rule: "stability is read off the node",
		reason: "each header-tree node keeps its subtree's heaviest leaf and greatest height, so d_c, d_w, the " +
			"tip and the greatest height are reads and difficulty-based stability is an integer comparison " +
			"against δ·w(ref); a big.Rat, a tree-wide height counter, an Ancestors walk or a depth function " +
			"that recurses into its children means the walk over the subtree is back. tree_test.go keeps " +
			"the recursive definitions as the reference",
		patterns: []string{`big\.Rat`, `WorkStabilityRelativeTo`, `maxH`, `func \(t \*Tree\) Ancestors`,
			regexp.QuoteMeta(`t.DepthByCount(c)`), regexp.QuoteMeta(`t.DepthByWork(c)`)},
		roots: []string{"internal/chain/*.go"},
		probe: `func (t *Tree) Ancestors() { r := new(big.Rat); maxH++; WorkStabilityRelativeTo(r); t.DepthByCount(c); t.DepthByWork(c) }`,
	},
	{
		rule: "one rule, one home",
		reason: "the hash order behind Definition II.1's tie-break and canonical get_utxos pages is " +
			"btc.Hash.Less; median time past is btc.MedianTimePast over the window chain caches on every " +
			"node; low-S lives in secp256k1. The simulated network plans every message through one link " +
			"model, the zero LinkProfile when none is installed, and the ingest window is 2×Workers. Their " +
			"copies, the network-wide setters, the duplicate and reorder knobs, Broadcast and an ingest " +
			"Window returning means a rule has two homes again",
		patterns: []string{`func lessHash\b`, `func sortHashes\b`, `func parentMTP\b`, `normalizeLowS`,
			`func \(n \*Network\) Broadcast`, `ingest\.Config\{[^}\n]*\bWindow:`},
		words: []string{"SetLossRate", "SetLatency", "DuplicateRate", "ReorderRate", "ReorderDelay"},
		roots: []string{"cmd", "examples", "internal"},
		probe: `func lessHash(a, b btc.Hash) bool { func sortHashes(h []btc.Hash) {}; func parentMTP() {}; normalizeLowS(s); ` +
			`func (n *Network) Broadcast(m Msg) {}; ingest.Config{Workers: 2, Window: 8} }`,
	},
	{
		rule:     "one rule, one home: tecdsa hashes no scalar of its own",
		reason:   "the SEC1 digest scalar and the BIP-340 challenge live in secp256k1 (HashToScalar, SchnorrChallenge)",
		patterns: []string{`hashToScalar`},
		roots:    []string{"internal/tecdsa"},
		probe:    `	e := hashToScalar(digest)`,
	},
	{
		rule: "one rule, one home: the subnet verifies certificates through secp256k1",
		reason: "certify.go's parseSchnorr and verifySchnorr were one-line wrappers and xOnly duplicated " +
			"PublicKey.XOnlyPubKey; Subnet.VerifyCertified calls secp256k1 directly",
		gone: "internal/ic/certify.go",
	},
	{
		rule: "no fold session",
		reason: "the fold session (utxo.Set.FoldSession and the Set's handoff channel) let the index trail " +
			"only inside a caller's closure that promised to read no bucket; the trail now runs on every " +
			"fold and the readers settle instead. Their names returning means a second way to fold is " +
			"coming back",
		patterns: []string{`FoldSession`},
		words:    []string{"handoff"},
		roots:    []string{"internal"},
		probe:    `	s.FoldSession(func() { <-s.handoff })`,
	},
	{
		rule: "the subnet serves queries one way",
		reason: "only a test installed a query router, so Subnet.Query had a branch nothing else selected; " +
			"a certified response is what Fleet.RouteQuery returns, and a client checks it with " +
			"Subnet.VerifyCertified over RoutedQuery.Envelope. Their names returning means a test-only " +
			"query path is coming back",
		words: []string{"QueryRouter", "SetQueryRouter", "VerifyCertifiedQuery"},
		roots: []string{"cmd", "examples", "internal"},
		probe: `	subnet.SetQueryRouter("bitcoin", fleet)`,
	},
	{
		rule: "a histogram's count is read off a snapshot",
		reason: "no code outside obs's own tests called Histogram.Count: every reader takes the count from " +
			"a Snapshot's HistogramPoint.Count, which sums the same buckets under the registry's snapshot",
		patterns: []string{`func \(h \*Histogram\) Count\(`},
		roots:    []string{"internal/obs"},
		probe:    `func (h *Histogram) Count() uint64 {`,
	},
	{
		rule: "only deployments choose settings: Algorithm 1's sync height",
		reason: "every deployment, harness and figure left the multi-block sync height 0, so the adapter " +
			"serves one block per response near the tip; it is an unexported field only Algorithm 1's tests " +
			"in package adapter set, and its exported name returning means a test-only mode is public again",
		words: []string{"MultiBlockSyncHeight"},
		roots: []string{"cmd", "examples", "internal", "alloc_regression_test.go"},
		tests: true,
		probe: `	cfg.MultiBlockSyncHeight = 1000`,
	},
	{
		rule: "the canister keeps one read memo",
		reason: "a query's overlay, what building it metered and its balance share one memo per (address, " +
			"confirmations), emptied on every tree mutation (readMemos); a balance-only memo beside it would " +
			"build the overlay twice and hold two bounds",
		words: []string{"balanceCache", "balanceKey", "BalanceCacheSize"},
		roots: []string{"cmd", "examples", "internal"},
		tests: true,
		probe: `	if got := c.BalanceCacheSize(); got != len(c.balanceCache) {`,
	},
	{
		rule: "the subnet runs what it is handed: no dispatch gate",
		reason: "the canister decides which of its methods serve as queries (BitcoinCanister.Query refuses " +
			"a mutating method before it charges an instruction, and CallContext.Call never asked the " +
			"subnet); the subnet's method table answered true for every update and restated that rule " +
			"for queries. Their names returning means the rule has a second home again",
		words: []string{"MethodTable", "MethodSpec", "checkDispatch"},
		roots: []string{"cmd", "examples", "internal"},
		probe: `	if err := checkDispatch(can, method, KindQuery); err != nil { // MethodTable.MethodSpec`,
	},
	{
		rule: "the subnet runs what it is handed: a Byzantine maker is a replaced builder",
		reason: "a Byzantine block maker is a replica whose payload differs from the honest ones (§IV-A, " +
			"Lemma IV.3); the tests install its payload as its builder, so a second field overriding the " +
			"builder is a second way to set one payload",
		words: []string{"MaliciousPayload"},
		roots: []string{"cmd", "examples", "internal"},
		tests: true,
		probe: `	s.Replicas()[0].MaliciousPayload = func(CanisterID) any { return "evil" }`,
	},
	{
		rule:   "the subnet runs what it is handed: a builder is a closure",
		reason: "every payload builder is a func() any, so an interface with one adapter wrapped each closure once more",
		words:  []string{"PayloadBuilderFunc"},
		roots:  []string{"cmd", "examples", "internal"},
		probe:  `	r.SetPayloadBuilder("btc", PayloadBuilderFunc(func() any { return nil }))`,
	},
	{
		rule: "only deployments choose settings: τ",
		reason: "every deployment, harness and figure ran the canister at τ = 2 and only TestSyncedFlagTau " +
			"set another; τ is the constant syncSlack, still written to a snapshot and checked on restore",
		words: []string{"SyncSlack"},
		roots: []string{"cmd", "examples", "internal"},
		tests: true,
		probe: `	cfg.SyncSlack = tau`,
	},
	{
		rule: "the canister keeps one read memo: the fee percentiles are in it",
		reason: "the fee percentiles are one more read of a tree state (readMemos.fees), emptied with the " +
			"rest on every tree mutation; a (tip, anchor)-keyed entry beside it was a second coherence rule",
		words: []string{"feeCacheEntry"},
		roots: []string{"cmd", "examples", "internal"},
		probe: `	c.feeCache = feeCacheEntry{valid: true, tip: tip, anchor: anchor, percentiles: stored}`,
	},
	{
		rule: "encoders append and cannot fail",
		reason: "btc's wire encoding appends to a []byte (AppendTo, AppendVarInt, AppendVarBytes) and " +
			"ResponseDigest hashes one buffer appendCanonical fills; every writer the old io.Writer " +
			"forms were given was a bytes.Buffer or a hash, so their error branches never fired. Their " +
			"names returning means a second encoder path, or an error nothing raises, is coming back",
		words: []string{"WriteVarInt", "WriteVarBytes", "digestBuf", "writeCanonical"},
		roots: []string{"cmd", "examples", "internal"},
		probe: `	_ = WriteVarInt(w, n); writeCanonical(&digestBuf{}, v); WriteVarBytes(w, b)`,
	},
	{
		rule:     "encoders append and cannot fail: no streaming serializer in btc",
		reason:   "a BlockHeader, Transaction or Block encodes one way, AppendTo (see the row above)",
		patterns: []string{regexp.QuoteMeta(`Serialize(w io.Writer)`)},
		roots:    []string{"internal/btc"},
		probe:    `func (t *Transaction) Serialize(w io.Writer) error {`,
	},
	{
		rule: "no exported method without a caller",
		reason: "BitcoinCanister.Anchor, ScriptIDCache.Network and Len, PrivateKey.Serialize, " +
			"HistogramPoint.Mean, Scheduler.Pending and difftest's Harness.Stats had no caller in any " +
			"package, tests and benchmark/ included, and no deployment set core.Options.Canister: " +
			"core.New installs canister.DefaultConfig. Their return means code kept for a caller that " +
			"does not exist",
		patterns: []string{`func \([a-z]+ \*BitcoinCanister\) Anchor\(`, `func \([a-z]+ \*ScriptIDCache\) Network\(`,
			`func \([a-z]+ \*ScriptIDCache\) Len\(`, `func \([a-z]+ \*PrivateKey\) Serialize\(`,
			`func \([a-z]+ \*HistogramPoint\) Mean\(`, `func \([a-z]+ \*Scheduler\) Pending\(`,
			`func \([a-z]+ \*Harness\) Stats\(`, `Canister +\*canister\.Config\b`},
		roots: []string{"cmd", "examples", "internal"},
		probe: `func (c *BitcoinCanister) Anchor(); func (c *ScriptIDCache) Network(); func (c *ScriptIDCache) Len(); ` +
			`func (k *PrivateKey) Serialize(); func (p *HistogramPoint) Mean(); func (s *Scheduler) Pending(); ` +
			`func (h *Harness) Stats(); Canister *canister.Config`,
	},
	{
		rule: "each simulated fault has one switch: an adapter has one life",
		reason: "nothing outside the adapter's own tests stopped an adapter, and the restart it modelled kept " +
			"the header tree, blocks, address book and peer scores that a restarted process would lose; " +
			"Start runs once and the adapter runs for the life of the simulation. Their names returning " +
			"means a lifecycle no harness drives is coming back",
		words:    []string{"syncGen", "StateStopped"},
		patterns: []string{`func \([a-z]+ \*Adapter\) Stop\(`},
		roots:    []string{"cmd", "examples", "internal"},
		tests:    true,
		probe:    `func (a *Adapter) Stop() { a.syncGen++; a.met.stateChanges.With(StateStopped.String()).Inc() }`,
	},
	{
		rule: "each simulated fault has one switch: an adversarial peer has one behavior",
		reason: "every scenario and test set one adversarial behavior at a time and later cleared it, so five " +
			"toggles and a drip duration became one Behave(Behavior); only NewAdversary turns script " +
			"validation off, so the node's switch is unexported. Their names returning means combinations " +
			"no harness uses are coming back",
		words: []string{"ValidateScripts", "SetServeForkOnly", "SetSilent", "SetWithholdData", "SetCorruptBlocks",
			"SetFrozen", "SetSlowDrip"},
		roots: []string{"cmd", "examples", "internal"},
		tests: true,
		probe: `	adv.SetSilent(true); adv.SetServeForkOnly(true); adv.SetWithholdData(true); adv.SetCorruptBlocks(true); ` +
			`adv.SetFrozen(true); adv.SetSlowDrip(d); n.ValidateScripts = false`,
	},
	{
		rule: "each simulated fault has one switch: a crashed node is a partition of one",
		reason: "a node in a partition group of its own sends and receives nothing, checked at send and again " +
			"at delivery and drawing no RNG when it drops, which is all a crash set did",
		words: []string{"SetDown", "IsDown", "downNodes"},
		roots: []string{"cmd", "examples", "internal"},
		tests: true,
		probe: `	if n.downNodes[to] || net.IsDown(id) { net.SetDown(id, true) }`,
	},
	{
		rule: "the chaos scenarios are one table",
		reason: "no package outside chaos registered a scenario, so the registry map, its init and Register " +
			"were an extension point nothing used; the scenarios are a slice literal Lookup and Names walk, " +
			"the shape of the bench figures and example contracts tables",
		patterns: []string{`Register\(Scenario`},
		roots:    []string{"cmd", "examples", "internal"},
		tests:    true,
		probe:    `	Register(Scenario{Name: "eclipse"})`,
	},
	{
		rule: "btc carries no witness data",
		reason: "TxIn.Witness was never set, encoded or parsed in any package, benchmark/ included, and it " +
			"grew every parsed input from 72 to 96 bytes",
		words: []string{"Witness"},
		roots: []string{"cmd", "examples", "internal"},
		tests: true,
		probe: `	in.Witness = [][]byte{sig, pub}`,
	},
	{
		rule: "every encoding has a reader: get_metrics answers with its snapshot",
		reason: "get_metrics returns the registry's *obs.Snapshot, which the response digest certifies like " +
			"every other answer; the second binary encoding it was wrapped in, the decoder that read it back " +
			"and that decoder's fuzz target guarded bytes no boundary carries. Their names returning means a " +
			"codec with no reader is coming back",
		words: []string{"MetricsResult", "DecodeSnapshot", "FuzzMetricsSnapshotDecodeReframed"},
		roots: []string{"cmd", "examples", "internal"},
		tests: true,
		probe: `	snap, err := obs.DecodeSnapshot(res.(*canister.MetricsResult).Encoded)`,
	},
	{
		rule: "every encoding has a reader: no codec only its round-trip test reads",
		reason: "compact ECDSA signatures, private keys from bytes, hashes from display hex, Merkle " +
			"inclusion proofs and the tracer's text dump were encoded or decoded by nothing but their own " +
			"round-trip tests, benchmark/ included; MerkleRootFromHashes stays, as the block check needs it",
		words: []string{"SerializeCompact", "ParseCompactSignature", "PrivateKeyFromBytes", "NewHashFromString",
			"BuildMerkleProof", "MerkleProof"},
		patterns: []string{`func \([a-z]+ \*Tracer\) WriteText\(`},
		roots:    []string{"cmd", "examples", "internal"},
		tests:    true,
		probe: `func (t *Tracer) WriteText(w io.Writer) error { ParseCompactSignature(s.SerializeCompact()); ` +
			`PrivateKeyFromBytes(b); NewHashFromString(h); BuildMerkleProof(hs, 0) }`,
	},
	{
		rule: "no exported method without a caller: adapter attempts and genesis work",
		reason: "Adapter.BlockRequestAttempts had no reference in any file, and Params.GenesisWork only a " +
			"positivity assertion in its own test; benchmark/ uses neither",
		words: []string{"BlockRequestAttempts", "GenesisWork"},
		roots: []string{"cmd", "examples", "internal"},
		tests: true,
		probe: `	if a.BlockRequestAttempts(h) > 0 && p.GenesisWork().Sign() > 0 {`,
	},
	{
		rule: "each UTXO is stored once",
		reason: "the outpoint table's arena holds every UTXO of the set, and a height group names its " +
			"entries by 4-byte arena refs; the 48-byte per-bucket copy of each entry it replaced cost every " +
			"canister and replica 44 bytes a UTXO. Its name returning means a second copy of the set is " +
			"coming back",
		words: []string{"bucketEntry"},
		roots: []string{"internal/utxo"},
		tests: true,
		probe: `	entries []bucketEntry`,
	},
	{
		rule: "a bucket holds no pointers",
		reason: "a bucket keeps its arena refs in one slab, and a height group is a 16-byte record of " +
			"where its run lies; a group header owning a refs slice of its own cost 32 bytes, an " +
			"allocation a group on a folded set and a slice header the collector scanned, and pageGroup " +
			"cut such slices from a shared column that a restored bucket's first append left pinned. " +
			"Their names returning means per-group slices are coming back",
		words:    []string{"pageGroup"},
		patterns: []string{`heightGroup\{[^}]*\brefs:`, `groups\[[^]]*\]\.refs\b`},
		roots:    []string{"internal/utxo"},
		tests:    true,
		probe:    `	bd.groups = append(bd.groups, pageGroup(w, 0, n, h)); g := heightGroup{height: h, refs: w.refs[lo:hi:hi]}; next := b.groups[k].refs[0]`,
	},
	{
		rule: "the committee does not check dealings it just made",
		reason: "the committee is passively secure and runs in one process, so every Feldman commitment " +
			"it built was checked only by the lines that had just dealt the shares, and the invalid-dealing " +
			"error could not fire; each dealer now adds secret·G to the public point, and Sign and " +
			"SignSchnorr still verify every signature they return. The commitments and share checks cost " +
			"the signing path most of its scalar multiplications. Their names returning means a check " +
			"with no adversary is coming back",
		words: []string{"Feldman", "FeldmanCommitment", "commitPolynomial", "ShareSecretVerifiable", "VerifyShare",
			"PublicPoint", "AddCommitments"},
		roots: []string{"cmd", "examples", "internal"},
		tests: true,
		probe: `	shares, commit, err := ShareSecretVerifiable(secret, n, t, rng); ok := VerifyShare(shares[0], commit)`,
	},
	{
		rule: "no exported method without a caller: committee key shares",
		reason: "Committee.KeyShareOf said it must never be used outside tests, and only tecdsa's own " +
			"tests called it; they read the party's share directly. A production type carries no " +
			"test-only accessor",
		words: []string{"KeyShareOf"},
		roots: []string{"cmd", "examples", "internal"},
		tests: true,
		probe: `	share := c.KeyShareOf(0)`,
	},
	{
		rule: "every encoding has a reader: chaos compares its metrics as text",
		reason: "Snapshot.Encode's only reader was chaos's metrics digest, a hash of a second rendering of " +
			"what MetricsText already holds metric for metric; the determinism test compares the whole " +
			"Result, text included, and names the first line that differs, and the crash-storm pins hash " +
			"the text. Their names returning means a codec with no reader is coming back",
		words:    []string{"MetricsDigest", "metricsDigest"},
		patterns: []string{`func \(s \*Snapshot\) Encode\(`, `"icbtc/obs-snapshot`},
		roots:    []string{"cmd", "examples", "internal"},
		tests:    true,
		probe:    `func (s *Snapshot) Encode() []byte { e := statecodec.NewEncoder("icbtc/obs-snapshot\n", 1, 0); res.MetricsDigest }`,
	},
}

// TestDeletedNamesStayDeleted runs the table: no covered file holds a row's
// names or patterns, no file a row forbids exists, and no row is vacuous —
// every root exists and covers a file, and every probe is flagged.
func TestDeletedNamesStayDeleted(t *testing.T) {
	sources := map[string]*source{}
	for _, r := range deletedNames {
		fail := func(format string, args ...any) {
			t.Errorf("%s: %s\n\twhy: %s", r.rule, fmt.Sprintf(format, args...), r.reason)
		}
		if r.gone != "" {
			if _, err := os.Stat(r.gone); err == nil {
				fail("%s exists", r.gone)
			} else if _, err := os.Stat(filepath.Dir(r.gone)); err != nil {
				fail("the directory of %s is gone, so the row checks nothing: %v", r.gone, err)
			}
			continue
		}
		m, err := r.compile()
		if err != nil {
			fail("%v", err)
			continue
		}
		if err := m.checkProbe(r.probe); err != nil {
			fail("probe %q: %v", r.probe, err)
		}
		files, err := r.files()
		if err != nil {
			fail("%v", err)
			continue
		}
		for _, path := range files {
			src := sources[path]
			if src == nil {
				if src, err = readSource(path); err != nil {
					fail("%v", err)
					continue
				}
				sources[path] = src
			}
			for _, at := range m.hits(src.text, src.idents) {
				line := bytes.Count(src.text[:at], []byte("\n"))
				fail("%s:%d: %s", path, line+1, src.line(line))
			}
		}
	}
}

// matcher is a row compiled: a word set and regular expressions.
type matcher struct {
	words    map[string]bool
	patterns []*regexp.Regexp
}

var identifier = regexp.MustCompile(`^[A-Za-z0-9_]+$`)

func (r *deletedName) compile() (*matcher, error) {
	m := &matcher{words: make(map[string]bool)}
	for _, w := range r.words {
		if !identifier.MatchString(w) {
			return nil, fmt.Errorf("word %q is not an identifier, so no token can equal it", w)
		}
		m.words[w] = true
	}
	for _, p := range r.patterns {
		re, err := regexp.Compile(p)
		if err != nil {
			return nil, err
		}
		if prefix, _ := re.LiteralPrefix(); prefix == "" {
			return nil, fmt.Errorf("pattern %q has no literal prefix", p)
		}
		m.patterns = append(m.patterns, re)
	}
	return m, nil
}

// checkProbe requires the probe to be one line that the row flags and that
// every pattern of the row matches on its own.
func (m *matcher) checkProbe(probe string) error {
	text := []byte(probe)
	if probe == "" || strings.Contains(probe, "\n") {
		return fmt.Errorf("a probe is one non-empty line")
	}
	if len(m.hits(text, idents(text))) == 0 {
		return fmt.Errorf("the row does not flag its probe")
	}
	for _, re := range m.patterns {
		if !re.Match(text) {
			return fmt.Errorf("pattern %q does not match the probe", re)
		}
	}
	return nil
}

// hits returns the offsets in text of every match: a token in the word set,
// or a pattern's match. A pattern match spanning a newline panics: grep,
// whose rules these were, matches within a line.
func (m *matcher) hits(text []byte, ids [][2]int) []int {
	var at []int
	if len(m.words) > 0 {
		for _, id := range ids {
			if m.words[string(text[id[0]:id[1]])] {
				at = append(at, id[0])
			}
		}
	}
	for _, re := range m.patterns {
		for _, loc := range re.FindAllIndex(text, -1) {
			if bytes.IndexByte(text[loc[0]:loc[1]], '\n') >= 0 {
				panic(fmt.Sprintf("pattern %q matched across a line break", re))
			}
			at = append(at, loc[0])
		}
	}
	return at
}

// files lists the files a row covers, in a stable order.
func (r *deletedName) files() ([]string, error) {
	var skip *regexp.Regexp
	if r.skip != "" {
		var err error
		if skip, err = regexp.Compile(r.skip); err != nil {
			return nil, err
		}
	}
	var files []string
	for _, root := range r.roots {
		var found []string
		if strings.ContainsAny(root, "*?[") {
			matches, err := filepath.Glob(root)
			if err != nil {
				return nil, err
			}
			found = matches
		} else if info, err := os.Stat(root); err != nil {
			return nil, fmt.Errorf("root %s: %v; the row would check nothing", root, err)
		} else if !info.IsDir() {
			found = []string{root}
		} else {
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
					found = append(found, path)
				}
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		covered := 0
		for _, path := range found {
			path = filepath.ToSlash(path)
			if (!r.tests && strings.HasSuffix(path, "_test.go")) || (skip != nil && skip.MatchString(path)) {
				continue
			}
			if path == "deleted_names_test.go" {
				return nil, fmt.Errorf("root %s covers the table itself, whose probes it would flag", root)
			}
			files = append(files, path)
			covered++
		}
		if covered == 0 {
			return nil, fmt.Errorf("root %s covers no file; the row would check nothing", root)
		}
	}
	return files, nil
}

// source is a file's text and the offsets of its identifier tokens.
type source struct {
	text   []byte
	idents [][2]int
}

func readSource(path string) (*source, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &source{text: text, idents: idents(text)}, nil
}

// line returns the text of the 0-based line n.
func (s *source) line(n int) string {
	return strings.TrimSpace(strings.Split(string(s.text), "\n")[n])
}

// idents returns the [start, end) offsets of text's maximal runs of grep's
// word characters, [A-Za-z0-9_].
func idents(text []byte) [][2]int {
	var ids [][2]int
	start := -1
	for i, c := range text {
		word := c == '_' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
		if word && start < 0 {
			start = i
		} else if !word && start >= 0 {
			ids = append(ids, [2]int{start, i})
			start = -1
		}
	}
	if start >= 0 {
		ids = append(ids, [2]int{start, len(text)})
	}
	return ids
}
