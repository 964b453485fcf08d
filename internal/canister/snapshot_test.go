package canister_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/canister"
	"icbtc/internal/difftest"
	"icbtc/internal/experiments"
	"icbtc/internal/ic"
	"icbtc/internal/simnet"
)

// updateGolden regenerates the checked-in golden snapshot fixture. Run
//
//	go test ./internal/canister -run TestGoldenSnapshot -update-golden
//
// after an intentional format change (which must also bump
// canister.SnapshotVersion) and commit the new file.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden snapshot fixtures")

// buildSnapshotState assembles a deterministic canister state that touches
// every serialized component: multiple advanced anchors, deep stable
// buckets with spends (interned scripts with varying refcounts), an
// unstable suffix with per-block deltas, a header-only tree node, and a
// pending outbound transaction. The golden fixture is generated from
// exactly this state, so the construction must stay byte-reproducible; do
// not change it without bumping the snapshot version and regenerating.
func buildSnapshotState(t testing.TB) (*canister.BitcoinCanister, []string) {
	t.Helper()
	f, addrs := buildSnapshotFeeder(t)
	return f.Canister, addrs
}

// buildSnapshotFeeder is buildSnapshotState with the feeder still attached,
// for a caller that wants the chain to go on from the golden state.
func buildSnapshotFeeder(t testing.TB) (*experiments.Feeder, []string) {
	t.Helper()
	f := experiments.NewFeeder(btc.Regtest, 6, 21)
	addrs := make([]string, 4)
	scripts := make([][]byte, 4)
	for i := range addrs {
		var h [20]byte
		h[0] = byte(0x30 + i)
		a := btc.NewP2PKHAddress(h, btc.Regtest)
		addrs[i] = a.String()
		scripts[i] = btc.PayToAddrScript(a)
	}
	// Funding blocks (become stable), then churn with spends.
	for i := 0; i < 4; i++ {
		specs := []experiments.TxSpec{
			{Outputs: experiments.PayN(scripts[i%len(scripts)], 30, 546+int64(i))},
			{Inputs: 1, Outputs: experiments.PayN(scripts[(i+1)%len(scripts)], 2, 9_000)},
		}
		if _, err := f.FeedBlock(specs); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.FeedEmpty(7); err != nil {
		t.Fatal(err)
	}
	// Unstable suffix with cross-address spends, below δ so it stays
	// unstable (per-node deltas survive in the snapshot).
	for i := 0; i < 3; i++ {
		specs := []experiments.TxSpec{
			{Inputs: 2, Outputs: experiments.PayN(scripts[i%len(scripts)], 3, 1_200+int64(i))},
		}
		if _, err := f.FeedBlock(specs); err != nil {
			t.Fatal(err)
		}
	}
	// A pending outbound transaction (survives the upgrade in the real
	// canister's stable memory).
	raw := (&btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.DoubleSHA256([]byte("pending")), Vout: 1}}},
		Outputs: []btc.TxOut{{Value: 700, PkScript: scripts[0]}},
	}).Bytes()
	ctx := ic.NewCallContext(ic.KindUpdate, time.Unix(1_700_000_900, 0).UTC())
	if err := f.Canister.SendTransaction(ctx, canister.SendTransactionArgs{RawTx: raw}); err != nil {
		t.Fatal(err)
	}
	return f, addrs
}

// queryBytes serializes every read endpoint's answer for one address so two
// canisters can be compared byte for byte.
func queryBytes(t *testing.T, c *canister.BitcoinCanister, addr string) []byte {
	t.Helper()
	var buf bytes.Buffer
	now := time.Unix(1_700_001_000, 0).UTC()
	var token []byte
	for {
		res, err := c.GetUTXOs(ic.NewCallContext(ic.KindQuery, now), canister.GetUTXOsArgs{
			Address: addr, Limit: 7, Page: token,
		})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(difftest.EncodeUTXOsResult(res))
		if res.NextPage == nil {
			break
		}
		token = res.NextPage
	}
	for _, minConf := range []int64{0, 1, 3, 6} {
		bal, err := c.GetBalance(ic.NewCallContext(ic.KindQuery, now), canister.GetBalanceArgs{
			Address: addr, MinConfirmations: minConf,
		})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s|%d|%d;", addr, minConf, bal)
	}
	return buf.Bytes()
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	c, addrs := buildSnapshotState(t)
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := canister.RestoreSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}

	// encode→decode→encode must be byte-identical (determinism).
	again, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, again) {
		t.Fatalf("snapshot not byte-stable across restore: %d vs %d bytes", len(snap), len(again))
	}

	// State probes and every read endpoint must agree.
	if restored.TipHeight() != c.TipHeight() || restored.AnchorHeight() != c.AnchorHeight() ||
		restored.StableUTXOCount() != c.StableUTXOCount() ||
		restored.UnstableBlockCount() != c.UnstableBlockCount() ||
		restored.IngestedBlocks() != c.IngestedBlocks() ||
		restored.Synced() != c.Synced() ||
		restored.AvailableHeight() != c.AvailableHeight() ||
		restored.PendingTransactions() != c.PendingTransactions() ||
		restored.StableStorageBytes() != c.StableStorageBytes() {
		t.Fatal("restored canister state probes diverged")
	}
	for _, addr := range addrs {
		if !bytes.Equal(queryBytes(t, c, addr), queryBytes(t, restored, addr)) {
			t.Fatalf("responses for %s diverged after restore", addr)
		}
	}

	// The adapter request (anchor, Have set, pending txs) must match too —
	// a restored replica resumes syncing from exactly where it stopped.
	reqA, reqB := c.CurrentRequest(), restored.CurrentRequest()
	if reqA.Anchor != reqB.Anchor || reqA.AnchorHeight != reqB.AnchorHeight ||
		len(reqA.Have) != len(reqB.Have) || len(reqA.Txs) != len(reqB.Txs) {
		t.Fatal("restored CurrentRequest diverged")
	}
	for i := range reqA.Have {
		if reqA.Have[i] != reqB.Have[i] {
			t.Fatalf("Have[%d] diverged", i)
		}
	}
	for i := range reqA.Txs {
		if !bytes.Equal(reqA.Txs[i], reqB.Txs[i]) {
			t.Fatalf("pending tx %d diverged", i)
		}
	}
}

// TestSnapshotRestoreContinuesIngestion: a restored canister must keep
// processing payloads identically — including advancing the anchor over
// blocks it only knew as unstable state in the snapshot.
func TestSnapshotRestoreContinuesIngestion(t *testing.T) {
	f := experiments.NewFeeder(btc.Regtest, 6, 33)
	script := btc.PayToAddrScript(btc.NewP2PKHAddress([20]byte{0x77}, btc.Regtest))
	for i := 0; i < 5; i++ {
		if _, err := f.FeedBlock([]experiments.TxSpec{{Outputs: experiments.PayN(script, 10, 800)}}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := f.Canister.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := canister.RestoreSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Feed the same continuation to both.
	now := time.Unix(1_700_002_000, 0).UTC()
	for i := 0; i < 10; i++ {
		blk, err := f.Builder.NextBlock([]experiments.TxSpec{{Inputs: 1, Outputs: experiments.PayN(script, 4, 900)}})
		if err != nil {
			t.Fatal(err)
		}
		payload := adapter.Response{Blocks: []adapter.BlockWithHeader{{Block: blk, Header: blk.Header}}}
		now = now.Add(time.Second)
		if err := f.Canister.ProcessPayload(ic.NewCallContext(ic.KindUpdate, now), payload); err != nil {
			t.Fatal(err)
		}
		if err := restored.ProcessPayload(ic.NewCallContext(ic.KindUpdate, now), payload); err != nil {
			t.Fatal(err)
		}
	}
	snapA, err := f.Canister.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapA, snapB) {
		t.Fatal("original and restored canisters diverged after further ingestion")
	}
	if restored.AnchorHeight() <= 5-6 {
		t.Fatalf("anchor never advanced after restore: %d", restored.AnchorHeight())
	}
}

// TestSubnetUpgradeRound reinstalls the Bitcoin canister from its own
// snapshot in the middle of a consensus-driven run — the paper's canister-
// upgrade scenario: stable memory carries U and T across the swap, and the
// upgraded canister finishes the chain exactly like an uninterrupted one.
func TestSubnetUpgradeRound(t *testing.T) {
	params := btc.RegtestParams()
	builder := experiments.NewBlockBuilder(params, 5)
	script := btc.PayToAddrScript(btc.NewP2PKHAddress([20]byte{0x66}, btc.Regtest))
	var blocks []*btc.Block
	for i := 0; i < 24; i++ {
		blk, err := builder.NextBlock([]experiments.TxSpec{
			{Outputs: experiments.PayN(script, 5, 546)},
			{Inputs: 1, Outputs: experiments.PayN(script, 1, 2_000)},
		})
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, blk)
	}

	sched := simnet.NewScheduler(3)
	cfg := ic.DefaultConfig()
	cfg.DisableThresholdKeys = true
	cfg.DegradedRoundProb = 0
	sub, err := ic.NewSubnet(sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub.InstallCanister("bitcoin", canister.New(canister.DefaultConfig(btc.Regtest)))
	// One block per round, shared queue: only the round's block maker calls
	// its builder, so the queue drains in consensus order on every replica.
	queue := blocks
	for _, r := range sub.Replicas() {
		r.SetPayloadBuilder("bitcoin", ic.PayloadBuilderFunc(func() any {
			if len(queue) == 0 {
				return nil
			}
			b := queue[0]
			queue = queue[1:]
			return adapter.Response{Blocks: []adapter.BlockWithHeader{{Block: b, Header: b.Header}}}
		}))
	}
	sub.Start()
	sched.RunFor(12 * time.Second) // roughly half the chain

	mid := sub.Canister("bitcoin").(*canister.BitcoinCanister)
	if mid.IngestedBlocks() == 0 || mid.IngestedBlocks() >= len(blocks) {
		t.Fatalf("upgrade point not mid-run: %d of %d blocks ingested", mid.IngestedBlocks(), len(blocks))
	}
	if err := sub.UpgradeCanister("bitcoin", func(snapshot []byte) (ic.Canister, error) {
		return canister.RestoreSnapshot(snapshot)
	}); err != nil {
		t.Fatal(err)
	}
	if sub.Canister("bitcoin") == ic.Canister(mid) {
		t.Fatal("upgrade did not replace the canister instance")
	}

	for i := 0; len(queue) > 0 && i < 120; i++ {
		sched.RunFor(time.Second)
	}
	sched.RunFor(5 * time.Second) // let the last finalization land
	upgraded := sub.Canister("bitcoin").(*canister.BitcoinCanister)
	if upgraded.IngestedBlocks() != len(blocks) {
		t.Fatalf("upgraded canister ingested %d of %d blocks", upgraded.IngestedBlocks(), len(blocks))
	}

	// Control: the same blocks processed by one canister that never
	// restarted, one payload per block — the final stable state must be
	// byte-identical.
	control := canister.New(canister.DefaultConfig(btc.Regtest))
	now := time.Unix(1_700_000_000, 0).UTC()
	for _, b := range blocks {
		now = now.Add(time.Second)
		payload := adapter.Response{Blocks: []adapter.BlockWithHeader{{Block: b, Header: b.Header}}}
		if err := control.ProcessPayload(ic.NewCallContext(ic.KindUpdate, now), payload); err != nil {
			t.Fatal(err)
		}
	}
	snapA, err := upgraded.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := control.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapA, snapB) {
		t.Fatal("upgraded canister state diverged from the uninterrupted control")
	}
}

func TestRestoreRejectsCorruptedSnapshot(t *testing.T) {
	c, _ := buildSnapshotState(t)
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), snap...)
	bad[len(bad)/2] ^= 0x01
	if _, err := canister.RestoreSnapshot(bad); err == nil {
		t.Fatal("restore accepted a corrupted snapshot")
	}
	if _, err := canister.RestoreSnapshot(snap[:len(snap)/2]); err == nil {
		t.Fatal("restore accepted a truncated snapshot")
	}
	if _, err := canister.RestoreSnapshot([]byte("not a snapshot")); err == nil {
		t.Fatal("restore accepted garbage")
	}
	// The reserved config byte is covered by the checksum like any other, so
	// only the decoder's own check stands between a resealed nonzero value
	// and a restore whose re-snapshot would differ from its input.
	if _, err := canister.RestoreSnapshot(resealed(snap, reservedOffset, 1)); err == nil {
		t.Fatal("restore accepted a snapshot whose reserved byte is set")
	}
	if _, err := canister.RestoreSnapshot(resealed(snap, reservedOffset, 0)); err != nil {
		t.Fatalf("resealing an unchanged snapshot broke it: %v", err)
	}
}

// TestRestoreRejectsRebroadcastWindow pins the rebroadcast window's slot in
// the config section: the golden fixture stores 5 there, and a resealed,
// checksum-valid snapshot storing any other value is refused — it was once a
// setting, and a restore that accepted it would re-snapshot different bytes.
func TestRestoreRejectsRebroadcastWindow(t *testing.T) {
	golden := goldenSnapshotBytes(t)
	if got := int64(binary.LittleEndian.Uint64(golden[rebroadcastOffset:])); got != 5 {
		t.Fatalf("golden fixture stores a rebroadcast window of %d rounds, want 5", got)
	}
	var window [8]byte
	for _, rounds := range []int64{0, 4, 6, -5} {
		binary.LittleEndian.PutUint64(window[:], uint64(rounds))
		if _, err := canister.RestoreSnapshot(resealed(golden, rebroadcastOffset, window[:]...)); err == nil {
			t.Fatalf("restore accepted a snapshot with a rebroadcast window of %d rounds", rounds)
		}
	}
	binary.LittleEndian.PutUint64(window[:], 5)
	if _, err := canister.RestoreSnapshot(resealed(golden, rebroadcastOffset, window[:]...)); err != nil {
		t.Fatalf("resealing the golden fixture unchanged broke it: %v", err)
	}
}

// Offsets in a snapshot's config section: after magic, version, the network
// byte and three int64 parameters come the rebroadcast window (int64) and
// the reserved byte.
const (
	rebroadcastOffset = len("icbtc/canister-snapshot\n") + 2 + 1 + 3*8 // 0x33
	reservedOffset    = rebroadcastOffset + 8
)

// resealed returns a copy of a snapshot with patch written at offset and the
// CRC-32C trailer recomputed, so the result is checksum-valid.
func resealed(snap []byte, offset int, patch ...byte) []byte {
	out := append([]byte(nil), snap...)
	copy(out[offset:], patch)
	body := out[:len(out)-4]
	binary.LittleEndian.PutUint32(out[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return out
}

// TestGoldenSnapshotCompatibility is the CI compatibility gate: the
// checked-in fixture must (a) still decode, (b) re-encode byte-identically
// (decode/encode determinism against historic bytes), and (c) match what
// the current encoder produces for the same seeded state — so any codec
// change is forced through an explicit SnapshotVersion bump plus fixture
// regeneration (-update-golden) instead of silently orphaning deployed
// snapshots.
func TestGoldenSnapshotCompatibility(t *testing.T) {
	c, _ := buildSnapshotState(t)
	current, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_snapshot_v1.bin")
	if *updateGolden {
		if err := os.WriteFile(path, current, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(current))
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with -update-golden after a version bump): %v", err)
	}
	if !bytes.Equal(golden, current) {
		t.Fatalf("current encoder no longer reproduces the v%d golden fixture (%d vs %d bytes); "+
			"if the format change is intentional, bump canister.SnapshotVersion and regenerate with -update-golden",
			canister.SnapshotVersion, len(golden), len(current))
	}
	restored, err := canister.RestoreSnapshot(golden)
	if err != nil {
		t.Fatalf("current decoder cannot read the v%d golden fixture: %v", canister.SnapshotVersion, err)
	}
	again, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, again) {
		t.Fatal("re-encoding the restored golden state changed bytes (non-determinism)")
	}
}

// TestSnapshotRestoreAllocations pins the restore hot path at the canister
// level: O(bytes) work, a small constant number of allocations per stable
// UTXO — no ScriptID re-derivation, no bucket re-sorting, no header
// re-validation.
func TestSnapshotRestoreAllocations(t *testing.T) {
	f := experiments.NewFeeder(btc.Regtest, 6, 13)
	script := btc.PayToAddrScript(btc.NewP2PKHAddress([20]byte{0x55}, btc.Regtest))
	if _, err := f.FeedBlock([]experiments.TxSpec{{Outputs: experiments.PayN(script, 2000, 546)}}); err != nil {
		t.Fatal(err)
	}
	if err := f.FeedEmpty(8); err != nil {
		t.Fatal(err)
	}
	snap, err := f.Canister.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	n := f.Canister.StableUTXOCount()
	avg := testing.AllocsPerRun(10, func() {
		if _, err := canister.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
	})
	if perUTXO := avg / float64(n); perUTXO > 4 {
		t.Fatalf("restore allocates %.2f per stable UTXO (%.0f total for %d), budget is 4", perUTXO, avg, n)
	}
}
