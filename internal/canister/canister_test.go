package canister

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/btcnode"
	"icbtc/internal/ic"
	"icbtc/internal/secp256k1"
	"icbtc/internal/simnet"
)

// rig drives a BitcoinCanister directly with payloads built from a local
// simulated Bitcoin node — no IC subnet, pure Algorithm 2 unit testing.
type rig struct {
	t      *testing.T
	sched  *simnet.Scheduler
	net    *simnet.Network
	params *btc.Params
	node   *btcnode.Node
	miner  *btcnode.Miner
	key    *secp256k1.PrivateKey
	can    *BitcoinCanister
}

func newRig(t *testing.T, seed int64) *rig {
	t.Helper()
	sched := simnet.NewScheduler(seed)
	net := simnet.NewNetwork(sched)
	params := btc.RegtestParams()
	node := btcnode.NewNode("btc/0", net, params)
	key, err := secp256k1.GeneratePrivateKey(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return &rig{
		t:      t,
		sched:  sched,
		net:    net,
		params: params,
		node:   node,
		miner:  btcnode.NewMinerWithKey(node, key),
		key:    key,
		can:    New(DefaultConfig(btc.Regtest)),
	}
}

func (r *rig) ctx() *ic.CallContext {
	return &ic.CallContext{
		Meter: ic.NewMeter(),
		Time:  r.sched.Now(),
		Kind:  ic.KindUpdate,
	}
}

// feedChain delivers the node's current chain to the canister as a series
// of single-block payloads (the near-tip adapter behavior), with headers of
// everything above as N.
func (r *rig) feedChain() {
	for {
		req := r.can.CurrentRequest()
		resp := r.buildResponse(req)
		if len(resp.Blocks) == 0 && len(resp.Next) == 0 {
			return
		}
		if err := r.can.ProcessPayload(r.ctx(), resp); err != nil {
			r.t.Fatalf("process payload: %v", err)
		}
		if len(resp.Blocks) == 0 {
			// Only headers were delivered; blocks all synced already.
			return
		}
	}
}

// buildResponse plays honest adapter: serve the next missing block on the
// node's best chain (one at a time) plus all upcoming headers.
func (r *rig) buildResponse(req adapter.Request) adapter.Response {
	have := map[btc.Hash]bool{req.Anchor.BlockHash(): true}
	for _, h := range req.Have {
		have[h] = true
	}
	var resp adapter.Response
	for _, n := range r.node.Tree().CurrentChain() {
		if n.Height <= req.AnchorHeight || have[n.Hash] {
			continue
		}
		if len(resp.Blocks) == 0 && (have[n.Header.PrevBlock] || n.Header.PrevBlock == req.Anchor.BlockHash()) {
			blk, ok := r.node.GetBlock(n.Hash)
			if !ok {
				r.t.Fatalf("node missing block %s", n.Hash)
			}
			resp.Blocks = append(resp.Blocks, adapter.BlockWithHeader{Block: blk, Header: n.Header})
			continue
		}
		resp.Next = append(resp.Next, n.Header)
	}
	return resp
}

func (r *rig) minerAddr() btc.Address {
	return btc.AddressFromPubKey(r.key.PubKey().SerializeCompressed(), r.params.Network)
}

func TestAnchorAdvancesAtDelta(t *testing.T) {
	r := newRig(t, 1)
	// δ = 6 (regtest default). Mining 10 blocks: blocks at depth ≥ 6 from
	// the tip become stable, leaving the anchor at height 10-6+1 = 5.
	if _, err := r.miner.MineChain(10, 0); err != nil {
		t.Fatal(err)
	}
	r.feedChain()
	if got := r.can.AnchorHeight(); got != 5 {
		t.Fatalf("anchor height %d, want 5", got)
	}
	// U must contain exactly the coinbases of blocks 1..5.
	if got := r.can.StableUTXOCount(); got != 5 {
		t.Fatalf("stable UTXOs %d, want 5", got)
	}
	// Blocks above the anchor are stored, not folded.
	if got := r.can.UnstableBlockCount(); got != 5 {
		t.Fatalf("unstable blocks %d, want 5", got)
	}
	if !r.can.Synced() {
		t.Fatal("canister not synced after full feed")
	}
	if r.can.TipHeight() != 10 {
		t.Fatalf("tip %d", r.can.TipHeight())
	}
}

// TestSyncedFlagTau pins Algorithm 2's τ rule: a canister that has five
// blocks and has heard of lag more as headers answers iff lag ≤ τ.
func TestSyncedFlagTau(t *testing.T) {
	addr, _ := testAddr(0x7A)
	for _, tau := range []int64{0, 1, 2, 4, 8} {
		for _, lag := range []int64{0, 1, 2, 3, 6, 9} {
			f := newForgeRig(t)
			cfg := DefaultConfig(btc.Regtest)
			cfg.SyncSlack = tau
			f.can = New(cfg)
			for i := 0; i < 5; i++ {
				f.extend()
			}
			var headers []btc.BlockHeader
			for tip := f.tip; int64(len(headers)) < lag; {
				b := f.mine(tip, rigPayout)
				tip = b.BlockHash()
				headers = append(headers, b.Header)
			}
			if err := f.can.ProcessPayload(f.ctx(ic.KindUpdate), adapter.Response{Next: headers}); err != nil {
				t.Fatal(err)
			}
			_, err := f.can.GetBalance(f.ctx(ic.KindQuery), GetBalanceArgs{Address: addr})
			if lag <= tau && err != nil {
				t.Fatalf("τ=%d lag=%d: refused: %v", tau, lag, err)
			}
			if lag > tau && !errors.Is(err, ErrNotSynced) {
				t.Fatalf("τ=%d lag=%d: want ErrNotSynced, got %v", tau, lag, err)
			}
		}
	}

	// Blocks arrive, synced returns.
	r := newRig(t, 2)
	if _, err := r.miner.MineChain(6, 0); err != nil {
		t.Fatal(err)
	}
	// Deliver only headers (no blocks): canister learns of 6 upcoming
	// blocks but has none → lag 6 > τ=2 → not synced.
	var headers []btc.BlockHeader
	for _, n := range r.node.Tree().CurrentChain()[1:] {
		headers = append(headers, n.Header)
	}
	if err := r.can.ProcessPayload(r.ctx(), adapter.Response{Next: headers}); err != nil {
		t.Fatal(err)
	}
	if r.can.Synced() {
		t.Fatal("synced despite 6-block lag")
	}
	// get_utxos / get_balance must refuse.
	_, err := r.can.GetBalance(r.ctx(), GetBalanceArgs{Address: r.minerAddr().String()})
	if !errors.Is(err, ErrNotSynced) {
		t.Fatalf("want ErrNotSynced, got %v", err)
	}
	// Deliver blocks; synced returns.
	r.feedChain()
	if !r.can.Synced() {
		t.Fatal("not synced after blocks delivered")
	}
	if _, err := r.can.GetBalance(r.ctx(), GetBalanceArgs{Address: r.minerAddr().String()}); err != nil {
		t.Fatalf("balance after sync: %v", err)
	}
}

func TestGetBalanceAndUTXOs(t *testing.T) {
	r := newRig(t, 3)
	if _, err := r.miner.MineChain(8, 0); err != nil {
		t.Fatal(err)
	}
	r.feedChain()
	addr := r.minerAddr().String()

	bal, err := r.can.GetBalance(r.ctx(), GetBalanceArgs{Address: addr})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(8) * r.params.BlockSubsidy; bal != want {
		t.Fatalf("balance %d, want %d", bal, want)
	}

	res, err := r.can.GetUTXOs(r.ctx(), GetUTXOsArgs{Address: addr})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UTXOs) != 8 {
		t.Fatalf("utxos %d, want 8", len(res.UTXOs))
	}
	// Height-descending order.
	for i := 1; i < len(res.UTXOs); i++ {
		if res.UTXOs[i].Height > res.UTXOs[i-1].Height {
			t.Fatal("not height-descending")
		}
	}
	if res.TipHeight != 8 {
		t.Fatalf("tip height %d", res.TipHeight)
	}
	// Anchor at height 3 (the deepest block with d_c ≥ δ=6 given an 8-block
	// chain): 3 stable coinbases + 5 unstable.
	if res.StableCount != 3 || res.UnstableCount != 5 {
		t.Fatalf("stable=%d unstable=%d", res.StableCount, res.UnstableCount)
	}
	// Unknown address: zero balance, no UTXOs.
	bal, err = r.can.GetBalance(r.ctx(), GetBalanceArgs{Address: "unknown"})
	if err != nil || bal != 0 {
		t.Fatalf("unknown address: %d %v", bal, err)
	}
}

func TestMinConfirmationsFilter(t *testing.T) {
	r := newRig(t, 4)
	if _, err := r.miner.MineChain(8, 0); err != nil {
		t.Fatal(err)
	}
	r.feedChain()
	addr := r.minerAddr().String()

	// The tip block's coinbase has 1 confirmation. With c=1 all 8 UTXOs are
	// visible; with c=4 only blocks 1..5 qualify (depth ≥ 4).
	res, err := r.can.GetUTXOs(r.ctx(), GetUTXOsArgs{Address: addr, MinConfirmations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UTXOs) != 8 {
		t.Fatalf("c=1: %d UTXOs", len(res.UTXOs))
	}
	res, err = r.can.GetUTXOs(r.ctx(), GetUTXOsArgs{Address: addr, MinConfirmations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UTXOs) != 5 {
		t.Fatalf("c=4: %d UTXOs, want 5", len(res.UTXOs))
	}
	if res.TipHeight != 5 {
		t.Fatalf("c=4 tip height %d, want 5", res.TipHeight)
	}
	// c > δ must be rejected.
	if _, err := r.can.GetUTXOs(r.ctx(), GetUTXOsArgs{Address: addr, MinConfirmations: 7}); !errors.Is(err, ErrTooManyConfirmations) {
		t.Fatalf("c>δ: %v", err)
	}
}

func TestSpendVisibleInUnstableBlocks(t *testing.T) {
	r := newRig(t, 5)
	if _, err := r.miner.MineChain(3, 0); err != nil {
		t.Fatal(err)
	}
	// Spend block 1's coinbase to a fresh address inside block 4.
	addr := r.minerAddr()
	utxos := r.node.UTXOView().UTXOsForAddress(addr.String())
	destKey, _ := secp256k1.GeneratePrivateKey(rand.New(rand.NewSource(55)))
	dest := btc.AddressFromPubKey(destKey.PubKey().SerializeCompressed(), r.params.Network)
	tx := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: utxos[len(utxos)-1].OutPoint, Sequence: 0xffffffff}},
		Outputs: []btc.TxOut{{Value: utxos[len(utxos)-1].Value - 100, PkScript: btc.PayToAddrScript(dest)}},
	}
	if err := btc.SignInput(tx, 0, utxos[len(utxos)-1].PkScript, r.key); err != nil {
		t.Fatal(err)
	}
	if !r.node.AcceptTx(tx) {
		t.Fatal("tx rejected by node")
	}
	if _, err := r.miner.Mine(0); err != nil {
		t.Fatal(err)
	}
	r.feedChain()

	// Destination sees the unstable output.
	bal, err := r.can.GetBalance(r.ctx(), GetBalanceArgs{Address: dest.String()})
	if err != nil {
		t.Fatal(err)
	}
	if want := utxos[len(utxos)-1].Value - 100; bal != want {
		t.Fatalf("dest balance %d, want %d", bal, want)
	}
	// The spent coinbase is no longer in the miner's balance.
	minerBal, err := r.can.GetBalance(r.ctx(), GetBalanceArgs{Address: addr.String()})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(4) * r.params.BlockSubsidy; minerBal != want-100-(r.params.BlockSubsidy-utxos[len(utxos)-1].Value)-utxos[len(utxos)-1].Value+r.params.BlockSubsidy-r.params.BlockSubsidy {
		// Simplify: 4 coinbases mined, one spent away: 3 coinbases remain.
		if minerBal != 3*r.params.BlockSubsidy {
			t.Fatalf("miner balance %d", minerBal)
		}
	}
}

func TestForkResolutionAboveAnchor(t *testing.T) {
	r := newRig(t, 6)
	if _, err := r.miner.MineChain(3, 0); err != nil {
		t.Fatal(err)
	}
	r.feedChain()

	// Build a competing branch from height 2 that becomes heavier.
	fork := btcnode.NewNode("btc/fork", r.net, r.params)
	for _, n := range r.node.Tree().CurrentChain()[1:3] {
		blk, _ := r.node.GetBlock(n.Hash)
		if _, err := fork.AcceptBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	forkKey, _ := secp256k1.GeneratePrivateKey(rand.New(rand.NewSource(66)))
	sideMiner := btcnode.NewMinerWithKey(fork, forkKey)
	if _, err := sideMiner.MineChain(3, 0); err != nil { // fork is height 5 > 3
		t.Fatal(err)
	}

	// Feed the fork to the canister: headers first, then blocks one by one.
	var forkNodes []adapter.BlockWithHeader
	for _, n := range fork.Tree().CurrentChain()[3:] {
		blk, _ := fork.GetBlock(n.Hash)
		forkNodes = append(forkNodes, adapter.BlockWithHeader{Block: blk, Header: n.Header})
	}
	for _, bw := range forkNodes {
		if err := r.can.ProcessPayload(r.ctx(), adapter.Response{Blocks: []adapter.BlockWithHeader{bw}}); err != nil {
			t.Fatal(err)
		}
	}
	// The canister's current chain must now follow the heavier fork.
	if r.can.TipHeight() != 5 {
		t.Fatalf("tip height %d, want 5", r.can.TipHeight())
	}
	forkAddr := btc.AddressFromPubKey(forkKey.PubKey().SerializeCompressed(), r.params.Network)
	bal, err := r.can.GetBalance(r.ctx(), GetBalanceArgs{Address: forkAddr.String()})
	if err != nil {
		t.Fatal(err)
	}
	if bal != 3*r.params.BlockSubsidy {
		t.Fatalf("fork miner balance %d", bal)
	}
	// The displaced tip block's coinbase (height 3, old branch) must be
	// excluded from the current chain view.
	oldAddr := r.minerAddr()
	oldBal, err := r.can.GetBalance(r.ctx(), GetBalanceArgs{Address: oldAddr.String()})
	if err != nil {
		t.Fatal(err)
	}
	if oldBal != 2*r.params.BlockSubsidy {
		t.Fatalf("old miner balance %d, want 2 subsidies (heights 1,2)", oldBal)
	}
}

func TestAnchorAdvancePrunesCompetingBranch(t *testing.T) {
	r := newRig(t, 7)
	// Two blocks at height 1: one on the eventually-stable chain, one fork.
	if _, err := r.miner.MineChain(1, 0); err != nil {
		t.Fatal(err)
	}
	fork := btcnode.NewNode("btc/fork", r.net, r.params)
	forkKey, _ := secp256k1.GeneratePrivateKey(rand.New(rand.NewSource(77)))
	sideMiner := btcnode.NewMinerWithKey(fork, forkKey)
	forkBlocks, err := sideMiner.MineChain(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Deliver both height-1 blocks.
	r.feedChain()
	if err := r.can.ProcessPayload(r.ctx(), adapter.Response{Blocks: []adapter.BlockWithHeader{
		{Block: forkBlocks[0], Header: forkBlocks[0].Header},
	}}); err != nil {
		t.Fatal(err)
	}
	if got := len(r.can.tree.AtHeight(1)); got != 2 {
		t.Fatalf("height 1 has %d headers", got)
	}
	// Extend the main chain until height 1 stabilizes (δ=6 plus dominance
	// over the fork block: need depth gap ≥ 6, so 7 more blocks).
	if _, err := r.miner.MineChain(7, 0); err != nil {
		t.Fatal(err)
	}
	r.feedChain()
	if r.can.AnchorHeight() < 1 {
		t.Fatalf("anchor did not advance: %d", r.can.AnchorHeight())
	}
	// The fork block must be pruned.
	if r.can.tree.Contains(forkBlocks[0].BlockHash()) {
		t.Fatal("competing branch survived anchor advance")
	}
	forkAddr := btc.AddressFromPubKey(forkKey.PubKey().SerializeCompressed(), r.params.Network)
	bal, err := r.can.GetBalance(r.ctx(), GetBalanceArgs{Address: forkAddr.String()})
	if err != nil {
		t.Fatal(err)
	}
	if bal != 0 {
		t.Fatalf("pruned fork coinbase still visible: %d", bal)
	}
}

func TestPaginationAcrossStableAndUnstable(t *testing.T) {
	r := newRig(t, 8)
	if _, err := r.miner.MineChain(12, 0); err != nil {
		t.Fatal(err)
	}
	r.feedChain()
	addr := r.minerAddr().String()

	var all []btc.OutPoint
	var token []byte
	for {
		res, err := r.can.GetUTXOs(r.ctx(), GetUTXOsArgs{Address: addr, Page: token, Limit: 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range res.UTXOs {
			all = append(all, u.OutPoint)
		}
		if res.NextPage == nil {
			break
		}
		token = res.NextPage
	}
	if len(all) != 12 {
		t.Fatalf("paginated %d UTXOs, want 12", len(all))
	}
	seen := map[btc.OutPoint]bool{}
	for _, op := range all {
		if seen[op] {
			t.Fatal("duplicate across pages")
		}
		seen[op] = true
	}
}

func TestSendTransactionQueue(t *testing.T) {
	r := newRig(t, 9)
	if _, err := r.miner.MineChain(1, 0); err != nil {
		t.Fatal(err)
	}
	addr := r.minerAddr()
	utxos := r.node.UTXOView().UTXOsForAddress(addr.String())
	tx := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: utxos[0].OutPoint, Sequence: 0xffffffff}},
		Outputs: []btc.TxOut{{Value: utxos[0].Value - 50, PkScript: utxos[0].PkScript}},
	}
	if err := btc.SignInput(tx, 0, utxos[0].PkScript, r.key); err != nil {
		t.Fatal(err)
	}

	if err := r.can.SendTransaction(r.ctx(), SendTransactionArgs{RawTx: tx.Bytes()}); err != nil {
		t.Fatal(err)
	}
	if r.can.PendingTransactions() != 1 {
		t.Fatal("tx not queued")
	}
	// Duplicate submission is idempotent.
	if err := r.can.SendTransaction(r.ctx(), SendTransactionArgs{RawTx: tx.Bytes()}); err != nil {
		t.Fatal(err)
	}
	if r.can.PendingTransactions() != 1 {
		t.Fatal("duplicate queued")
	}
	// The tx rides along in CurrentRequest.
	req := r.can.CurrentRequest()
	if len(req.Txs) != 1 {
		t.Fatalf("request carries %d txs", len(req.Txs))
	}
	// After txRebroadcastRounds payloads it ages out.
	for i := 0; i < txRebroadcastRounds; i++ {
		if err := r.can.ProcessPayload(r.ctx(), adapter.Response{}); err != nil {
			t.Fatal(err)
		}
	}
	if r.can.PendingTransactions() != 0 {
		t.Fatalf("tx did not age out: %d", r.can.PendingTransactions())
	}

	// Malformed and insane transactions are rejected.
	if err := r.can.SendTransaction(r.ctx(), SendTransactionArgs{RawTx: []byte{1, 2, 3}}); err == nil {
		t.Fatal("malformed tx accepted")
	}
	noOut := &btc.Transaction{Inputs: tx.Inputs}
	if err := r.can.SendTransaction(r.ctx(), SendTransactionArgs{RawTx: noOut.Bytes()}); err == nil {
		t.Fatal("tx without outputs accepted")
	}
}

func TestRejectsWrongNetwork(t *testing.T) {
	r := newRig(t, 10)
	if _, err := r.can.GetBalance(r.ctx(), GetBalanceArgs{Address: "x", Network: btc.Mainnet}); err == nil {
		t.Fatal("wrong network accepted")
	}
	if err := r.can.SendTransaction(r.ctx(), SendTransactionArgs{RawTx: []byte{1}, Network: btc.Mainnet}); err == nil {
		t.Fatal("wrong network tx accepted")
	}
}

func TestRejectsInvalidBlocks(t *testing.T) {
	r := newRig(t, 11)
	if _, err := r.miner.MineChain(2, 0); err != nil {
		t.Fatal(err)
	}
	chainNodes := r.node.Tree().CurrentChain()
	blk1, _ := r.node.GetBlock(chainNodes[1].Hash)
	blk2, _ := r.node.GetBlock(chainNodes[2].Hash)

	// Block 2 without block 1: predecessor block unavailable.
	if err := r.can.ProcessPayload(r.ctx(), adapter.Response{Blocks: []adapter.BlockWithHeader{
		{Block: blk2, Header: blk2.Header},
	}}); err != nil {
		t.Fatal(err)
	}
	if r.can.IngestedBlocks() != 0 {
		t.Fatal("out-of-order block accepted")
	}

	// Tampered merkle root: re-assemble rather than copy the sealed block,
	// so the tampered instance carries fresh (unpoisoned) memos.
	bad := &btc.Block{Header: blk1.Header, Transactions: blk1.Transactions}
	bad.Header.MerkleRoot = btc.DoubleSHA256([]byte("wrong"))
	if err := r.can.ProcessPayload(r.ctx(), adapter.Response{Blocks: []adapter.BlockWithHeader{
		{Block: bad, Header: bad.Header},
	}}); err != nil {
		t.Fatal(err)
	}
	if r.can.IngestedBlocks() != 0 {
		t.Fatal("tampered block accepted")
	}

	// Header/block mismatch.
	if err := r.can.ProcessPayload(r.ctx(), adapter.Response{Blocks: []adapter.BlockWithHeader{
		{Block: blk1, Header: blk2.Header},
	}}); err != nil {
		t.Fatal(err)
	}
	if r.can.IngestedBlocks() != 0 {
		t.Fatal("mismatched block accepted")
	}

	// The genuine article goes through.
	if err := r.can.ProcessPayload(r.ctx(), adapter.Response{Blocks: []adapter.BlockWithHeader{
		{Block: blk1, Header: blk1.Header},
	}}); err != nil {
		t.Fatal(err)
	}
	if r.can.IngestedBlocks() != 1 {
		t.Fatal("valid block rejected")
	}
}

func TestIngestionMeterCategories(t *testing.T) {
	r := newRig(t, 12)
	// Mine blocks with spends so both inserts and removals occur.
	if _, err := r.miner.MineChain(10, 0); err != nil {
		t.Fatal(err)
	}
	ctx := r.ctx()
	// Feed everything through one context to accumulate the meter.
	for {
		req := r.can.CurrentRequest()
		resp := r.buildResponse(req)
		if len(resp.Blocks) == 0 && len(resp.Next) == 0 {
			break
		}
		if err := r.can.ProcessPayload(ctx, resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Blocks) == 0 {
			break
		}
	}
	if ctx.Meter.Category("insert_outputs") == 0 {
		t.Fatal("no insert_outputs charged")
	}
	if ctx.Meter.Category("block_overhead") == 0 {
		t.Fatal("no block overhead charged")
	}
	if ctx.Meter.Total() == 0 {
		t.Fatal("meter empty")
	}
}

func TestUpdateQueryDispatch(t *testing.T) {
	r := newRig(t, 13)
	if _, err := r.miner.MineChain(8, 0); err != nil {
		t.Fatal(err)
	}
	r.feedChain()
	addr := r.minerAddr().String()

	// Update dispatch.
	v, err := r.can.Update(r.ctx(), "get_balance", GetBalanceArgs{Address: addr})
	if err != nil {
		t.Fatal(err)
	}
	if v.(int64) != 8*r.params.BlockSubsidy {
		t.Fatalf("balance %v", v)
	}
	// Query dispatch (same endpoints).
	if _, err := r.can.Query(r.ctx(), "get_utxos", GetUTXOsArgs{Address: addr}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.can.Query(r.ctx(), "get_tip", nil); err != nil {
		t.Fatal(err)
	}
	// Bad argument types and unknown methods error.
	if _, err := r.can.Update(r.ctx(), "get_balance", 42); err == nil {
		t.Fatal("bad arg type accepted")
	}
	if _, err := r.can.Update(r.ctx(), "nope", nil); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, err := r.can.Query(r.ctx(), "send_transaction", SendTransactionArgs{}); err == nil {
		t.Fatal("send_transaction allowed as query")
	}
}

func TestLemmaIV2ForkWithFewerConfirmations(t *testing.T) {
	// Lemma IV.2: a corrupting transaction on an attacker fork whose chain
	// is shorter than the real chain never reaches c* confirmations, and a
	// lighter fork is never the current chain.
	r := newRig(t, 14)
	if _, err := r.miner.MineChain(6, 0); err != nil {
		t.Fatal(err)
	}
	r.feedChain()

	// Attacker builds a 4-block fork from height 2 with a corrupting tx.
	adv := btcnode.NewAdversary("btcadv/0", r.net, r.params)
	for _, n := range r.node.Tree().CurrentChain()[1:3] {
		blk, _ := r.node.GetBlock(n.Hash)
		if _, err := adv.Node.AcceptBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	loot := btc.PayToPubKeyHashScript([20]byte{0xBA, 0xD0})
	corrupt := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.DoubleSHA256([]byte("stolen"))}}},
		Outputs: []btc.TxOut{{Value: 1000, PkScript: loot}},
	}
	base := adv.Node.Tree().CurrentChain()[2].Hash
	if err := adv.MinePrivateFork(base, 4, []*btc.Transaction{corrupt}); err != nil {
		t.Fatal(err)
	}
	// Feed the whole fork to the canister (attacker "has the means to send
	// any valid block").
	for _, blk := range adv.Fork() {
		if err := r.can.ProcessPayload(r.ctx(), adapter.Response{Blocks: []adapter.BlockWithHeader{
			{Block: blk, Header: blk.Header},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	// Real chain: height 6; fork reaches height 2+4=6 — equal work, so the
	// canister's deterministic tie-break holds; the corrupting tx's address
	// must never appear with ≥ c* = 2 confirmations.
	lootAddr, ok := btc.ExtractAddress(loot, r.params.Network)
	if !ok {
		t.Fatal("bad loot script")
	}
	res, err := r.can.GetUTXOs(r.ctx(), GetUTXOsArgs{Address: lootAddr.String(), MinConfirmations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UTXOs) != 0 {
		t.Fatal("corrupting transaction visible with 2 confirmations")
	}
	// Extend the honest chain: the fork falls behind and even c=1 hides it.
	if _, err := r.miner.MineChain(2, 0); err != nil {
		t.Fatal(err)
	}
	r.feedChain()
	res, err = r.can.GetUTXOs(r.ctx(), GetUTXOsArgs{Address: lootAddr.String(), MinConfirmations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UTXOs) != 0 {
		t.Fatal("corrupting transaction on lighter fork visible")
	}
}

func TestCanisterTimeAdvances(t *testing.T) {
	// Block timestamps must be acceptable as virtual time advances.
	r := newRig(t, 15)
	for i := 0; i < 3; i++ {
		r.sched.RunFor(10 * time.Minute)
		if _, err := r.miner.Mine(0); err != nil {
			t.Fatal(err)
		}
	}
	r.feedChain()
	if r.can.TipHeight() != 3 {
		t.Fatalf("tip %d", r.can.TipHeight())
	}
}

func TestFeePercentiles(t *testing.T) {
	r := newRig(t, 16)
	if _, err := r.miner.MineChain(1, 0); err != nil {
		t.Fatal(err)
	}
	// Build three spends with distinct fees: 500, 1500, 4500 sat.
	addr := r.minerAddr()
	utxos := r.node.UTXOView().UTXOsForAddress(addr.String())
	fees := []int64{500, 1500, 4500}
	// Only one coinbase so far; mine more to have three inputs.
	if _, err := r.miner.MineChain(2, 0); err != nil {
		t.Fatal(err)
	}
	utxos = r.node.UTXOView().UTXOsForAddress(addr.String())
	if len(utxos) < 3 {
		t.Fatalf("miner has %d utxos", len(utxos))
	}
	for i, fee := range fees {
		tx := &btc.Transaction{
			Version: 2,
			Inputs:  []btc.TxIn{{PreviousOutPoint: utxos[i].OutPoint, Sequence: 0xffffffff}},
			Outputs: []btc.TxOut{{Value: utxos[i].Value - fee, PkScript: utxos[i].PkScript}},
		}
		if err := btc.SignInput(tx, 0, utxos[i].PkScript, r.key); err != nil {
			t.Fatal(err)
		}
		if !r.node.AcceptTx(tx) {
			t.Fatalf("fee tx %d rejected", i)
		}
	}
	if _, err := r.miner.Mine(0); err != nil {
		t.Fatal(err)
	}
	r.feedChain()

	v, err := r.can.Query(r.ctx(), "get_current_fee_percentiles", nil)
	if err != nil {
		t.Fatal(err)
	}
	pct := v.([]int64)
	if len(pct) != FeePercentilesCount {
		t.Fatalf("%d percentiles", len(pct))
	}
	// Percentiles must be non-decreasing and span the fee range.
	for i := 1; i < len(pct); i++ {
		if pct[i] < pct[i-1] {
			t.Fatal("percentiles not sorted")
		}
	}
	if pct[0] <= 0 {
		t.Fatalf("p0 = %d, want positive fee rate", pct[0])
	}
	if pct[100] <= pct[0] {
		t.Fatalf("p100 %d not above p0 %d (distinct fees present)", pct[100], pct[0])
	}
}

func TestFeePercentilesEmptyAndUnsynced(t *testing.T) {
	r := newRig(t, 17)
	// Fresh canister: synced, no transactions → all-zero percentiles.
	v, err := r.can.GetCurrentFeePercentiles(r.ctx())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range v {
		if p != 0 {
			t.Fatal("nonzero percentile with no traffic")
		}
	}
	// Unsynced canister refuses.
	if _, err := r.miner.MineChain(6, 0); err != nil {
		t.Fatal(err)
	}
	var headers []btc.BlockHeader
	for _, n := range r.node.Tree().CurrentChain()[1:] {
		headers = append(headers, n.Header)
	}
	if err := r.can.ProcessPayload(r.ctx(), adapter.Response{Next: headers}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.can.GetCurrentFeePercentiles(r.ctx()); !errors.Is(err, ErrNotSynced) {
		t.Fatalf("want ErrNotSynced, got %v", err)
	}
}

func TestGetBlockHeaders(t *testing.T) {
	r := newRig(t, 18)
	if _, err := r.miner.MineChain(10, 0); err != nil {
		t.Fatal(err)
	}
	r.feedChain()
	// Anchor at 5: heights 0..4 served from stable history, 5..10 from the
	// unstable tree.
	v, err := r.can.Query(r.ctx(), "get_block_headers", GetBlockHeadersArgs{StartHeight: 0})
	if err != nil {
		t.Fatal(err)
	}
	res := v.(*GetBlockHeadersResult)
	if res.TipHeight != 10 {
		t.Fatalf("tip %d", res.TipHeight)
	}
	if len(res.Headers) != 11 {
		t.Fatalf("headers %d, want 11 (genesis..10)", len(res.Headers))
	}
	// Headers must chain: each PrevBlock is the previous header's hash.
	for i := 1; i < len(res.Headers); i++ {
		if res.Headers[i].PrevBlock != res.Headers[i-1].BlockHash() {
			t.Fatalf("headers do not chain at %d", i)
		}
	}
	// Sub-range.
	v, err = r.can.Query(r.ctx(), "get_block_headers", GetBlockHeadersArgs{StartHeight: 3, EndHeight: 7})
	if err != nil {
		t.Fatal(err)
	}
	res = v.(*GetBlockHeadersResult)
	if len(res.Headers) != 5 {
		t.Fatalf("range headers %d, want 5", len(res.Headers))
	}
	// Bad range.
	if _, err := r.can.GetBlockHeaders(r.ctx(), GetBlockHeadersArgs{StartHeight: 9, EndHeight: 3}); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := r.can.GetBlockHeaders(r.ctx(), GetBlockHeadersArgs{StartHeight: -1}); err == nil {
		t.Fatal("negative start accepted")
	}
}
