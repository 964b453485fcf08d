package canister

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/btcnode"
	"icbtc/internal/ic"
)

// forgeRig is one canister fed forged blocks — valid by proof of work, Merkle
// root and median time past, their transactions validated by nobody
// (btcnode.Forge), so a test can hand it double spends, alien inputs and
// spends of outputs from losing branches — and answered by both read paths:
// its own overlay and the replay oracle rescanning the same state.
type forgeRig struct {
	t      *testing.T
	params *btc.Params
	forge  *btcnode.Forge
	can    *BitcoinCanister
	now    time.Time
	// tip is the block extend mines on.
	tip btc.Hash
}

// rigPayout receives the coinbase of every block extend mines.
var rigPayout = btc.PayToPubKeyHashScript([20]byte{0xFE, 0xE5})

func newForgeRig(t *testing.T) *forgeRig {
	params := btc.RegtestParams()
	return &forgeRig{
		t:      t,
		params: params,
		forge:  btcnode.NewForge(params),
		can:    New(DefaultConfig(btc.Regtest)), // δ = 6
		now:    time.Unix(int64(params.GenesisHeader.Timestamp), 0).Add(time.Hour),
		tip:    params.GenesisHeader.BlockHash(),
	}
}

func (r *forgeRig) ctx(kind ic.CallKind) *ic.CallContext {
	return ic.NewCallContext(kind, r.now)
}

// mine forges one block on any block this rig has mined, without delivering it.
func (r *forgeRig) mine(parent btc.Hash, payout []byte, txs ...*btc.Transaction) *btc.Block {
	r.t.Helper()
	b, err := r.forge.Mine(parent, payout, txs...)
	if err != nil {
		r.t.Fatal(err)
	}
	return b
}

// extend mines one block of txs on the rig's tip and delivers it.
func (r *forgeRig) extend(txs ...*btc.Transaction) *btc.Block {
	r.t.Helper()
	b := r.mine(r.tip, rigPayout, txs...)
	r.tip = b.BlockHash()
	r.deliver(b)
	return b
}

// payload hands the canister one payload of blocks and returns how many of
// them it ingested.
func (r *forgeRig) payload(blocks ...*btc.Block) int {
	r.t.Helper()
	r.now = r.now.Add(time.Duration(len(blocks)) * time.Minute)
	resp := adapter.Response{}
	for _, b := range blocks {
		resp.Blocks = append(resp.Blocks, adapter.BlockWithHeader{Block: b, Header: b.Header})
	}
	before := r.can.IngestedBlocks()
	if err := r.can.ProcessPayload(r.ctx(ic.KindUpdate), resp); err != nil {
		r.t.Fatal(err)
	}
	return r.can.IngestedBlocks() - before
}

// deliver is payload for blocks the canister must accept.
func (r *forgeRig) deliver(blocks ...*btc.Block) {
	r.t.Helper()
	if got := r.payload(blocks...); got != len(blocks) {
		r.t.Fatalf("ingested %d of %d delivered blocks", got, len(blocks))
	}
}

// replayBalance asks the oracle, asserting its isolation on the way: it
// reads the canister the overlay serves from, so the call must leave that
// canister's snapshot bytes and balance cache untouched.
func (p *forgeRig) replayBalance(args GetBalanceArgs) (int64, error) {
	p.t.Helper()
	before, cached := snapshotOf(p.t, p.can), p.can.BalanceCacheSize()
	total, err := ReplayBalance(p.can, p.ctx(ic.KindQuery), args)
	if _, uerr := ReplayUTXOs(p.can, p.ctx(ic.KindQuery), GetUTXOsArgs{Address: args.Address, MinConfirmations: args.MinConfirmations}); (uerr == nil) != (err == nil) {
		p.t.Fatalf("replay get_utxos err %v, replay get_balance err %v", uerr, err)
	}
	if !bytes.Equal(before, snapshotOf(p.t, p.can)) {
		p.t.Fatal("replay oracle mutated the canister it read")
	}
	if got := p.can.BalanceCacheSize(); got != cached {
		p.t.Fatalf("replay oracle touched the balance cache: %d -> %d entries", cached, got)
	}
	return total, err
}

// balances asserts both read paths agree and match the expected value.
func (p *forgeRig) balance(addr string, minConf int64) int64 {
	p.t.Helper()
	args := GetBalanceArgs{Address: addr, MinConfirmations: minConf}
	a, errA := p.can.GetBalance(p.ctx(ic.KindQuery), args)
	b, errB := p.replayBalance(args)
	if errA != nil || errB != nil {
		p.t.Fatalf("balance(%s, c=%d): overlay err %v, replay err %v", addr, minConf, errA, errB)
	}
	if a != b {
		p.t.Fatalf("balance(%s, c=%d): overlay %d != replay %d", addr, minConf, a, b)
	}
	return a
}

func testAddr(b byte) (string, []byte) {
	var h [20]byte
	h[0] = b
	a := btc.NewP2PKHAddress(h, btc.Regtest)
	return a.String(), btc.PayToAddrScript(a)
}

// TestReorgSpendOfLosingBranchOutput exercises the satellite edge case: a
// winning fork contains a transaction spending an output that was created
// only on the branch it displaced. The canister does not validate spends,
// so the block is accepted; the spend must be a no-op for every address
// view on the new chain — on both read paths.
func TestReorgSpendOfLosingBranchOutput(t *testing.T) {
	p := newForgeRig(t)
	genesis := p.params.GenesisHeader.BlockHash()
	_, minerScript := testAddr(0xAA)
	addrP, scriptP := testAddr(0xBB)

	// Branch A: block 1, then block A2 creating output X for address P.
	b1 := p.mine(genesis, minerScript)
	fund := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.DoubleSHA256([]byte("external")), Vout: 0}}},
		Outputs: []btc.TxOut{{Value: 7_000, PkScript: scriptP}},
	}
	a2 := p.mine(b1.BlockHash(), minerScript, fund)
	p.deliver(b1, a2)
	if got := p.balance(addrP, 0); got != 7_000 {
		t.Fatalf("pre-reorg balance %d, want 7000", got)
	}
	outX := btc.OutPoint{TxID: fund.TxID(), Vout: 0}

	// Branch B from block 1: B2 funds P with output Y, B3 spends X — an
	// output that exists only on branch A — and B4 seals the reorg.
	fundY := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.DoubleSHA256([]byte("other")), Vout: 0}}},
		Outputs: []btc.TxOut{{Value: 1_100, PkScript: scriptP}},
	}
	spendX := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: outX}},
		Outputs: []btc.TxOut{{Value: 6_500, PkScript: minerScript}},
	}
	b2 := p.mine(b1.BlockHash(), minerScript, fundY)
	b3 := p.mine(b2.BlockHash(), minerScript, spendX)
	b4 := p.mine(b3.BlockHash(), minerScript)
	p.deliver(b2, b3, b4)

	if got := p.can.TipHeight(); got != 4 {
		t.Fatalf("tip %d, want 4 (reorg to branch B)", got)
	}
	// On the current chain X never existed: the spend in B3 is a no-op and
	// P's view is exactly {Y}.
	if got := p.balance(addrP, 0); got != 1_100 {
		t.Fatalf("post-reorg balance %d, want 1100 (Y only)", got)
	}
	res, err := p.can.GetUTXOs(p.ctx(ic.KindQuery), GetUTXOsArgs{Address: addrP})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UTXOs) != 1 || res.UTXOs[0].OutPoint.TxID != fundY.TxID() {
		t.Fatalf("post-reorg view %+v, want exactly Y", res.UTXOs)
	}

	// Branch A overtakes again (A3..A5): X is visible once more, and the
	// winning-branch-only spend of it is gone from the considered chain.
	a3 := p.mine(a2.BlockHash(), minerScript)
	a4 := p.mine(a3.BlockHash(), minerScript)
	a5 := p.mine(a4.BlockHash(), minerScript)
	p.deliver(a3, a4, a5)
	if got := p.balance(addrP, 0); got != 7_000 {
		t.Fatalf("re-reorg balance %d, want 7000 (X restored, Y gone)", got)
	}
}

// TestGetBalanceAtExactlyDeltaConfirmations pins the minConfirmations == δ
// boundary: the filter admits only count-δ-stable unstable blocks, which
// with equal-work blocks is the empty set at the tip — the answer is the
// stable set alone — while δ+1 is rejected outright.
func TestGetBalanceAtExactlyDeltaConfirmations(t *testing.T) {
	p := newForgeRig(t)
	addrM, scriptM := testAddr(0xCC)
	const delta = 6 // regtest default

	parent := p.params.GenesisHeader.BlockHash()
	for h := int64(1); h <= 12; h++ {
		b := p.mine(parent, scriptM)
		p.deliver(b)
		parent = b.BlockHash()
	}
	if got := p.can.AnchorHeight(); got != 7 {
		t.Fatalf("anchor %d, want 7", got)
	}
	subsidy := p.params.BlockSubsidy

	// c = δ: no unstable block has δ confirmations yet (the deepest has
	// δ−1), so exactly the 7 folded coinbases answer.
	if got := p.balance(addrM, delta); got != 7*subsidy {
		t.Fatalf("balance at c=δ: %d, want %d", got, 7*subsidy)
	}
	// c = δ−1 admits exactly one unstable block.
	if got := p.balance(addrM, delta-1); got != 8*subsidy {
		t.Fatalf("balance at c=δ-1: %d, want %d", got, 8*subsidy)
	}
	// c = 1 sees everything; c = 0 is the unfiltered view.
	if got := p.balance(addrM, 1); got != 12*subsidy {
		t.Fatalf("balance at c=1: %d, want %d", got, 12*subsidy)
	}
	// c = δ+1 must be rejected by both paths.
	tooMany := GetBalanceArgs{Address: addrM, MinConfirmations: delta + 1}
	if _, err := p.can.GetBalance(p.ctx(ic.KindQuery), tooMany); !errors.Is(err, ErrTooManyConfirmations) {
		t.Fatalf("c=δ+1: overlay got %v, want ErrTooManyConfirmations", err)
	}
	if _, err := p.replayBalance(tooMany); !errors.Is(err, ErrTooManyConfirmations) {
		t.Fatalf("c=δ+1: replay got %v, want ErrTooManyConfirmations", err)
	}
}

// TestBalanceCacheCoherence verifies the overlay's balance cache is
// invalidated by every tree mutation and cleared deltas on anchor advance.
func TestBalanceCacheCoherence(t *testing.T) {
	p := newForgeRig(t)
	addrM, scriptM := testAddr(0xDD)

	parent := p.params.GenesisHeader.BlockHash()
	b1 := p.mine(parent, scriptM)
	p.deliver(b1)

	// First query misses, second hits the cache.
	if got := p.balance(addrM, 0); got != p.params.BlockSubsidy {
		t.Fatalf("balance %d", got)
	}
	if p.can.BalanceCacheSize() == 0 {
		t.Fatal("query did not populate the balance cache")
	}
	hit := p.ctx(ic.KindQuery)
	if _, err := p.can.GetBalance(hit, GetBalanceArgs{Address: addrM}); err != nil {
		t.Fatal(err)
	}
	if hit.Meter.Category("balance_cache_hit") == 0 {
		t.Fatal("repeat query did not hit the cache")
	}

	// A new block must invalidate and the next answer must be fresh.
	b2 := p.mine(b1.BlockHash(), scriptM)
	p.deliver(b2)
	if p.can.BalanceCacheSize() != 0 {
		t.Fatal("cache survived a tree mutation")
	}
	if got := p.balance(addrM, 0); got != 2*p.params.BlockSubsidy {
		t.Fatalf("post-mutation balance %d", got)
	}

	// Drive the anchor forward; the new root's delta attachment must be
	// cleared (its effects now live in the stable set).
	parent = b2.BlockHash()
	for h := int64(3); h <= 9; h++ {
		b := p.mine(parent, scriptM)
		p.deliver(b)
		parent = b.BlockHash()
	}
	if p.can.AnchorHeight() == 0 {
		t.Fatal("anchor did not advance")
	}
	if p.can.tree.Root().Aux() != nil {
		t.Fatal("anchor node still carries a block delta")
	}
	if got := p.balance(addrM, 0); got != 9*p.params.BlockSubsidy {
		t.Fatalf("post-advance balance %d", got)
	}
}

// TestBalanceCacheBounded floods get_balance with distinct questions between
// two blocks — addresses that hold nothing, and one that does at every
// confirmation count. The memo stops at its bound, the questions past it are
// still answered right, and the next block empties it as before.
func TestBalanceCacheBounded(t *testing.T) {
	p := newForgeRig(t)
	addrM, scriptM := testAddr(0xDD)
	b1 := p.mine(p.params.GenesisHeader.BlockHash(), scriptM)
	p.deliver(b1)

	for i := 0; i < maxBalanceCache+100; i++ {
		args := GetBalanceArgs{Address: fmt.Sprintf("nobody-%d", i)}
		if got, err := p.can.GetBalance(p.ctx(ic.KindQuery), args); got != 0 || err != nil {
			t.Fatalf("an address nobody paid holds %d (%v)", got, err)
		}
	}
	if got := p.can.BalanceCacheSize(); got != maxBalanceCache {
		t.Fatalf("%d memoized balances after %d distinct questions, bound is %d", got, maxBalanceCache+100, maxBalanceCache)
	}
	for minConf := int64(0); minConf <= 1; minConf++ {
		if got := p.balance(addrM, minConf); got != p.params.BlockSubsidy {
			t.Fatalf("balance %d at %d confirmations past the bound", got, minConf)
		}
	}
	if got := p.can.BalanceCacheSize(); got != maxBalanceCache {
		t.Fatalf("the full memo grew to %d", got)
	}

	p.deliver(p.mine(b1.BlockHash(), scriptM))
	if p.can.BalanceCacheSize() != 0 {
		t.Fatal("cache survived a tree mutation")
	}
	if got := p.balance(addrM, 0); got != 2*p.params.BlockSubsidy || p.can.BalanceCacheSize() != 1 {
		t.Fatalf("balance %d, %d memoized after the flood was dropped", got, p.can.BalanceCacheSize())
	}
}
