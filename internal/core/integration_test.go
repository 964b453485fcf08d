package core

import (
	"errors"
	"testing"
	"time"

	"icbtc/internal/btc"
	"icbtc/internal/canister"
	"icbtc/internal/ic"
)

// fastOptions keeps end-to-end tests quick: a small subnet without the
// degraded-round tail and short consensus delays.
func fastOptions(seed int64) Options {
	cfg := ic.DefaultConfig()
	cfg.N = 4
	cfg.DegradedRoundProb = 0
	cfg.FinalizeBase = 300 * time.Millisecond
	cfg.FinalizeJitter = 200 * time.Millisecond
	cfg.CertifyDelay = 300 * time.Millisecond
	cfg.XNetDelay = 500 * time.Millisecond
	return Options{
		Seed:         seed,
		BitcoinNodes: 5,
		Subnet:       &cfg,
	}
}

// fastOptionsNoKeys additionally disables threshold keys (tests that don't
// sign run much faster without the DKG).
func fastOptionsNoKeys(seed int64) Options {
	o := fastOptions(seed)
	cfg := *o.Subnet
	cfg.DisableThresholdKeys = true
	o.Subnet = &cfg
	return o
}

func TestEndToEndReadPath(t *testing.T) {
	in, err := New(fastOptionsNoKeys(1))
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	in.RunFor(5 * time.Second) // adapters discover peers

	if _, err := in.MineBlocks(8); err != nil {
		t.Fatal(err)
	}
	if err := in.AwaitCanisterHeight(8, 2*time.Minute); err != nil {
		t.Fatal(err)
	}

	// The miner's balance must be visible through both query and replicated
	// paths, and both must agree.
	addr := in.MinerAddress().String()
	qBal, qRes, err := in.GetBalance(addr, 0, false)
	if err != nil {
		t.Fatalf("query balance: %v", err)
	}
	rBal, rRes, err := in.GetBalance(addr, 0, true)
	if err != nil {
		t.Fatalf("replicated balance: %v", err)
	}
	if qBal != rBal {
		t.Fatalf("query %d != replicated %d", qBal, rBal)
	}
	if want := int64(8) * in.Params.BlockSubsidy; qBal != want {
		t.Fatalf("balance %d, want %d", qBal, want)
	}
	if qRes.Certified || !rRes.Certified {
		t.Fatal("certification flags wrong")
	}
	if qRes.Latency >= rRes.Latency {
		t.Fatalf("query latency %v not below replicated %v", qRes.Latency, rRes.Latency)
	}

	// UTXO retrieval with pagination.
	utxos, err := in.GetAllUTXOs(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(utxos) != 8 {
		t.Fatalf("utxos %d", len(utxos))
	}
}

func TestEndToEndAnchorAdvances(t *testing.T) {
	in, err := New(fastOptionsNoKeys(2))
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	in.RunFor(5 * time.Second)
	// δ = 6 on regtest: after 10 blocks the anchor sits at height 4... 10-6=4? depth(h5)=6 → anchor 5.
	if _, err := in.MineBlocks(10); err != nil {
		t.Fatal(err)
	}
	if err := in.AwaitCanisterHeight(10, 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := in.Canister.AnchorHeight(); got != 5 {
		// The anchor advances when the last block (not just header) lands;
		// give the pipeline a moment more before failing.
		in.RunFor(30 * time.Second)
	}
	if got := in.Canister.AnchorHeight(); got != 5 {
		t.Fatalf("anchor %d, want 5", got)
	}
	if got := in.Canister.StableUTXOCount(); got != 5 {
		t.Fatalf("stable UTXOs %d", got)
	}
}

func TestEndToEndWritePath(t *testing.T) {
	// The full write loop: client sends a raw transaction through the
	// Bitcoin canister; adapters advertise it; a Bitcoin node mempool picks
	// it up; the miner includes it; the balance change becomes visible.
	in, err := New(fastOptionsNoKeys(3))
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	in.RunFor(5 * time.Second)
	if _, err := in.MineBlocks(2); err != nil {
		t.Fatal(err)
	}
	if err := in.AwaitCanisterHeight(2, 2*time.Minute); err != nil {
		t.Fatal(err)
	}

	// Build a spend of the miner's first coinbase to a fresh address.
	dest := btc.NewP2PKHAddress([20]byte{0xAB}, in.Params.Network)
	node := in.Bitcoin.Nodes[0]
	utxos := node.UTXOView().UTXOsForAddress(in.MinerAddress().String())
	tx := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: utxos[0].OutPoint, Sequence: 0xffffffff}},
		Outputs: []btc.TxOut{{Value: utxos[0].Value - 1000, PkScript: btc.PayToAddrScript(dest)}},
	}
	if err := btc.SignInput(tx, 0, btc.PayToAddrScript(in.MinerAddress()), in.minerKey); err != nil {
		t.Fatal(err)
	}

	if _, err := in.SendTransaction(tx.Bytes()); err != nil {
		t.Fatalf("send_transaction: %v", err)
	}
	if err := in.AwaitTxInMempool(tx.TxID(), 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	// Mine it in and confirm the destination balance through the canister.
	if _, err := in.MineBlocks(1); err != nil {
		t.Fatal(err)
	}
	if err := in.AwaitCanisterHeight(3, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	bal, _, err := in.GetBalance(dest.String(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := utxos[0].Value - 1000; bal != want {
		t.Fatalf("dest balance %d, want %d", bal, want)
	}
}

// walletAddress asks the installed wallet canister where it holds its
// bitcoin.
func walletAddress(t *testing.T, in *Integration) string {
	t.Helper()
	res, err := in.CallCanister("wallet", "address", nil)
	if err != nil {
		t.Fatalf("wallet address: %v", err)
	}
	return res.Value.(string)
}

func TestEndToEndThresholdWallet(t *testing.T) {
	// The headline capability: a canister holds bitcoin under the subnet
	// threshold key and spends it with threshold signatures.
	in, err := New(fastOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	wallet := &WalletCanister{BitcoinID: BitcoinCanisterID, Network: in.Params.Network}
	in.InstallCanister("wallet", wallet)
	in.Start()
	in.RunFor(5 * time.Second)

	// Give the miner funds, then fund the wallet address.
	if _, err := in.MineBlocks(2); err != nil {
		t.Fatal(err)
	}
	walletAddr := walletAddress(t, in)
	const fund = 30_000_000 // 0.3 BTC
	if _, err := FundAddress(in, walletAddr, fund); err != nil {
		t.Fatal(err)
	}
	if err := in.AwaitCanisterHeight(3, 2*time.Minute); err != nil {
		t.Fatal(err)
	}

	// The wallet sees its balance via the Bitcoin canister.
	res, err := in.CallCanister("wallet", "balance", nil)
	if err != nil {
		t.Fatalf("wallet balance: %v", err)
	}
	if res.Value.(int64) != fund {
		t.Fatalf("wallet balance %v, want %d", res.Value, fund)
	}

	// Spend: threshold-sign a payment to a fresh address.
	dest := btc.NewP2PKHAddress([20]byte{0xCD}, in.Params.Network)
	res, err = in.CallCanister("wallet", "send", Payment{To: dest.String(), Amount: 10_000_000})
	if err != nil {
		t.Fatalf("wallet send: %v", err)
	}
	sent := res.Value.(*SendResult)
	if err := in.AwaitTxInMempool(sent.TxID, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := in.MineBlocks(1); err != nil {
		t.Fatal(err)
	}
	if err := in.AwaitCanisterHeight(4, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	bal, _, err := in.GetBalance(dest.String(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if bal != 10_000_000 {
		t.Fatalf("dest balance %d", bal)
	}
	// Change came back to the wallet.
	res, err = in.CallCanister("wallet", "balance", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Value.(int64); got != fund-10_000_000-1000 {
		t.Fatalf("wallet change balance %d", got)
	}
}

func TestWalletErrors(t *testing.T) {
	in, err := New(fastOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	wallet := &WalletCanister{BitcoinID: BitcoinCanisterID, Network: in.Params.Network}
	in.InstallCanister("wallet", wallet)
	in.Start()
	in.RunFor(5 * time.Second)
	if _, err := in.MineBlocks(1); err != nil {
		t.Fatal(err)
	}
	if err := in.AwaitCanisterHeight(1, 2*time.Minute); err != nil {
		t.Fatal(err)
	}

	// Insufficient funds.
	dest := btc.NewP2PKHAddress([20]byte{1}, in.Params.Network)
	if _, err := in.CallCanister("wallet", "send", Payment{To: dest.String(), Amount: 1}); err == nil {
		t.Fatal("send with empty wallet succeeded")
	}
	// Bad destination.
	if _, err := in.CallCanister("wallet", "send", Payment{To: "garbage", Amount: 1}); err == nil {
		t.Fatal("bad destination accepted")
	}
	// Non-positive amount.
	if _, err := in.CallCanister("wallet", "send", Payment{To: dest.String(), Amount: 0}); err == nil {
		t.Fatal("zero amount accepted")
	}
	// Bad method / bad arg type.
	if _, err := in.CallCanister("wallet", "nope", nil); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, err := in.CallCanister("wallet", "send", 42); err == nil {
		t.Fatal("bad arg type accepted")
	}
}

func TestReorgHandledEndToEnd(t *testing.T) {
	// A fork at unstable heights must be resolved automatically by the
	// canister ("the Bitcoin canister can cope with any block
	// reorganization at heights greater than h(β*) automatically").
	in, err := New(fastOptionsNoKeys(6))
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	in.RunFor(5 * time.Second)
	if _, err := in.MineBlocks(3); err != nil {
		t.Fatal(err)
	}
	if err := in.AwaitCanisterHeight(3, 2*time.Minute); err != nil {
		t.Fatal(err)
	}

	// Competing heavier branch from height 1, built off-network and then
	// gossiped in.
	adv := in.Bitcoin
	adv.AddAdversaries(1)
	a := adv.Adversaries[0]
	// Sync the adversary with the honest chain.
	for _, n := range in.Bitcoin.Nodes[0].Tree().CurrentChain()[1:] {
		blk, _ := in.Bitcoin.Nodes[0].GetBlock(n.Hash)
		if _, err := a.Node.AcceptBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	base := a.Node.Tree().AtHeight(1)[0].Hash
	if err := a.MinePrivateFork(base, 4, nil); err != nil { // fork to height 5
		t.Fatal(err)
	}
	// Release the fork to the honest network.
	for _, blk := range a.Fork() {
		for _, n := range in.Bitcoin.Nodes {
			if _, err := n.AcceptBlock(blk); err != nil {
				t.Fatalf("fork block rejected by honest node: %v", err)
			}
		}
	}
	in.RunFor(30 * time.Second)
	if err := in.AwaitCanisterHeight(5, 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	// The canister followed the reorg: the old tip blocks at heights 2,3
	// are off the current chain, so the miner's coinbases there are hidden.
	bal, _, err := in.GetBalance(in.MinerAddress().String(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(1) * in.Params.BlockSubsidy; bal != want {
		t.Fatalf("post-reorg balance %d, want %d (only height-1 coinbase)", bal, want)
	}
}

func TestQueryVsReplicatedLatencyShape(t *testing.T) {
	// §IV-B: queries answer in hundreds of milliseconds, replicated calls
	// in ~7-18 seconds (here scaled down by fastOptions, but the ordering
	// and magnitude gap must hold).
	in, err := New(fastOptionsNoKeys(7))
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	in.RunFor(5 * time.Second)
	if _, err := in.MineBlocks(2); err != nil {
		t.Fatal(err)
	}
	if err := in.AwaitCanisterHeight(2, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	addr := in.MinerAddress().String()
	_, qRes, err := in.GetBalance(addr, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	_, rRes, err := in.GetBalance(addr, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if qRes.Latency > time.Second {
		t.Fatalf("query latency %v too high", qRes.Latency)
	}
	if rRes.Latency < 2*qRes.Latency {
		t.Fatalf("replicated %v not well above query %v", rRes.Latency, qRes.Latency)
	}
}

func TestNotStartedErrors(t *testing.T) {
	in, err := New(fastOptionsNoKeys(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := in.GetBalance("x", 0, false); err == nil {
		t.Fatal("call before Start accepted")
	}
	if _, err := in.CallCanister("wallet", "x", nil); err == nil {
		t.Fatal("CallCanister before Start accepted")
	}
}

func TestTooManyConfirmationsSurfaced(t *testing.T) {
	in, err := New(fastOptionsNoKeys(9))
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	in.RunFor(5 * time.Second)
	if _, err := in.MineBlocks(1); err != nil {
		t.Fatal(err)
	}
	if err := in.AwaitCanisterHeight(1, time.Minute); err != nil {
		t.Fatal(err)
	}
	_, _, err = in.GetBalance(in.MinerAddress().String(), 999, false)
	if err == nil || !errors.Is(err, canister.ErrTooManyConfirmations) {
		t.Fatalf("want ErrTooManyConfirmations, got %v", err)
	}
}

func TestWalletMultiInputSpend(t *testing.T) {
	// A payment larger than any single UTXO forces multi-input coin
	// selection and one threshold signature per input.
	in, err := New(fastOptions(11))
	if err != nil {
		t.Fatal(err)
	}
	wallet := &WalletCanister{BitcoinID: BitcoinCanisterID, Network: in.Params.Network}
	in.InstallCanister("wallet", wallet)
	in.Start()
	in.RunFor(5 * time.Second)
	if _, err := in.MineBlocks(3); err != nil {
		t.Fatal(err)
	}
	walletAddr := walletAddress(t, in)
	// Two separate fundings → two UTXOs of 0.05 BTC each.
	for i := 0; i < 2; i++ {
		if _, err := FundAddress(in, walletAddr, 5_000_000); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.AwaitCanisterHeight(5, 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	dest := btc.NewP2PKHAddress([20]byte{0xEF}, in.Params.Network)
	// 0.08 BTC needs both UTXOs.
	res, err := in.CallCanister("wallet", "send", Payment{To: dest.String(), Amount: 8_000_000})
	if err != nil {
		t.Fatalf("multi-input send: %v", err)
	}
	sent := res.Value.(*SendResult)
	parsed, err := btc.ParseTransaction(sent.RawTx)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Inputs) != 2 {
		t.Fatalf("spend used %d inputs, want 2", len(parsed.Inputs))
	}
	if err := in.AwaitTxInMempool(sent.TxID, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := in.MineBlocks(1); err != nil {
		t.Fatal(err)
	}
	if err := in.AwaitCanisterHeight(6, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	bal, _, err := in.GetBalance(dest.String(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if bal != 8_000_000 {
		t.Fatalf("dest got %d", bal)
	}
}

func TestThresholdSpendReadsEveryPage(t *testing.T) {
	// The kit follows get_utxos pagination: with two UTXOs per page and five
	// deposits of 0.01 BTC, a 0.045 BTC payment needs coins from all three
	// pages. A contract that read only the first page would see 0.02 BTC and
	// refuse, or strand the rest on a sweep.
	opts := fastOptions(12)
	canCfg := canister.DefaultConfig(btc.Regtest)
	canCfg.PageLimit = 2
	opts.Canister = &canCfg
	in, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	in.InstallCanister("wallet", &WalletCanister{BitcoinID: BitcoinCanisterID, Network: in.Params.Network})
	in.Start()
	in.RunFor(5 * time.Second)
	if _, err := in.MineBlocks(2); err != nil {
		t.Fatal(err)
	}
	walletAddr := walletAddress(t, in)
	const deposits, each = 5, 1_000_000
	for i := 0; i < deposits; i++ {
		if _, err := FundAddress(in, walletAddr, each); err != nil {
			t.Fatal(err)
		}
	}
	if err := in.AwaitCanisterHeight(2+deposits, 3*time.Minute); err != nil {
		t.Fatal(err)
	}
	page, _, err := in.GetUTXOs(canister.GetUTXOsArgs{Address: walletAddr}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.UTXOs) != 2 || page.NextPage == nil {
		t.Fatalf("first page holds %d UTXOs (next=%v), want 2 and a next page", len(page.UTXOs), page.NextPage)
	}

	dest := btc.NewP2PKHAddress([20]byte{0x9A}, in.Params.Network)
	const amount = 4_500_000
	res, err := in.CallCanister("wallet", "send", Payment{To: dest.String(), Amount: amount})
	if err != nil {
		t.Fatalf("send across pages: %v", err)
	}
	sent := res.Value.(*SendResult)
	parsed, err := btc.ParseTransaction(sent.RawTx)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Inputs) != deposits {
		t.Fatalf("spend used %d inputs, want %d", len(parsed.Inputs), deposits)
	}
	if want := int64(deposits*each - amount - walletFee); sent.Change != want {
		t.Fatalf("change %d, want %d", sent.Change, want)
	}
	if err := in.AwaitTxInMempool(sent.TxID, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := in.MineBlocks(1); err != nil {
		t.Fatal(err)
	}
	if err := in.AwaitCanisterHeight(3+deposits, 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	bal, _, err := in.GetBalance(dest.String(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if bal != amount {
		t.Fatalf("dest got %d, want %d", bal, amount)
	}
}
