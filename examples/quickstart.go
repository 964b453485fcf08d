package main

import (
	"fmt"
	"io"
	"time"

	"icbtc/internal/btc"
	"icbtc/internal/core"
	"icbtc/internal/ic"
)

// quickstart spins up the full architecture — a simulated Bitcoin network,
// an IC subnet with the Bitcoin canister, and per-replica Bitcoin adapters —
// then exercises the read and write paths end to end: it mines blocks and
// watches the canister ingest them, reads a balance via a fast query and a
// certified replicated call, and submits a Bitcoin transaction through
// send_transaction and watches it reach the Bitcoin network and confirm.
func quickstart(w io.Writer) error {
	fmt.Fprintln(w, "== 1. Building the integration (8 Bitcoin nodes, 13-replica IC subnet) ==")
	subnetCfg := ic.DefaultConfig()
	subnetCfg.DisableThresholdKeys = true // no contract here, only raw transactions
	integ, err := core.New(core.Options{Seed: 42, Subnet: &subnetCfg})
	if err != nil {
		return err
	}
	integ.Start()
	integ.RunFor(5 * time.Second) // adapters discover Bitcoin peers

	fmt.Fprintln(w, "== 2. Mining 8 blocks on the Bitcoin network ==")
	height, err := integ.MineBlocks(8)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "   Bitcoin chain height: %d\n", height)

	fmt.Fprintln(w, "== 3. Waiting for the Bitcoin canister to ingest the chain ==")
	if err := integ.AwaitCanisterHeight(8, 3*time.Minute); err != nil {
		return err
	}
	fmt.Fprintf(w, "   canister tip=%d anchor=%d stable-UTXOs=%d synced=%v\n",
		integ.Canister.TipHeight(), integ.Canister.AnchorHeight(),
		integ.Canister.StableUTXOCount(), integ.Canister.Synced())

	miner := integ.MinerAddress()
	fmt.Fprintf(w, "== 4. Reading the miner's balance (%s) ==\n", miner)
	qBal, qRes, err := integ.GetBalance(miner.String(), 0, false)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "   query:      %d sat in %v (uncertified)\n", qBal, qRes.Latency.Round(time.Millisecond))
	rBal, rRes, err := integ.GetBalance(miner.String(), 0, true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "   replicated: %d sat in %v (threshold-certified: %v)\n",
		rBal, rRes.Latency.Round(time.Millisecond), len(rRes.Signature) > 0 || rRes.Certified)

	fmt.Fprintln(w, "== 5. Spending a coinbase through send_transaction ==")
	const fee = 1000
	dest := btc.NewP2PKHAddress([20]byte{0xD0, 0x0D}, integ.Params.Network)
	tx, err := integ.MinerSpend([]core.Payment{{To: dest.String(), Amount: integ.Params.BlockSubsidy - fee}}, fee)
	if err != nil {
		return err
	}
	if _, err := integ.SendTransaction(tx.Bytes()); err != nil {
		return err
	}
	fmt.Fprintf(w, "   submitted %s\n", tx.TxID())
	if err := integ.AwaitTxInMempool(tx.TxID(), 2*time.Minute); err != nil {
		return err
	}
	fmt.Fprintln(w, "   transaction reached the Bitcoin network's mempools")

	if _, err := integ.MineBlocks(1); err != nil {
		return err
	}
	if err := integ.AwaitCanisterHeight(9, 2*time.Minute); err != nil {
		return err
	}
	bal, _, err := integ.GetBalance(dest.String(), 1, false)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== 6. Destination balance with 1 confirmation: %d sat ==\n", bal)
	fmt.Fprintln(w, "quickstart complete")
	return nil
}
