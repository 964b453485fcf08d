package main

import (
	"errors"
	"fmt"
	"io"
	"time"

	"icbtc/internal/btc"
	"icbtc/internal/canister"
	"icbtc/internal/core"
	"icbtc/internal/ic"
)

// escrowFee is the flat fee, in satoshi, the payout leaves to the miners.
const escrowFee = 1000

// EscrowCanister is a decentralized escrow holding bitcoin under the
// subnet's threshold-ECDSA key — one of the applications the paper's
// introduction motivates ("decentralized payroll or escrow systems"). No
// party, not even a single IC node, can move the deposit unilaterally. The
// escrow watches its deposit address through the Bitcoin canister with a
// confirmation requirement, and on "release" or "refund" threshold-signs the
// whole deposit to the seller or back to the buyer.
type EscrowCanister struct {
	BitcoinID ic.CanisterID
	Network   btc.Network
	// Seller and Buyer are the payout addresses.
	Seller, Buyer string
	// RequiredConfirmations gates the deposit check (the paper's c*).
	RequiredConfirmations int64
	// state moves open → funded → released | refunded and never back: a
	// settled escrow's deposit stays visible until the payout confirms, and
	// must not fund it a second time.
	state string
}

// Update implements ic.Canister.
func (e *EscrowCanister) Update(ctx *ic.CallContext, method string, arg any) (any, error) {
	switch method {
	case "check_funding":
		amount, ok := arg.(int64)
		if !ok {
			return nil, fmt.Errorf("escrow: check_funding wants int64 amount, got %T", arg)
		}
		return e.checkFunding(ctx, amount)
	case "release":
		return e.payout(ctx, e.Seller, "released")
	case "refund":
		return e.payout(ctx, e.Buyer, "refunded")
	default:
		return e.Query(ctx, method, arg)
	}
}

// Query implements ic.Canister.
func (e *EscrowCanister) Query(ctx *ic.CallContext, method string, arg any) (any, error) {
	switch method {
	case "state":
		return e.state, nil
	case "deposit_address":
		addr, err := core.ThresholdAddress(ctx, e.Network)
		return addr.String(), err
	default:
		return nil, fmt.Errorf("escrow: no method %q", method)
	}
}

// balance reads what the deposit address holds with at least minConf
// confirmations.
func (e *EscrowCanister) balance(ctx *ic.CallContext, minConf int64) (int64, error) {
	addr, err := core.ThresholdAddress(ctx, e.Network)
	if err != nil {
		return 0, err
	}
	v, err := ctx.Call(e.BitcoinID, "get_balance", canister.GetBalanceArgs{Address: addr.String(), MinConfirmations: minConf})
	if err != nil {
		return 0, err
	}
	return v.(int64), nil
}

// checkFunding reports whether the deposit holds at least amount satoshi
// with the required confirmations, and moves an open escrow to "funded" when
// it does.
func (e *EscrowCanister) checkFunding(ctx *ic.CallContext, amount int64) (bool, error) {
	bal, err := e.balance(ctx, e.RequiredConfirmations)
	if err != nil {
		return false, err
	}
	funded := bal >= amount
	if funded && e.state == "open" {
		e.state = "funded"
	}
	return funded, nil
}

// payout threshold-signs the whole deposit, minus the fee, to the target.
func (e *EscrowCanister) payout(ctx *ic.CallContext, to, finalState string) (btc.Hash, error) {
	if e.state != "funded" {
		return btc.Hash{}, fmt.Errorf("escrow: cannot pay out in state %q", e.state)
	}
	bal, err := e.balance(ctx, 0)
	if err != nil {
		return btc.Hash{}, err
	}
	sent, err := core.ThresholdSpend(ctx, e.BitcoinID, e.Network, []core.Payment{{To: to, Amount: bal - escrowFee}}, escrowFee)
	if err != nil {
		return btc.Hash{}, err
	}
	e.state = finalState
	return sent.TxID, nil
}

var _ ic.Canister = (*EscrowCanister)(nil)

// escrowDeposit is what the buyer pays in, in satoshi.
const escrowDeposit = 25_000_000

// fundedEscrow builds the world, installs an escrow between a buyer and the
// returned seller's address as canister "escrow", and has the buyer pay the deposit:
// on return it has its two confirmations and the escrow is "funded".
func fundedEscrow(w io.Writer, opts core.Options) (*core.Integration, string, error) {
	fmt.Fprintln(w, "== Setting up the integration and the escrow canister ==")
	integ, err := core.New(opts)
	if err != nil {
		return nil, "", err
	}
	buyer := btc.NewP2PKHAddress([20]byte{0xB1}, integ.Params.Network).String()
	seller := btc.NewP2PKHAddress([20]byte{0x5E}, integ.Params.Network).String()
	integ.InstallCanister("escrow", &EscrowCanister{
		BitcoinID:             core.BitcoinCanisterID,
		Network:               integ.Params.Network,
		Seller:                seller,
		Buyer:                 buyer,
		RequiredConfirmations: 2,
		state:                 "open",
	})
	integ.Start()
	integ.RunFor(5 * time.Second)

	// Mine the miner some funds to pay the deposit from.
	if _, err := integ.MineBlocks(2); err != nil {
		return nil, "", err
	}
	res, err := integ.CallCanister("escrow", "deposit_address", nil)
	if err != nil {
		return nil, "", err
	}
	depositAddr := res.Value.(string)
	fmt.Fprintf(w, "   escrow deposit address (threshold key): %s\n", depositAddr)

	fmt.Fprintln(w, "== Buyer funds the escrow with 0.25 BTC ==")
	if _, err := core.FundAddress(integ, depositAddr, escrowDeposit); err != nil {
		return nil, "", err
	}
	// One more block for the 2-confirmation requirement.
	if _, err := integ.MineBlocks(1); err != nil {
		return nil, "", err
	}
	if err := integ.AwaitCanisterHeight(4, 3*time.Minute); err != nil {
		return nil, "", err
	}
	res, err = integ.CallCanister("escrow", "check_funding", int64(escrowDeposit))
	if err != nil {
		return nil, "", err
	}
	fmt.Fprintf(w, "   funded with ≥2 confirmations: %v\n", res.Value)
	if funded, _ := res.Value.(bool); !funded {
		return nil, "", errors.New("escrow did not observe the deposit")
	}
	return integ, seller, nil
}

// escrow runs the happy path: deposit, delivery, release to the seller.
func escrow(w io.Writer) error {
	integ, seller, err := fundedEscrow(w, core.Options{Seed: 7})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Goods delivered — releasing to the seller ==")
	res, err := integ.CallCanister("escrow", "release", nil)
	if err != nil {
		return err
	}
	payoutTx := res.Value.(btc.Hash)
	fmt.Fprintf(w, "   threshold-signed payout: %s\n", payoutTx)
	if err := integ.AwaitTxInMempool(payoutTx, 2*time.Minute); err != nil {
		return err
	}
	if _, err := integ.MineBlocks(1); err != nil {
		return err
	}
	if err := integ.AwaitCanisterHeight(5, 2*time.Minute); err != nil {
		return err
	}
	bal, _, err := integ.GetBalance(seller, 0, false)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== Seller received %d sat (deposit minus %d sat fee) ==\n", bal, escrowFee)
	res, err = integ.CallCanister("escrow", "state", nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "   escrow final state: %s\n", res.Value)
	return nil
}
