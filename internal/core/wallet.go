package core

import (
	"fmt"

	"icbtc/internal/btc"
	"icbtc/internal/canister"
	"icbtc/internal/ic"
)

// walletFee is the flat fee, in satoshi, the wallet attaches to a send.
const walletFee = 1000

// WalletCanister is the smallest application canister over the contract kit
// (contract.go): it reports its threshold address and balance and pays out
// of it on request.
type WalletCanister struct {
	// BitcoinID is the Bitcoin canister to talk to.
	BitcoinID ic.CanisterID
	// Network selects the address flavor.
	Network btc.Network
}

// Update implements ic.Canister.
func (w *WalletCanister) Update(ctx *ic.CallContext, method string, arg any) (any, error) {
	if method == "send" {
		pay, ok := arg.(Payment)
		if !ok {
			return nil, fmt.Errorf("wallet: send wants Payment, got %T", arg)
		}
		return ThresholdSpend(ctx, w.BitcoinID, w.Network, []Payment{pay}, walletFee)
	}
	return w.Query(ctx, method, arg)
}

// Query implements ic.Canister. Reads of Bitcoin state go through the
// Bitcoin canister, which enforces its own rules.
func (w *WalletCanister) Query(ctx *ic.CallContext, method string, arg any) (any, error) {
	addr, err := ThresholdAddress(ctx, w.Network)
	if err != nil {
		return nil, err
	}
	switch method {
	case "address":
		return addr.String(), nil
	case "balance":
		return ctx.Call(w.BitcoinID, "get_balance", canister.GetBalanceArgs{Address: addr.String()})
	default:
		return nil, fmt.Errorf("wallet: no method %q", method)
	}
}

// Verify interface compliance.
var _ ic.Canister = (*WalletCanister)(nil)
