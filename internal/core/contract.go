package core

import (
	"errors"
	"fmt"

	"icbtc/internal/btc"
	"icbtc/internal/canister"
	"icbtc/internal/ic"
	"icbtc/internal/utxo"
)

// The contract kit: the two calls a canister needs to hold bitcoin natively
// under the subnet's threshold-ECDSA key — the capability that headlines the
// paper ("Canisters can hold bitcoins natively and let node machines sign
// Bitcoin transactions on their behalf", Fig 1). ThresholdAddress is where
// the canister receives, ThresholdSpend is how it pays; no single node ever
// sees a private key — there isn't one. WalletCanister and the contracts
// under examples/ are written against these two and nothing else.

// Payment is one output of a spend: Amount satoshi to the address To.
type Payment struct {
	To     string
	Amount int64
}

// SendResult reports a submitted spend.
type SendResult struct {
	TxID   btc.Hash
	RawTx  []byte
	Change int64
}

// ThresholdAddress derives the P2PKH address of the subnet's threshold key,
// the address at which every canister of the subnet holds its bitcoin.
func ThresholdAddress(ctx *ic.CallContext, network btc.Network) (btc.Address, error) {
	pub := ctx.ECDSAPublicKey()
	if pub == nil {
		return btc.Address{}, errors.New("core: subnet has no threshold key")
	}
	return btc.AddressFromPubKey(pub, network), nil
}

// ThresholdSpend pays pays, and fee to the miners, out of the bitcoin held at
// the threshold address: it reads every page of get_utxos from the Bitcoin
// canister, takes coins in the canonical order until they cover the total,
// sends the change back to the threshold address, has the subnet
// threshold-sign each input, checks the signatures locally (the Bitcoin
// network will too) and submits the transaction through send_transaction.
// Emptying the address is a spend of its balance minus fee.
func ThresholdSpend(ctx *ic.CallContext, bitcoinID ic.CanisterID, network btc.Network, pays []Payment, fee int64) (*SendResult, error) {
	self, err := ThresholdAddress(ctx, network)
	if err != nil {
		return nil, err
	}
	var coins []utxo.Coin
	var page utxo.PageToken
	for {
		v, err := ctx.Call(bitcoinID, "get_utxos", canister.GetUTXOsArgs{Address: self.String(), Page: page})
		if err != nil {
			return nil, fmt.Errorf("core: get_utxos: %w", err)
		}
		res := v.(*canister.GetUTXOsResult)
		coins = append(coins, res.UTXOs...)
		if res.NextPage == nil {
			break
		}
		page = res.NextPage
	}
	pub := ctx.ECDSAPublicKey()
	tx, change, err := buildSpend(coins, pays, fee, self, func(tx *btc.Transaction, i int, pkScript []byte) error {
		return btc.SignInputWith(tx, i, pkScript, pub, ctx.SignWithECDSA)
	})
	if err != nil {
		return nil, err
	}
	raw := tx.Bytes()
	if _, err := ctx.Call(bitcoinID, "send_transaction", canister.SendTransactionArgs{RawTx: raw}); err != nil {
		return nil, fmt.Errorf("core: send_transaction: %w", err)
	}
	return &SendResult{TxID: tx.TxID(), RawTx: raw, Change: change}, nil
}

// buildSpend is the part of a spend that does not depend on who holds the
// key: one output per payment, coins of self taken in the order given until
// they cover payments plus fee, change (if any) back to self, then signInput
// and a local script check for every input. Every coin is locked by self's
// one script, so the coins carry none. ThresholdSpend signs with the subnet
// key, Integration.MinerSpend with the miner's.
func buildSpend(coins []utxo.Coin, pays []Payment, fee int64, self btc.Address,
	signInput func(tx *btc.Transaction, i int, pkScript []byte) error) (*btc.Transaction, int64, error) {
	selfScript := btc.PayToAddrScript(self)
	tx := &btc.Transaction{Version: 2}
	need := fee
	for _, p := range pays {
		if p.Amount <= 0 {
			return nil, 0, fmt.Errorf("core: amount must be positive, got %d", p.Amount)
		}
		dest, err := btc.ParseAddress(p.To, self.Network())
		if err != nil {
			return nil, 0, fmt.Errorf("core: bad destination %q: %w", p.To, err)
		}
		tx.Outputs = append(tx.Outputs, btc.TxOut{Value: p.Amount, PkScript: btc.PayToAddrScript(dest)})
		need += p.Amount
	}
	var total int64
	for _, c := range coins {
		if total >= need {
			break
		}
		tx.Inputs = append(tx.Inputs, btc.TxIn{PreviousOutPoint: c.OutPoint, Sequence: 0xffffffff})
		total += c.Value
	}
	if total < need {
		return nil, 0, fmt.Errorf("core: insufficient funds: have %d, need %d", total, need)
	}
	change := total - need
	if change > 0 {
		tx.Outputs = append(tx.Outputs, btc.TxOut{Value: change, PkScript: selfScript})
	}
	for i := range tx.Inputs {
		if err := signInput(tx, i, selfScript); err != nil {
			return nil, 0, err
		}
		if err := btc.VerifyInput(tx, i, selfScript); err != nil {
			return nil, 0, fmt.Errorf("core: built invalid spend: %w", err)
		}
	}
	return tx, change, nil
}
