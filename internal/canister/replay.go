package canister

import (
	"sort"

	"icbtc/internal/btc"
	"icbtc/internal/chain"
	"icbtc/internal/ic"
	"icbtc/internal/utxo"
)

// The naive §III-C read path, kept as the reference the overlay is checked
// against: rescan every unstable block of the considered chain on every
// request ("the computational complexity ... grows linearly with the
// parameter δ"). ReplayUTXOs and ReplayBalance answer from the very canister
// the overlay serves from — read-only, no cache filled — with the results,
// errors and metering the canister's own naive endpoints would have;
// ReplayFeePercentiles does the same for the fee rescan's outpoint map, which
// the txid index in fees.go replaced, and ReplayView hands out the merged
// view itself. They are free functions on purpose: no Config field, registry
// method, dispatch path or snapshot byte can reach them; only the
// differential harness, the in-package tests and the read-path experiment
// call them.

// ReplayUTXOs is get_utxos by replay: materialize the full merged view of
// the address, scripts included, sort it, page into it; only the page
// becomes coins.
func ReplayUTXOs(c *BitcoinCanister, ctx *ic.CallContext, args GetUTXOsArgs) (*GetUTXOsResult, error) {
	ctx.Meter.Charge(ic.CostRequestBase, "request_base")
	if err := c.checkServable(args.Network); err != nil {
		return nil, err
	}
	view, tip, err := c.addressViewReplay(ctx, args.Address, args.MinConfirmations)
	if err != nil {
		return nil, err
	}
	page, next, err := utxo.Page(view.utxos, args.Page, c.pageLimit(args.Limit))
	if err != nil {
		return nil, err
	}
	result := &GetUTXOsResult{
		UTXOs:     page,
		TipHash:   tip.Hash,
		TipHeight: tip.Height,
		NextPage:  next,
	}
	for i := range page {
		if view.unstable[page[i].OutPoint] {
			ctx.Meter.Charge(ic.CostPerUTXOUnstable, "fetch_unstable")
			result.UnstableCount++
		} else {
			ctx.Meter.Charge(ic.CostPerUTXOStable, "fetch_stable")
			result.StableCount++
		}
	}
	return result, nil
}

// ReplayView is the whole merged view ReplayUTXOs pages into, canonically
// sorted and with every UTXO's script: what a coin page leaves out.
func ReplayView(c *BitcoinCanister, ctx *ic.CallContext, address string, minConf int64) ([]utxo.UTXO, error) {
	view, _, err := c.addressViewReplay(ctx, address, minConf)
	if err != nil {
		return nil, err
	}
	return view.utxos, nil
}

// ReplayBalance is get_balance by replay: sum the materialized view.
func ReplayBalance(c *BitcoinCanister, ctx *ic.CallContext, args GetBalanceArgs) (int64, error) {
	ctx.Meter.Charge(ic.CostRequestBase, "request_base")
	if err := c.checkServable(args.Network); err != nil {
		return 0, err
	}
	view, _, err := c.addressViewReplay(ctx, args.Address, args.MinConfirmations)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, u := range view.utxos {
		ctx.Meter.Charge(ic.CostPerBalanceUTXO, "sum_balance")
		total += u.Value
	}
	return total, nil
}

// ReplayFeePercentiles is get_current_fee_percentiles by replay, uncached:
// every output of the unstable suffix goes into one outpoint map in chain
// order, each input is resolved against it before the stable set, and the
// rates are sorted.
func ReplayFeePercentiles(c *BitcoinCanister, ctx *ic.CallContext) ([]int64, error) {
	ctx.Meter.Charge(ic.CostRequestBase, "request_base")
	if !c.synced {
		return nil, ErrNotSynced
	}
	full := c.currentChain()
	nodes := full[1:]

	// Resolve input values from the stable set plus outputs created earlier
	// in the unstable suffix.
	type outInfo struct{ value int64 }
	created := make(map[btc.OutPoint]outInfo)
	var rates []int64
	for _, node := range nodes {
		ctx.Meter.Charge(ic.CostPerUnstableBlockScan, "scan_unstable")
		block := c.blocks[node.Hash]
		if block == nil {
			continue
		}
		txids := block.TxIDs()
		for ti, tx := range block.Transactions {
			txid := txids[ti]
			for vout := range tx.Outputs {
				created[btc.OutPoint{TxID: txid, Vout: uint32(vout)}] = outInfo{value: tx.Outputs[vout].Value}
			}
			if tx.IsCoinbase() {
				continue
			}
			var inValue int64
			resolved := true
			for i := range tx.Inputs {
				op := tx.Inputs[i].PreviousOutPoint
				if info, ok := created[op]; ok {
					inValue += info.value
					continue
				}
				if u, ok := c.stable.Get(op); ok {
					inValue += u.Value
					continue
				}
				resolved = false
				break
			}
			if !resolved {
				continue
			}
			var outValue int64
			for i := range tx.Outputs {
				outValue += tx.Outputs[i].Value
			}
			fee := inValue - outValue
			if fee < 0 {
				continue // unpriceable (canister does not validate spends)
			}
			size := tx.SerializedSize()
			if size == 0 {
				continue
			}
			rates = append(rates, fee*1000/int64(size))
			ctx.Meter.Charge(ic.CostPerUTXOUnstable, "fee_index")
		}
	}
	percentiles := make([]int64, FeePercentilesCount)
	if len(rates) == 0 {
		return percentiles, nil
	}
	sort.Slice(rates, func(i, j int) bool { return rates[i] < rates[j] })
	for p := 0; p < FeePercentilesCount; p++ {
		idx := p * (len(rates) - 1) / 100
		percentiles[p] = rates[idx]
	}
	return percentiles, nil
}

// addressUTXOView is the merged stable+unstable view of one address.
type addressUTXOView struct {
	utxos []utxo.UTXO
	// unstable marks outpoints that came from unstable blocks.
	unstable map[btc.OutPoint]bool
}

// addressViewReplay merges the stable UTXO set with the unstable chain's
// effects for one address by rescanning blocks, charged per block scanned.
func (c *BitcoinCanister) addressViewReplay(ctx *ic.CallContext, address string, minConf int64) (*addressUTXOView, *chain.Node, error) {
	nodes, err := c.consideredChain(minConf)
	if err != nil {
		return nil, nil, err
	}
	tip := c.consideredTip(nodes)

	view := &addressUTXOView{unstable: make(map[btc.OutPoint]bool)}
	present := make(map[btc.OutPoint]utxo.UTXO)
	for _, u := range c.stable.UTXOsForAddress(address) {
		present[u.OutPoint] = u
	}
	// Replay unstable blocks on the considered chain.
	for _, node := range nodes {
		ctx.Meter.Charge(ic.CostPerUnstableBlockScan, "scan_unstable")
		block := c.blocks[node.Hash]
		if block == nil {
			continue
		}
		txids := block.TxIDs()
		for ti, tx := range block.Transactions {
			if !tx.IsCoinbase() {
				for i := range tx.Inputs {
					delete(present, tx.Inputs[i].PreviousOutPoint)
				}
			}
			txid := txids[ti]
			for vout := range tx.Outputs {
				out := tx.Outputs[vout]
				if btc.ScriptID(out.PkScript, c.cfg.Network) != address {
					continue
				}
				op := btc.OutPoint{TxID: txid, Vout: uint32(vout)}
				present[op] = utxo.UTXO{
					OutPoint: op,
					Value:    out.Value,
					PkScript: out.PkScript,
					Height:   node.Height,
				}
				view.unstable[op] = true
			}
		}
	}
	view.utxos = make([]utxo.UTXO, 0, len(present))
	for _, u := range present {
		view.utxos = append(view.utxos, u)
	}
	utxo.SortUTXOs(view.utxos)
	return view, tip, nil
}
