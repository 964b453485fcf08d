package canister

import (
	"fmt"
	"sort"

	"icbtc/internal/btc"
	"icbtc/internal/ic"
)

// get_current_fee_percentiles: the production Bitcoin canister's companion
// endpoint (the paper's "API contains several additional functions"). It
// reports the fee-rate distribution, in millisatoshi per byte, over the
// transactions in the unstable blocks of the current chain — the most
// recent traffic the canister can price fees from.

// FeePercentilesCount is the number of percentiles returned (0..100).
const FeePercentilesCount = 101

// feeCacheEntry memoizes one computed percentile vector. The percentiles
// are a pure function of the unstable suffix of the current chain, which
// changes identity exactly when the tip hash or the anchor height moves —
// the key; every tree mutation additionally clears the entry outright
// (invalidateReadCaches), so the key is belt and braces.
type feeCacheEntry struct {
	valid       bool
	tip         btc.Hash
	anchor      int64
	percentiles []int64
}

// GetCurrentFeePercentiles computes the 101 fee-rate percentiles over
// recent transactions. Transactions whose inputs cannot be resolved
// against the canister's view (alien inputs the canister never tracked)
// are skipped, mirroring the production canister's best-effort fee index.
//
// The result is memoized per (tip, anchor) for query executions and
// invalidated on every tree change, so repeated fee quotes between blocks
// stop rescanning every unstable block and re-resolving every input. An
// update execution always recomputes — which also makes it the uncached
// reference the differential harness checks the cached answers against.
func (c *BitcoinCanister) GetCurrentFeePercentiles(ctx *ic.CallContext) ([]int64, error) {
	ctx.Meter.Charge(ic.CostRequestBase, "request_base")
	if !c.synced {
		return nil, ErrNotSynced
	}
	useCache := ctx.Kind == ic.KindQuery
	tip := c.tipNode().Hash
	anchor := c.tree.Root().Height
	if useCache {
		c.queryMu.Lock()
		e := c.feeCache
		c.queryMu.Unlock()
		if e.valid && e.tip == tip && e.anchor == anchor {
			ctx.Meter.Charge(ic.CostFeeCacheHit, "fee_cache_hit")
			out := make([]int64, len(e.percentiles))
			copy(out, e.percentiles)
			return out, nil
		}
	}
	percentiles := c.computeFeePercentiles(ctx)
	if useCache {
		stored := make([]int64, len(percentiles))
		copy(stored, percentiles)
		c.queryMu.Lock()
		c.feeCache = feeCacheEntry{valid: true, tip: tip, anchor: anchor, percentiles: stored}
		c.queryMu.Unlock()
	}
	return percentiles, nil
}

// computeFeePercentiles is the uncached percentile computation: rescan the
// unstable blocks of the current chain, resolve every input, price every
// transaction.
func (c *BitcoinCanister) computeFeePercentiles(ctx *ic.CallContext) []int64 {
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
		return percentiles
	}
	sort.Slice(rates, func(i, j int) bool { return rates[i] < rates[j] })
	for p := 0; p < FeePercentilesCount; p++ {
		idx := p * (len(rates) - 1) / 100
		percentiles[p] = rates[idx]
	}
	return percentiles
}

// GetBlockHeadersArgs selects a height range for get_block_headers (the
// production canister's header endpoint). EndHeight 0 means "to the tip".
type GetBlockHeadersArgs struct {
	StartHeight int64
	EndHeight   int64
}

// GetBlockHeadersResult carries the headers of the current chain in the
// requested range plus the tip height, letting light clients verify chain
// state against the canister's certified responses.
type GetBlockHeadersResult struct {
	Headers   []btc.BlockHeader
	TipHeight int64
}

// GetBlockHeaders serves headers along the current chain. Heights below
// the anchor are served from the stable-header history; heights above it
// from the unstable tree.
func (c *BitcoinCanister) GetBlockHeaders(ctx *ic.CallContext, args GetBlockHeadersArgs) (*GetBlockHeadersResult, error) {
	ctx.Meter.Charge(ic.CostRequestBase, "request_base")
	if !c.synced {
		return nil, ErrNotSynced
	}
	tip := c.tipNode()
	end := args.EndHeight
	if end <= 0 || end > tip.Height {
		end = tip.Height
	}
	if args.StartHeight < 0 || args.StartHeight > end {
		return nil, fmt.Errorf("canister: bad header range [%d,%d]", args.StartHeight, end)
	}
	res := &GetBlockHeadersResult{TipHeight: tip.Height}
	anchorHeight := c.tree.Root().Height
	// Stable part: stableHeaders[i] is the anchor at height i (genesis = 0).
	for h := args.StartHeight; h <= end && h < anchorHeight; h++ {
		if h < int64(len(c.stableHeaders)) {
			ctx.Meter.Charge(ic.CostPerHeaderValidation, "serve_headers")
			res.Headers = append(res.Headers, c.stableHeaders[h])
		}
	}
	// Unstable part: walk the current chain.
	for _, n := range c.currentChain() {
		if n.Height >= args.StartHeight && n.Height <= end {
			ctx.Meter.Charge(ic.CostPerHeaderValidation, "serve_headers")
			res.Headers = append(res.Headers, n.Header)
		}
	}
	return res, nil
}
