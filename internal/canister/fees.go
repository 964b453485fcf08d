package canister

import (
	"fmt"
	"slices"
	"sync"

	"icbtc/internal/btc"
	"icbtc/internal/ic"
	"icbtc/internal/utxo"
)

// get_current_fee_percentiles: the production Bitcoin canister's companion
// endpoint (the paper's "API contains several additional functions"). It
// reports the fee-rate distribution, in millisatoshi per byte, over the
// transactions in the unstable blocks of the current chain — the most
// recent traffic the canister can price fees from.

// FeePercentilesCount is the number of percentiles returned (0..100).
const FeePercentilesCount = 101

// GetCurrentFeePercentiles computes the 101 fee-rate percentiles over
// recent transactions. Transactions whose inputs cannot be resolved
// against the canister's view (alien inputs the canister never tracked)
// are skipped, mirroring the production canister's best-effort fee index.
//
// A query's result is kept in the read memo (readMemos.fees), which every
// tree mutation empties, so repeated fee quotes between blocks stop
// rescanning every unstable block and re-resolving every input. An update
// execution always recomputes; ReplayFeePercentiles is the reference the
// differential harness checks both against.
func (c *BitcoinCanister) GetCurrentFeePercentiles(ctx *ic.CallContext) ([]int64, error) {
	ctx.Meter.Charge(ic.CostRequestBase, "request_base")
	if !c.synced {
		return nil, ErrNotSynced
	}
	query := ctx.Kind == ic.KindQuery
	if query {
		c.queryMu.Lock()
		fees := c.reads.fees
		c.queryMu.Unlock()
		if fees != nil {
			ctx.Meter.Charge(ic.CostFeeCacheHit, "fee_cache_hit")
			return slices.Clone(fees), nil
		}
	}
	percentiles := c.computeFeePercentiles(ctx)
	if query {
		c.queryMu.Lock()
		c.reads.fees = slices.Clone(percentiles)
		c.queryMu.Unlock()
	}
	return percentiles, nil
}

// computeFeePercentiles is the uncached percentile computation: rescan the
// unstable blocks of the current chain, resolve every input, price every
// transaction. ReplayFeePercentiles is its oracle: same answer, same metering.
func (c *BitcoinCanister) computeFeePercentiles(ctx *ic.CallContext) []int64 {
	nodes := c.currentChain()[1:]
	suffix := make([]*storedBlock, 0, len(nodes))
	txs := 0
	for _, node := range nodes {
		ctx.Meter.Charge(ic.CostPerUnstableBlockScan, "scan_unstable")
		if b := c.blocks[node.Hash]; b != nil {
			suffix = append(suffix, b)
			txs += len(b.Transactions)
		}
	}
	rates := feeRates(suffix, txs, c.stable)
	ctx.Meter.Charge(uint64(len(rates))*ic.CostPerUTXOUnstable, "fee_index")
	percentiles := make([]int64, FeePercentilesCount)
	if len(rates) == 0 {
		return percentiles
	}
	slices.Sort(rates)
	for p := range percentiles {
		percentiles[p] = rates[p*(len(rates)-1)/100]
	}
	return percentiles
}

// storedBlock is one unstable block as the canister holds it: the block, and
// what pricing its transactions needs beside their inputs — built by the
// first fee rescan that reads the block and kept as long as the block is, so
// a rescan after the next block prices only that block afresh.
type storedBlock struct {
	*btc.Block
	pricesOnce sync.Once
	priced     []txPrice
}

// txPrice is one transaction's output total and serialized size.
type txPrice struct {
	outValue, size int64
}

// prices returns the block's txPrice column, building it on first use. Safe
// for the concurrent queries of a replica.
func (b *storedBlock) prices() []txPrice {
	b.pricesOnce.Do(func() {
		prices := make([]txPrice, len(b.Transactions))
		for i, tx := range b.Transactions {
			for j := range tx.Outputs {
				prices[i].outValue += tx.Outputs[j].Value
			}
			prices[i].size = int64(tx.SerializedSize())
		}
		b.priced = prices
	})
	return b.priced
}

// feeRates prices, in chain order, every transaction of the suffix's blocks
// whose inputs all resolve and whose outputs do not exceed them, in
// millisatoshi per byte. An input resolves to an output created earlier in the
// suffix — or by the spending transaction itself — before the stable set; an
// input neither knows (an alien input the canister never tracked) leaves its
// transaction unpriced. txs is the blocks' transaction count.
func feeRates(suffix []*storedBlock, txs int, stable *utxo.Set) []int64 {
	ix := newTxIndex(txs)
	rates := make([]int64, 0, txs)
	for bi, b := range suffix {
		ids, prices := b.TxIDs(), b.prices()
		for ti, tx := range b.Transactions {
			ix.add(&ids[ti], txRef{block: uint32(bi), tx: uint32(ti)})
			if tx.IsCoinbase() {
				continue
			}
			var in int64
			resolved := true
			for i := range tx.Inputs {
				op := &tx.Inputs[i].PreviousOutPoint
				v, ok := ix.output(suffix, op)
				if !ok {
					v, ok = stable.Value(*op)
				}
				if !ok {
					resolved = false
					break
				}
				in += v
			}
			// A negative fee is unpriceable: the canister does not validate
			// spends.
			if p := prices[ti]; resolved && in-p.outValue >= 0 && p.size > 0 {
				rates = append(rates, (in-p.outValue)*1000/p.size)
			}
		}
	}
	return rates
}

// txIndex resolves a txid to the suffix transactions carrying it. It is
// utxo's word format — tag<<32 | ref+1, zero when empty, linear probing at
// no more than half load, the tag utxo.TagOutPoint's — over transactions
// rather than outputs, presized for the suffix so it never grows, and never
// deleted from. A txid added twice keeps both words, the later one further
// along the probe run than the earlier, so a probe meets a txid's
// transactions in chain order and only what was added before it.
type txIndex struct {
	words []uint64
	refs  []txRef
}

// txRef names a transaction by its block's position in the suffix and its
// own in the block.
type txRef struct{ block, tx uint32 }

func newTxIndex(n int) txIndex {
	slots := 8
	for slots < 2*n {
		slots *= 2
	}
	return txIndex{words: make([]uint64, slots), refs: make([]txRef, 0, n)}
}

func txTag(id *btc.Hash) uint32 { return uint32(utxo.TagOutPoint(&btc.OutPoint{TxID: *id})) }

// add indexes the transaction ref, whose txid is id.
func (ix *txIndex) add(id *btc.Hash, ref txRef) {
	tag := txTag(id)
	mask := uint32(len(ix.words) - 1)
	i := tag & mask
	for ix.words[i] != 0 {
		i = (i + 1) & mask
	}
	ix.refs = append(ix.refs, ref)
	ix.words[i] = uint64(tag)<<32 | uint64(len(ix.refs))
}

// output returns the value of the output op names as the indexed suffix
// created it: that of the latest indexed transaction with op's txid that has
// an output op.Vout. A transaction repeated with fewer outputs overrides only
// the ones it has.
func (ix *txIndex) output(suffix []*storedBlock, op *btc.OutPoint) (value int64, ok bool) {
	tag := txTag(&op.TxID)
	mask := uint32(len(ix.words) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		w := ix.words[i]
		if w == 0 {
			return value, ok
		}
		if uint32(w>>32) != tag {
			continue
		}
		r := ix.refs[uint32(w)-1]
		b := suffix[r.block]
		if b.TxIDs()[r.tx] != op.TxID {
			continue
		}
		if outs := b.Transactions[r.tx].Outputs; op.Vout < uint32(len(outs)) {
			value, ok = outs[op.Vout].Value, true
		}
	}
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
