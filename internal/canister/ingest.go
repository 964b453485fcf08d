package canister

import (
	"fmt"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/ic"
	"icbtc/internal/ingest"
)

// The canister's write path: one skeleton, ingestBatch, owns Algorithm 2
// from payload timer to frame flush, and every entry point — ProcessPayload,
// ProcessPayloadPipelined, SyncWire — is a thin source of blocks for it.
// The CPU-bound per-block work (wire decode, txid/Merkle double-hashing,
// script-ID derivation, delta prebuild) runs through internal/ingest over a
// bounded prefetch window: on cfg.Workers goroutines, or at Workers <= 1
// interleaved on the calling goroutine. Algorithm 2's state mutation (header
// validation against the tree, attach, anchor advance, stable fold) is
// strictly sequential on the calling goroutine either way; only the stable
// folds' bucket writes may trail, in block order, on one more goroutine
// (utxo.Set.FoldSession). So accept/reject decisions, counters, metrics,
// stream frames and the resulting state are byte-identical at every worker
// count; internal/difftest randomizes workers and windows against the
// one-worker run to enforce exactly that.

// SyncStats summarizes one ingested batch.
type SyncStats struct {
	// Accepted counts blocks attached to the tree; Rejected counts blocks
	// refused (validation failure, unavailable predecessor, undecodable
	// wire bytes).
	Accepted, Rejected int
}

// batch is one payload's worth of input to ingestBatch, abstracted over
// where its blocks come from: the parsed blocks of an adapter response, or
// wire bytes.
type batch struct {
	// health is the adapter self-report the payload carries.
	health adapter.Health
	// blocks is the number of block entries.
	blocks int
	// header returns entry i's header; false when it does not decode, in
	// which case prepare yields no block for the entry either.
	header func(i int) (btc.BlockHeader, bool)
	// prepare runs entry i's state-independent prework on a pipeline
	// worker. A result without a Block is a reject.
	prepare func(prep *ingest.Preparer, worker, i int, height int64) ingest.PreparedBlock
	// next is the upcoming headers appended after the blocks.
	next []btc.BlockHeader
}

// predictHeights reads every entry's header and computes the height its
// block would attach at: parent already in the tree → parent height + 1,
// parent earlier in the batch → its predicted height + 1, unknown parent or
// undecodable header → -1 (the sequential applier rejects the entry before
// needing a delta). Tree heights are immutable once a node is inserted, so
// predictions made before the pipeline starts stay correct for every block
// that is actually accepted.
func (c *BitcoinCanister) predictHeights(b batch) ([]btc.BlockHeader, []int64) {
	headers := make([]btc.BlockHeader, b.blocks)
	heights := make([]int64, b.blocks)
	inBatch := make(map[btc.Hash]int64, b.blocks)
	for i := range headers {
		heights[i] = -1
		hdr, ok := b.header(i)
		if !ok {
			continue
		}
		headers[i] = hdr
		if ph, ok := inBatch[hdr.PrevBlock]; ok && ph >= 0 {
			heights[i] = ph + 1
		} else if node := c.tree.Get(hdr.PrevBlock); node != nil {
			heights[i] = node.Height + 1
		}
		hash := hdr.BlockHash()
		if _, dup := inBatch[hash]; !dup {
			inBatch[hash] = heights[i]
		}
	}
	return headers, heights
}

// ingestBatch applies Algorithm 2 to one batch — the single body behind
// every write-path entry point, so all of them age the outbound queue,
// invalidate the read caches, count rejects (state field and obs counter
// together), advance the anchor, publish the frame and record the payload
// metrics the same way.
func (c *BitcoinCanister) ingestBatch(ctx *ic.CallContext, cfg ingest.Config, b batch) SyncStats {
	start := c.met.reg.Now()
	defer func() {
		c.met.payloads.Inc()
		d := c.met.reg.Now().Sub(start)
		c.met.payloadDuration.ObserveDuration(d)
		if tr := c.met.reg.Tracer(); tr.Enabled() {
			tr.Emit("canister.payload", d.String())
		}
	}()
	if cfg.Obs == nil {
		cfg.Obs = c.met.reg // pipeline stages land in the canister registry
	}
	c.ageOutgoing()
	c.adapterHealth = b.health
	// Anything in the payload can change the considered chain (new blocks,
	// upcoming headers shifting the tip, an anchor advance), so drop the
	// memoized balances and fee percentiles up front; they are cheap to
	// rebuild from deltas.
	if b.blocks > 0 || len(b.next) > 0 {
		c.invalidateReadCaches()
	}

	// Lines 1-15: validate and attach each (b, β), then advance the anchor
	// while the next block is δ-stable.
	var stats SyncStats
	if b.blocks > 0 {
		headers, heights := c.predictHeights(b)
		prep := ingest.NewPreparer(c.scriptIDs, cfg.NormalizedWorkers())
		run := func() {
			// The consumer never errors, so neither does Map.
			_ = ingest.Map(b.blocks, cfg,
				func(worker, i int) ingest.PreparedBlock { return b.prepare(prep, worker, i, heights[i]) },
				func(i int, pb ingest.PreparedBlock) error {
					bw := adapter.BlockWithHeader{Block: pb.Block, Header: headers[i]}
					if err := c.acceptBlock(ctx, bw, pb.Delta); err != nil {
						stats.Rejected++
						c.rejectedBlocks++
						c.met.blocksRejected.Inc()
						return nil
					}
					stats.Accepted++
					c.advanceAnchor(ctx)
					return nil
				})
		}
		// Like Map, the stable folds overlap only given a second worker and
		// more than one block: each fold's address-index half then trails on
		// the session's goroutine. Nothing in the batch reads the index — the
		// one stable-set read, resolveOwner's Lookup, is the table's.
		if b.blocks > 1 && cfg.NormalizedWorkers() > 1 {
			c.stable.FoldSession(run)
		} else {
			run()
		}
	}
	// Lines 16-20: append validated upcoming headers.
	for i := range b.next {
		if err := c.acceptHeader(ctx, b.next[i]); err != nil {
			c.rejectedHeaders++
			c.met.headersRejected.Inc()
		}
	}
	// Lines 21-22: recompute the synced flag.
	c.updateSynced()
	c.flushFrame()
	return stats
}

// ProcessPayload implements ic.PayloadProcessor: it applies Algorithm 2 to
// an adapter response contained in a finalized IC block, preparing each
// block on the calling goroutine.
func (c *BitcoinCanister) ProcessPayload(ctx *ic.CallContext, payload any) error {
	return c.ProcessPayloadPipelined(ctx, payload, ingest.Config{})
}

// ProcessPayloadPipelined is ProcessPayload with the per-block CPU work
// fanned out across cfg.Workers: behaviorally identical (same accept and
// reject decisions, same metering, same metrics, same stream frames, same
// state) for any worker count.
func (c *BitcoinCanister) ProcessPayloadPipelined(ctx *ic.CallContext, payload any, cfg ingest.Config) error {
	resp, ok := payload.(adapter.Response)
	if !ok {
		return fmt.Errorf("canister: unexpected payload type %T", payload)
	}
	c.ingestBatch(ctx, cfg, batch{
		health: resp.Health,
		blocks: len(resp.Blocks),
		header: func(i int) (btc.BlockHeader, bool) { return resp.Blocks[i].Header, true },
		prepare: func(prep *ingest.Preparer, worker, i int, height int64) ingest.PreparedBlock {
			if resp.Blocks[i].Block == nil {
				return ingest.PreparedBlock{} // acceptBlock rejects it
			}
			return prep.Prepare(worker, resp.Blocks[i].Block, height)
		},
		next: resp.Next,
	})
	return nil
}

// SyncWire ingests a batch of wire-encoded blocks — the catch-up path for a
// canister (or a bootstrapping replica) that is many blocks behind: the
// pipeline decodes, hashes, and prebuilds deltas over the prefetch window;
// the applier attaches and folds sequentially. The final state is
// byte-identical to parsing each block and feeding it through
// ProcessPayload. Undecodable entries count as rejected blocks.
func (c *BitcoinCanister) SyncWire(ctx *ic.CallContext, wire [][]byte, cfg ingest.Config) (SyncStats, error) {
	if len(wire) == 0 {
		return SyncStats{}, nil
	}
	stats := c.ingestBatch(ctx, cfg, batch{
		health: c.adapterHealth, // wire bytes carry no self-report
		blocks: len(wire),
		// Height prediction needs only the 80-byte header; parsing it up
		// front is cheap.
		header: func(i int) (btc.BlockHeader, bool) {
			if len(wire[i]) < btc.BlockHeaderSize {
				return btc.BlockHeader{}, false
			}
			hdr, err := btc.ParseBlockHeader(wire[i][:btc.BlockHeaderSize])
			if err != nil {
				return btc.BlockHeader{}, false
			}
			return *hdr, true
		},
		prepare: func(prep *ingest.Preparer, worker, i int, height int64) ingest.PreparedBlock {
			return prep.PrepareWire(worker, wire[i], height)
		},
	})
	return stats, nil
}
