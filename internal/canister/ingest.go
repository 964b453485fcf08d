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
// The CPU-bound per-block work (wire decode, txid/Merkle double-hashing)
// runs through internal/ingest over a bounded prefetch window: on
// cfg.Workers goroutines, or at Workers <= 1 interleaved on the calling
// goroutine. Algorithm 2's state mutation (header validation against the
// tree, attach, anchor advance, stable fold) is strictly sequential on the
// calling goroutine either way. Only each stable fold's bucket half trails,
// in block order, on a goroutine of its own (see package utxo) until
// something reads a bucket: the delta build, the upcoming headers and the
// frame publication read none, so they run beside it, and the first balance,
// page or snapshot after the payload waits for it.
//
// Deltas come last. A block's delta is read only while the block is above
// the anchor, and catch-up folds most of a payload's blocks before the
// payload ends, so attaching a block builds nothing. When the folds are
// done, buildDeltas builds the deltas of the blocks still unstable, on the
// calling goroutine and in attach order. It resolves each spend against
// what the stable set and the unstable ancestors held when the block
// attached. The stable set's removal log, open for the payload, keeps what
// the folds since then took out.
//
// So accept/reject decisions, counters, metrics, stream frames and the
// resulting state are byte-identical at every worker count;
// internal/difftest randomizes workers and windows against the one-worker
// run to enforce exactly that.

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
	// prepare runs entry i's state-independent prework on a pipeline
	// worker. An entry without a Block is a reject.
	prepare func(i int) adapter.BlockWithHeader
	// next is the upcoming headers appended after the blocks.
	next []btc.BlockHeader
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
	// read memo (overlays and balances) and the fee percentiles up front;
	// they are cheap to rebuild from deltas.
	if b.blocks > 0 || len(b.next) > 0 {
		c.invalidateReadCaches()
	}

	// Lines 1-15: validate and attach each (b, β), then advance the anchor
	// while the next block is δ-stable.
	var stats SyncStats
	if b.blocks > 0 {
		c.stable.OpenRemovalLog()
		// c.pending[oldest:] holds every pending block still above the anchor.
		oldest := 0
		// The consumer never errors, so neither does Map.
		_ = ingest.Map(b.blocks, cfg,
			func(_, i int) adapter.BlockWithHeader { return b.prepare(i) },
			func(_ int, bw adapter.BlockWithHeader) error {
				if err := c.acceptBlock(ctx, bw); err != nil {
					stats.Rejected++
					c.rejectedBlocks++
					c.met.blocksRejected.Inc()
					return nil
				}
				stats.Accepted++
				c.advanceAnchor(ctx)
				// A pending block asks the log only about removals after its
				// own attach, so what precedes the oldest block still above
				// the anchor can go: catch-up keeps about δ blocks' worth.
				for oldest < len(c.pending) && !c.unstable(c.pending[oldest].node) {
					oldest++
				}
				mark := c.stable.RemovalMark()
				if oldest < len(c.pending) {
					mark = c.pending[oldest].since
				}
				c.stable.TrimRemovals(mark)
				return nil
			})
		c.buildDeltas()
		c.stable.CloseRemovalLog()
	}

	// Lines 16-20: append the validated upcoming headers; lines 21-22:
	// recompute the synced flag. Then the payload's frame goes to the sink.
	for i := range b.next {
		if err := c.acceptHeader(ctx, b.next[i]); err != nil {
			c.rejectedHeaders++
			c.met.headersRejected.Inc()
		}
	}
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
		prepare: func(i int) adapter.BlockWithHeader {
			bw := resp.Blocks[i]
			if bw.Block != nil { // a nil block is acceptBlock's to reject
				ingest.Prepare(bw.Block)
			}
			return bw
		},
		next: resp.Next,
	})
	return nil
}

// SyncWire ingests a batch of wire-encoded blocks — the catch-up path for a
// canister (or a bootstrapping replica) that is many blocks behind: the
// pipeline decodes and hashes over the prefetch window; the applier
// attaches and folds sequentially, and builds deltas only for the blocks
// still unstable at the end. The final state is byte-identical to parsing
// each block and feeding it through ProcessPayload. Undecodable entries
// count as rejected blocks.
//
// The blocks are parsed without a copy (ingest.PrepareWire), so each block
// the canister keeps, with its scripts, aliases its wire slice: every slice
// must stay immutable for as long as the canister holds that block, and a
// batch sliced from one buffer keeps the whole buffer live until its last
// block is released.
func (c *BitcoinCanister) SyncWire(ctx *ic.CallContext, wire [][]byte, cfg ingest.Config) (SyncStats, error) {
	if len(wire) == 0 {
		return SyncStats{}, nil
	}
	stats := c.ingestBatch(ctx, cfg, batch{
		health: c.adapterHealth, // wire bytes carry no self-report
		blocks: len(wire),
		prepare: func(i int) adapter.BlockWithHeader {
			block, err := ingest.PrepareWire(wire[i])
			if err != nil {
				return adapter.BlockWithHeader{} // acceptBlock rejects it
			}
			return adapter.BlockWithHeader{Block: block, Header: block.Header}
		},
	})
	return stats, nil
}
