package canister

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/ic"
	"icbtc/internal/ingest"
	"icbtc/internal/statecodec"
	"icbtc/internal/utxo"
)

// The per-block delta stream: the feed that keeps read replicas fresh.
//
// A canister with a stream sink installed publishes one Frame per processed
// payload, carrying exactly the mutations Algorithm 2 *accepted*, in
// application order: blocks attached to the header tree (with their wire
// bytes and the address-indexed BlockDelta the payload built for them),
// upcoming headers, and anchor advances. Rejected blocks and headers never
// appear — a consumer needs no validation logic, it replays decisions.
//
// A replica hydrated from a Snapshot at frame S and fed frames S+1.. holds,
// after each frame, a state that answers every read endpoint byte-for-byte
// identically to the authoritative canister at that frame (the differential
// harness in internal/difftest enforces this across random lags, reorgs,
// and mid-workload re-hydrations). Frames are self-contained byte strings
// (statecodec framing, versioned and checksummed), so they can cross a
// process boundary, and decoding shares nothing with the producer. Replicas
// of one fleet share one decode of each frame: nothing applying a frame
// writes to it. The parsed block is sealed (its txid and Merkle memos sit
// behind sync.Once), a decoded delta is only read, and each replica wraps
// the block in a storedBlock of its own, so its fee price column is its own.

const (
	// frameMagic brands delta-stream frames.
	frameMagic = "icbtc/delta-frame\n"
	// FrameVersion is the current frame format version. Version 2 added the
	// adapter health report after the anchor height.
	FrameVersion uint16 = 2

	// maxFrameEvents bounds the per-frame event count a decoder accepts.
	maxFrameEvents = 1 << 20
)

// StreamEventKind discriminates stream events.
type StreamEventKind uint8

// Stream event kinds, in the order Algorithm 2 produces them.
const (
	// EventBlockAttached: a validated block joined the header tree; carries
	// the header, the block's wire bytes, and its BlockDelta.
	EventBlockAttached StreamEventKind = iota + 1
	// EventHeaderAttached: a validated upcoming header joined the tree.
	EventHeaderAttached
	// EventAnchorAdvanced: the block identified by Hash became δ-stable and
	// was folded into U; the tree re-rooted at it.
	EventAnchorAdvanced
)

// StreamEvent is one accepted mutation.
type StreamEvent struct {
	Kind StreamEventKind
	// Header is set for EventBlockAttached and EventHeaderAttached.
	Header btc.BlockHeader
	// RawBlock is the block's wire bytes (EventBlockAttached); on the
	// producer's side they may be the stored block's own, so they are read,
	// never written.
	RawBlock []byte
	// Delta is the block's address-indexed delta (EventBlockAttached),
	// computed once by the authoritative canister so replicas skip the
	// owner-resolution pass entirely. A block the same payload folds or
	// prunes is never read, so its delta is the created column alone, with
	// no spend resolved.
	Delta *utxo.BlockDelta
	// Hash identifies the stabilized block (EventAnchorAdvanced).
	Hash btc.Hash

	// block caches the parsed RawBlock when Frame.Prepare ran; ApplyFrame
	// uses it instead of re-parsing. Never serialized.
	block *btc.Block
}

// Frame is the batch of events one processed payload produced, plus the
// authoritative chain position after it — what staleness bounds are
// measured against.
type Frame struct {
	// Seq is the frame's position in the stream (assigned by the
	// distributor; 0 while unassigned).
	Seq uint64
	// TipHeight/AnchorHeight are the authoritative canister's considered
	// tip and anchor after applying this frame.
	TipHeight    int64
	AnchorHeight int64
	// Health is the adapter self-report the authoritative canister held
	// after this frame's payload — how replicas learn the chain feed is
	// degraded (and annotate their answers) without seeing payloads.
	Health adapter.Health
	Events []StreamEvent
}

// SetStreamSink installs (or, with nil, removes) the frame consumer. The
// sink is invoked synchronously at the end of every ProcessPayload that
// accepted at least one mutation, while the bucket half of the payload's
// folds may still trail. Encoding the frame and enqueuing it, as the fleet's
// Feed does, reads no bucket and so runs beside it; a balance, page or
// snapshot the sink asks for waits until the index has caught up.
func (c *BitcoinCanister) SetStreamSink(fn func(*Frame)) { c.stream = fn }

// emit buffers one event for the current payload's frame. No-op without a
// sink, so the authoritative canister pays nothing when no fleet listens.
func (c *BitcoinCanister) emit(ev StreamEvent) {
	if c.stream != nil {
		c.events = append(c.events, ev)
	}
}

// flushFrame hands the accumulated events of one payload to the sink. A
// payload that accepted nothing still produces a frame when the adapter's
// health report changed — degradation (and recovery) must reach replicas
// even when no chain data flows, which is exactly when it matters.
func (c *BitcoinCanister) flushFrame() {
	if c.stream == nil {
		c.events = nil
		return
	}
	if len(c.events) == 0 && c.adapterHealth == c.lastSentHealth {
		return
	}
	f := &Frame{
		TipHeight:    c.tipNode().Height,
		AnchorHeight: c.tree.Root().Height,
		Health:       c.adapterHealth,
		Events:       c.events,
	}
	c.events = nil
	c.lastSentHealth = c.adapterHealth
	c.met.framesPublished.Inc()
	c.stream(f)
}

// EncodeFrame serializes a frame deterministically, into a buffer sized up
// front for every event — a block event's delta outweighs its wire bytes, so
// sizing for the block alone regrew the buffer mid-delta.
func EncodeFrame(f *Frame) []byte {
	hint := 64 // sequence, chain position and health
	for i := range f.Events {
		ev := &f.Events[i]
		hint += 1 + btc.BlockHeaderSize // kind, then a header or a hash
		if ev.Kind == EventBlockAttached {
			hint += binary.MaxVarintLen64 + len(ev.RawBlock) + utxo.EncodedBlockDeltaSize(ev.Delta)
		}
	}
	e := statecodec.NewEncoder(frameMagic, FrameVersion, hint)
	e.U64(f.Seq)
	e.I64(f.TipHeight)
	e.I64(f.AnchorHeight)
	e.U8(uint8(f.Health.State))
	e.I64(f.Health.Height)
	e.Uvarint(uint64(f.Health.PendingBlocks))
	e.Uvarint(uint64(f.Health.Peers))
	e.Uvarint(uint64(len(f.Events)))
	for i := range f.Events {
		ev := &f.Events[i]
		e.U8(uint8(ev.Kind))
		switch ev.Kind {
		case EventBlockAttached:
			encodeHeader(e, &ev.Header)
			e.Bytes(ev.RawBlock)
			utxo.EncodeBlockDelta(e, ev.Delta)
		case EventHeaderAttached:
			encodeHeader(e, &ev.Header)
		case EventAnchorAdvanced:
			e.Raw(ev.Hash[:])
		}
	}
	return e.Finish()
}

// DecodeFrame parses a frame produced by EncodeFrame. The returned frame
// shares nothing with the producer's state: blocks arrive as wire bytes
// (parsed by the consumer) and deltas are decoded into columns of their own.
// Once prepared, the frame may be applied by any number of replicas, one
// after another or at once: ApplyFrame reads it and writes nothing in it.
func DecodeFrame(data []byte) (*Frame, error) {
	d, err := statecodec.NewDecoder(data, frameMagic, FrameVersion)
	if err != nil {
		return nil, fmt.Errorf("canister: frame: %w", err)
	}
	f := &Frame{
		Seq:          d.U64(),
		TipHeight:    d.I64(),
		AnchorHeight: d.I64(),
	}
	f.Health.State = adapter.State(d.U8())
	f.Health.Height = d.I64()
	f.Health.PendingBlocks = int(d.Uvarint())
	f.Health.Peers = int(d.Uvarint())
	n := d.CountFor(maxFrameEvents, 1)
	for i := 0; i < n; i++ {
		var ev StreamEvent
		ev.Kind = StreamEventKind(d.U8())
		switch ev.Kind {
		case EventBlockAttached:
			ev.Header = decodeHeader(d)
			raw := d.Bytes(maxBlockWireBytes)
			ev.RawBlock = append([]byte(nil), raw...)
			if d.Err() != nil {
				return nil, fmt.Errorf("canister: frame event %d: %w", i, d.Err())
			}
			delta, err := utxo.DecodeBlockDelta(d)
			if err != nil {
				return nil, fmt.Errorf("canister: frame event %d delta: %w", i, err)
			}
			ev.Delta = delta
		case EventHeaderAttached:
			ev.Header = decodeHeader(d)
		case EventAnchorAdvanced:
			copy(ev.Hash[:], d.Raw(btc.HashSize))
		default:
			return nil, fmt.Errorf("canister: frame event %d: unknown kind %d", i, ev.Kind)
		}
		if d.Err() != nil {
			return nil, fmt.Errorf("canister: frame event %d: %w", i, d.Err())
		}
		f.Events = append(f.Events, ev)
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("canister: frame: %w", err)
	}
	return f, nil
}

// ErrFrameOutOfOrder reports a frame that does not apply to the replica's
// current state (a gap or reordering in the stream).
var ErrFrameOutOfOrder = errors.New("canister: stream frame does not apply to current state")

// Prepare runs the frame's CPU-bound work ahead of ApplyFrame: every block
// event's wire bytes are parsed (zero-copy, txid memos sealed off the
// spans) on the pipeline, so frame application under the replica's write
// lock is left with pure state mutation. A parse failure is deferred —
// ApplyFrame re-parses and reports it at the failing event, exactly as the
// unprepared path would. Prepare is idempotent; the parsed blocks alias
// the frame's RawBlock bytes.
func (f *Frame) Prepare(cfg ingest.Config) {
	var blockEvents []int
	for i := range f.Events {
		if f.Events[i].Kind == EventBlockAttached && f.Events[i].block == nil {
			blockEvents = append(blockEvents, i)
		}
	}
	if len(blockEvents) == 0 {
		return
	}
	_ = ingest.Map(len(blockEvents), cfg,
		func(_, j int) *btc.Block {
			b, err := btc.ParseBlockFast(f.Events[blockEvents[j]].RawBlock)
			if err != nil {
				return nil // ApplyFrame re-parses and surfaces the error
			}
			return b
		},
		func(j int, b *btc.Block) error {
			f.Events[blockEvents[j]].block = b
			return nil
		})
}

// ApplyFrame replays one frame's accepted mutations on a replica canister.
// The replica performs no re-validation (the authoritative canister already
// validated everything it accepted) and rebuilds derived state exactly as
// a processed payload would, ending with the query caches warmed so
// concurrent readers never race on lazy initialization.
//
// ApplyFrame must be called with frames in stream order, without gaps,
// starting from the state the replica was hydrated at. It is NOT safe for
// concurrent use with queries; the caller (the fleet replica) serializes
// frame application behind its write lock.
func (c *BitcoinCanister) ApplyFrame(f *Frame) error {
	start := c.met.reg.Now()
	ctx := ic.NewCallContext(ic.KindUpdate, time0)
	for i := range f.Events {
		ev := &f.Events[i]
		switch ev.Kind {
		case EventHeaderAttached:
			if err := c.applyHeaderEvent(ev); err != nil {
				c.met.applyErrors.Inc()
				return err
			}
		case EventBlockAttached:
			if err := c.applyBlockEvent(ev); err != nil {
				c.met.applyErrors.Inc()
				return err
			}
		case EventAnchorAdvanced:
			if err := c.applyAnchorEvent(ctx, ev); err != nil {
				c.met.applyErrors.Inc()
				return err
			}
		default:
			c.met.applyErrors.Inc()
			return fmt.Errorf("canister: apply frame: unknown event kind %d", ev.Kind)
		}
	}
	c.adapterHealth = f.Health
	c.lastSentHealth = f.Health
	c.updateSynced()
	c.WarmQueryState()
	c.met.framesApplied.Inc()
	c.met.frameApplyNanos.ObserveDuration(c.met.reg.Now().Sub(start))
	return nil
}

// applyHeaderEvent inserts an accepted upcoming header.
func (c *BitcoinCanister) applyHeaderEvent(ev *StreamEvent) error {
	hash := ev.Header.BlockHash()
	if c.tree.Contains(hash) {
		return nil // also emitted by the block path; attach is idempotent
	}
	if _, err := c.tree.Insert(ev.Header); err != nil {
		return fmt.Errorf("%w: header %s: %v", ErrFrameOutOfOrder, hash, err)
	}
	c.invalidateChain()
	c.invalidateReadCaches()
	return nil
}

// applyBlockEvent attaches an accepted block with its precomputed delta.
func (c *BitcoinCanister) applyBlockEvent(ev *StreamEvent) error {
	hash := ev.Header.BlockHash()
	if c.blocks[hash] != nil {
		return nil // duplicate delivery is harmless, as on the write path
	}
	block := ev.block // parsed ahead by Frame.Prepare, when it ran
	if block == nil {
		var err error
		block, err = btc.ParseBlock(ev.RawBlock)
		if err != nil {
			return fmt.Errorf("canister: apply frame: block %s: %w", hash, err)
		}
	}
	if block.BlockHash() != hash {
		return fmt.Errorf("canister: apply frame: block bytes do not match header %s", hash)
	}
	if !c.tree.Contains(hash) {
		if _, err := c.tree.Insert(ev.Header); err != nil {
			return fmt.Errorf("%w: block header %s: %v", ErrFrameOutOfOrder, hash, err)
		}
	}
	node := c.tree.Get(hash)
	if ev.Delta == nil || ev.Delta.Height() != node.Height {
		return fmt.Errorf("canister: apply frame: block %s delta height mismatch", hash)
	}
	// Warm the block's txid memo now, under the appliers' exclusive lock:
	// fee-percentile queries walk transactions concurrently later.
	block.TxIDs()
	c.storeBlock(node, block)
	node.SetAux(ev.Delta)
	c.ingestedBlocks++
	c.met.blocksIngested.Inc()
	c.invalidateChain()
	c.invalidateReadCaches()
	return nil
}

// applyAnchorEvent re-executes an anchor advance the authoritative
// canister performed.
func (c *BitcoinCanister) applyAnchorEvent(ctx *ic.CallContext, ev *StreamEvent) error {
	node := c.tree.Get(ev.Hash)
	if node == nil {
		return fmt.Errorf("%w: anchor %s not in tree", ErrFrameOutOfOrder, ev.Hash)
	}
	if node.Height != c.tree.Root().Height+1 {
		return fmt.Errorf("%w: anchor %s at height %d, root at %d",
			ErrFrameOutOfOrder, ev.Hash, node.Height, c.tree.Root().Height)
	}
	if c.blocks[node.Hash] == nil {
		return fmt.Errorf("%w: anchor %s has no stored block", ErrFrameOutOfOrder, ev.Hash)
	}
	return c.stabilizeNode(ctx, node)
}

// WarmQueryState materializes every lazily computed structure queries
// touch — the cached current chain and the per-block txid memos — so that
// concurrent read-only queries (the fleet replica's serving mode) perform
// no writes outside the queryMu-guarded caches and the per-block fee price
// columns, which the first rescan to read a block builds under its
// sync.Once: off the write lock, and only on a replica asked for fees.
// Called automatically at the end of ApplyFrame; call it once after
// RestoreSnapshot when hydrating a replica.
func (c *BitcoinCanister) WarmQueryState() {
	c.currentChain()
	for _, b := range c.blocks {
		b.TxIDs()
	}
}

// StreamPosition reports the canister's current chain position in frame
// terms (the values a frame would carry), for hydration bookkeeping.
func (c *BitcoinCanister) StreamPosition() (tipHeight, anchorHeight int64) {
	return c.tipNode().Height, c.tree.Root().Height
}

// time0 is the zero time used for replica-side frame application: replayed
// mutations were already validated against real timestamps by the
// authoritative canister, and nothing in the apply path reads the clock.
var time0 time.Time
