package canister

import (
	"fmt"

	"icbtc/internal/btc"
	"icbtc/internal/chain"
	"icbtc/internal/ingest"
	"icbtc/internal/statecodec"
	"icbtc/internal/utxo"
)

// Snapshot / Restore: the deterministic serialization of the complete
// canister state. The production Bitcoin canister keeps U and T in stable
// memory, which is what lets it survive canister upgrades and lets replicas
// state-sync instead of re-ingesting the chain; Snapshot captures the
// equivalent here — the stable UTXO set (ordered index, running balances,
// and interned script table included), the header tree with its per-node
// unstable deltas and the root's median-time-past window, the unstable
// blocks, the anchor history, pending outbound transactions, and the
// counters — as one versioned, checksummed byte string.
//
// Determinism: two canisters holding identical state produce identical
// snapshots, and encode→decode→encode is byte-stable (the golden-fixture CI
// job pins both properties). Restore is O(snapshot bytes): no ScriptID is
// re-derived, no index bucket re-sorted, no header re-validated — derived
// state (the have list, sync flag, caches) is rebuilt in single passes.

const (
	// snapshotMagic brands canister snapshots; a foreign byte string is
	// rejected before any state is built.
	snapshotMagic = "icbtc/canister-snapshot\n"
	// SnapshotVersion is the current snapshot format version. Any change to
	// the layout below (or to the codecs it composes) must bump this and
	// regenerate the golden fixture — CI fails otherwise.
	SnapshotVersion uint16 = 1
)

// Decode guards for repeated elements.
const (
	maxSnapshotHeaders = 1 << 24
	maxSnapshotBlocks  = 1 << 20
	maxSnapshotTxs     = 1 << 20
	maxBlockWireBytes  = 1 << 25
	maxTxWireBytes     = 1 << 22

	// Minimum encoded sizes for count-vs-remaining-bytes bounds
	// (statecodec.Decoder.CountFor): a header is 80 wire bytes; an outgoing
	// transaction carries at least a length prefix, its txid, and rounds.
	headerWireBytes    = 80
	minOutgoingTxBytes = 1 + btc.HashSize + 8
)

// encodeHeader appends a block header's 80-byte wire form field by field
// (no intermediate buffer, so header-heavy snapshots stay allocation-lean).
func encodeHeader(e *statecodec.Encoder, h *btc.BlockHeader) {
	e.U32(h.Version)
	e.Raw(h.PrevBlock[:])
	e.Raw(h.MerkleRoot[:])
	e.U32(h.Timestamp)
	e.U32(h.Bits)
	e.U32(h.Nonce)
}

// decodeHeader reads a header written by encodeHeader.
func decodeHeader(d *statecodec.Decoder) btc.BlockHeader {
	var h btc.BlockHeader
	h.Version = d.U32()
	copy(h.PrevBlock[:], d.Raw(btc.HashSize))
	copy(h.MerkleRoot[:], d.Raw(btc.HashSize))
	h.Timestamp = d.U32()
	h.Bits = d.U32()
	h.Nonce = d.U32()
	return h
}

// Snapshot serializes the complete canister state deterministically.
func (c *BitcoinCanister) Snapshot() ([]byte, error) {
	start := c.met.reg.Now()
	hint := c.stable.Len()*60 + len(c.blocks)*(2<<10) + len(c.stableHeaders)*80 + 1024
	e := statecodec.NewEncoder(snapshotMagic, SnapshotVersion, hint)

	// Configuration: a restored canister must run the identical state
	// machine (δ, τ, page limit). The byte after it is reserved (it once
	// selected a read path): always written 0, rejected on restore otherwise.
	e.U8(uint8(c.cfg.Network))
	e.I64(c.cfg.StabilityThreshold)
	e.I64(c.cfg.SyncSlack)
	e.I64(int64(c.cfg.PageLimit))
	e.I64(int64(c.cfg.TxRebroadcastRounds))
	e.U8(0)

	// Counters (observability must survive an upgrade, and serializing them
	// keeps a restored canister's snapshot byte-identical to the original's).
	e.I64(int64(c.ingestedBlocks))
	e.I64(int64(c.rejectedBlocks))
	e.I64(int64(c.rejectedHeaders))
	e.I64(c.anchorHeight)
	e.I64(int64(c.applyErrors))

	// Anchor history ("block headers are kept forever").
	e.Uvarint(uint64(len(c.stableHeaders)))
	for i := range c.stableHeaders {
		encodeHeader(e, &c.stableHeaders[i])
	}

	// U, the stable UTXO set.
	c.stable.EncodeTo(e)

	// T, the header tree: the root with its height and median-time-past
	// window (which spans pruned ancestors), then every other node's header
	// in deterministic BFS order — parents always precede children, so
	// restore is a sequence of plain inserts.
	root := c.tree.Root()
	e.I64(root.Height)
	encodeHeader(e, &root.Header)
	win := root.TimestampWindow()
	e.Uvarint(uint64(len(win)))
	for _, ts := range win {
		e.U32(ts)
	}
	var order []*chain.Node
	c.tree.BFSFrom(root, func(n *chain.Node) bool {
		if n != root {
			order = append(order, n)
		}
		return true
	})
	e.Uvarint(uint64(len(order)))
	for _, n := range order {
		encodeHeader(e, &n.Header)
	}
	// Per-node unstable deltas, in the same BFS order (the root's aux is
	// always nil — advanceAnchor clears it when a block stabilizes).
	for _, n := range order {
		if delta, ok := n.Aux().(*utxo.BlockDelta); ok && delta != nil {
			e.Bool(true)
			utxo.EncodeBlockDelta(e, delta)
		} else {
			e.Bool(false)
		}
	}

	// Unstable blocks, written in the have list's (height, hash) order so
	// restore rebuilds the sorted list by appending. A block that arrived as
	// wire bytes is written from them, not re-serialized.
	e.Uvarint(uint64(len(c.have)))
	for i := range c.have {
		block := c.blocks[c.have[i].hash]
		if block == nil {
			return nil, fmt.Errorf("canister: snapshot: have entry %s has no stored block", c.have[i].hash)
		}
		e.Bytes(block.Bytes())
	}

	// Pending outbound transactions, with their memoized txids so restore
	// does not re-hash.
	e.Uvarint(uint64(len(c.outgoing)))
	for i := range c.outgoing {
		e.Bytes(c.outgoing[i].raw)
		e.Raw(c.outgoing[i].txid[:])
		e.I64(int64(c.outgoing[i].rounds))
	}
	out := e.Finish()
	c.met.snapshotNanos.ObserveDuration(c.met.reg.Now().Sub(start))
	c.met.snapshotBytes.Set(int64(len(out)))
	return out, nil
}

// RestoreSnapshot reconstructs a canister from a snapshot produced by
// Snapshot. The restored canister is byte-for-byte equivalent: it answers
// every request identically to the canister the snapshot was taken from,
// and re-snapshotting it reproduces the input bytes.
func RestoreSnapshot(data []byte) (*BitcoinCanister, error) {
	return restoreSnapshot(data, 1)
}

// RestoreSnapshotParallel is RestoreSnapshot with the two decode-dominant
// sections sharded across workers: the UTXO set's script table and address
// buckets (utxo.DecodeSetParallel) and the unstable blocks' wire parsing
// (zero-copy, txids hashed off the spans — which also pre-warms the memos
// WarmQueryState would otherwise compute). Merging is deterministic; the
// restored canister is identical to RestoreSnapshot's, including its
// re-snapshot bytes. Replica fast-sync hydration uses this. The restored
// blocks alias data, which must stay immutable.
func RestoreSnapshotParallel(data []byte, cfg ingest.Config) (*BitcoinCanister, error) {
	return restoreSnapshot(data, cfg.NormalizedWorkers())
}

func restoreSnapshot(data []byte, workers int) (*BitcoinCanister, error) {
	d, err := statecodec.NewDecoder(data, snapshotMagic, SnapshotVersion)
	if err != nil {
		return nil, fmt.Errorf("canister: restore: %w", err)
	}

	cfg := Config{
		Network:             btc.Network(d.U8()),
		StabilityThreshold:  d.I64(),
		SyncSlack:           d.I64(),
		PageLimit:           int(d.I64()),
		TxRebroadcastRounds: int(d.I64()),
	}
	// Ignoring a nonzero reserved byte would accept bytes Snapshot cannot
	// reproduce.
	if reserved := d.U8(); reserved != 0 {
		return nil, fmt.Errorf("canister: restore: reserved config byte is %#x, want 0", reserved)
	}
	c := &BitcoinCanister{
		cfg:          cfg,
		params:       btc.ParamsForNetwork(cfg.Network),
		blocks:       make(map[btc.Hash]*storedBlock),
		scriptIDs:    btc.NewScriptIDCache(cfg.Network),
		balanceCache: make(map[balanceKey]int64),
		met:          newCanisterMetrics(),
	}
	c.ingestedBlocks = int(d.I64())
	c.rejectedBlocks = int(d.I64())
	c.rejectedHeaders = int(d.I64())
	c.anchorHeight = d.I64()
	c.applyErrors = int(d.I64())

	nHeaders := d.CountFor(maxSnapshotHeaders, headerWireBytes)
	c.stableHeaders = make([]btc.BlockHeader, 0, nHeaders)
	for i := 0; i < nHeaders; i++ {
		c.stableHeaders = append(c.stableHeaders, decodeHeader(d))
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("canister: restore: %w", d.Err())
	}

	if c.stable, err = utxo.DecodeSetParallel(d, workers); err != nil {
		return nil, fmt.Errorf("canister: restore: %w", err)
	}
	if c.stable.Network() != cfg.Network {
		return nil, fmt.Errorf("canister: restore: UTXO set network %v does not match config %v",
			c.stable.Network(), cfg.Network)
	}

	// Header tree. Parents precede children in the stored order, so every
	// insert finds its predecessor; Insert recomputes work, cumulative work,
	// and timestamp windows deterministically from the restored root.
	rootHeight := d.I64()
	rootHeader := decodeHeader(d)
	nWin := d.Count(11)
	window := make([]uint32, 0, nWin)
	for i := 0; i < nWin; i++ {
		window = append(window, d.U32())
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("canister: restore: %w", d.Err())
	}
	if n := len(c.stableHeaders); n == 0 || c.stableHeaders[n-1].BlockHash() != rootHeader.BlockHash() {
		return nil, fmt.Errorf("canister: restore: tree root is not the last stable header")
	}
	c.tree = chain.NewTreeWithWindow(rootHeader, rootHeight, window)
	nNodes := d.CountFor(maxSnapshotHeaders, headerWireBytes)
	order := make([]*chain.Node, 0, nNodes)
	for i := 0; i < nNodes; i++ {
		h := decodeHeader(d)
		if d.Err() != nil {
			return nil, fmt.Errorf("canister: restore: %w", d.Err())
		}
		node, err := c.tree.Insert(h)
		if err != nil {
			return nil, fmt.Errorf("canister: restore: tree node %d: %w", i, err)
		}
		order = append(order, node)
	}
	for _, node := range order {
		if d.Bool() {
			delta, err := utxo.DecodeBlockDelta(d)
			if err != nil {
				return nil, fmt.Errorf("canister: restore: delta for %s: %w", node.Hash, err)
			}
			if delta.Height() != node.Height {
				return nil, fmt.Errorf("canister: restore: delta height %d on node at height %d",
					delta.Height(), node.Height)
			}
			node.SetAux(delta)
		}
	}

	// Unstable blocks arrive in have order; appending keeps the list sorted.
	// The wire slices are collected in one scan and parsed on the pipeline
	// (above one worker zero-copy, txid memos sealed from the spans) while
	// this goroutine attaches them in order.
	nBlocks := d.CountFor(maxSnapshotBlocks, headerWireBytes+1)
	c.have = make([]haveEntry, 0, nBlocks)
	attach := func(i int, block *btc.Block, err error) error {
		if err != nil {
			return fmt.Errorf("canister: restore: block %d: %w", i, err)
		}
		hash := block.BlockHash()
		node := c.tree.Get(hash)
		if node == nil {
			return fmt.Errorf("canister: restore: block %s has no tree node", hash)
		}
		if c.blocks[hash] != nil {
			return fmt.Errorf("canister: restore: block %s duplicated", hash)
		}
		entry := haveEntry{height: node.Height, hash: hash}
		if i > 0 && !haveLess(c.have[i-1], entry) {
			return fmt.Errorf("canister: restore: blocks not in have order at %d", i)
		}
		c.blocks[hash] = &storedBlock{Block: block}
		c.have = append(c.have, entry)
		return nil
	}
	raws := make([][]byte, 0, nBlocks)
	for i := 0; i < nBlocks; i++ {
		raws = append(raws, d.Bytes(maxBlockWireBytes))
		if d.Err() != nil {
			return nil, fmt.Errorf("canister: restore: %w", d.Err())
		}
	}
	// One worker is RestoreSnapshot, whose blocks must not alias data.
	parse := btc.ParseBlockFast
	if workers <= 1 {
		parse = btc.ParseBlock
	}
	type parsed struct {
		block *btc.Block
		err   error
	}
	if err := ingest.Map(nBlocks, ingest.Config{Workers: workers},
		func(_, i int) parsed {
			b, err := parse(raws[i])
			return parsed{block: b, err: err}
		},
		func(i int, p parsed) error { return attach(i, p.block, p.err) },
	); err != nil {
		return nil, err
	}

	nTxs := d.CountFor(maxSnapshotTxs, minOutgoingTxBytes)
	for i := 0; i < nTxs; i++ {
		raw := d.Bytes(maxTxWireBytes)
		var txid btc.Hash
		copy(txid[:], d.Raw(btc.HashSize))
		rounds := int(d.I64())
		if d.Err() != nil {
			return nil, fmt.Errorf("canister: restore: %w", d.Err())
		}
		// The stored txid is a memoization, not an assertion the decoder
		// trusts: SendTransaction's parser only admits canonical encodings,
		// so the raw bytes re-serialize identically and one DoubleSHA256
		// checks the stored value (a mismatched txid would silently defeat
		// the outbound-queue dedup).
		if btc.DoubleSHA256(raw) != txid {
			return nil, fmt.Errorf("canister: restore: outgoing tx %d txid does not match its bytes", i)
		}
		cp := make([]byte, len(raw))
		copy(cp, raw)
		c.outgoing = append(c.outgoing, outgoingTx{raw: cp, txid: txid, rounds: rounds})
	}

	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("canister: restore: %w", err)
	}
	// Derived state: the sync flag and available height fall out of the
	// restored tree and have list exactly as after a processed payload.
	c.updateSynced()
	c.met.restores.Inc()
	return c, nil
}
