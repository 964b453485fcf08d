package ingest

import (
	"icbtc/internal/btc"
	"icbtc/internal/utxo"
)

// PreparedBlock is the CPU-bound prework of one block, computed on a
// pipeline worker ahead of sequential application: the parsed block with
// its transaction-ID and Merkle-root memos sealed, the header hash, and
// (when the attach height was predictable) the state-independent half of
// the block's address-indexed delta.
type PreparedBlock struct {
	// Block is the parsed block; nil when Err is set.
	Block *btc.Block
	// Hash is the header hash (the block's identity in the tree).
	Hash btc.Hash
	// Delta is the prebuilt state-independent delta at the predicted attach
	// height, or nil when the height was unknowable (an orphan — the
	// sequential applier will reject it before needing a delta) or the
	// caller asked for none.
	Delta *utxo.PreparedDelta
	// Err records a wire-decode failure; the sequential applier counts the
	// block as rejected.
	Err error
}

// Preparer owns the script-ID caches block preparation derives address
// keys through — one per worker, so workers never contend and the
// derivation stays a pure function (identical results whichever worker runs
// a block).
type Preparer struct {
	caches []*btc.ScriptIDCache
}

// NewPreparer sizes a preparer for a pipeline of the given worker count
// (Config.NormalizedWorkers, i.e. at least 1). With one worker Map runs
// produce on the calling goroutine, so the preparer derives through own —
// the caller's long-lived cache, already warm with the scripts earlier
// batches saw. With more, the caller's consume is using own concurrently, so
// every worker gets a fresh cache of its own for own's network.
func NewPreparer(own *btc.ScriptIDCache, workers int) *Preparer {
	if workers <= 1 {
		return &Preparer{caches: []*btc.ScriptIDCache{own}}
	}
	p := &Preparer{caches: make([]*btc.ScriptIDCache, workers)}
	for i := range p.caches {
		p.caches[i] = btc.NewScriptIDCache(own.Network())
	}
	return p
}

// Prepare runs the CPU-bound prework for an already-parsed block: seal the
// txid memo, compute the Merkle root, and (height >= 0) prebuild the
// delta. worker selects the worker-local cache and must be the index Map
// passed to produce.
func (p *Preparer) Prepare(worker int, block *btc.Block, height int64) PreparedBlock {
	pb := PreparedBlock{Block: block, Hash: block.Header.BlockHash()}
	block.TxIDs()
	block.MerkleRoot()
	if height >= 0 {
		pb.Delta = utxo.PrepareBlockDelta(block, height, p.caches[worker])
	}
	return pb
}

// PrepareWire decodes a block from wire bytes (zero-copy: scripts alias
// wire, txids are span hashes) and then prepares it like Prepare. A decode
// failure is carried in Err.
func (p *Preparer) PrepareWire(worker int, wire []byte, height int64) PreparedBlock {
	block, err := btc.ParseBlockFast(wire)
	if err != nil {
		return PreparedBlock{Err: err}
	}
	return p.Prepare(worker, block, height)
}
