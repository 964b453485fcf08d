package ingest

import "icbtc/internal/btc"

// Prepare is a parsed block's CPU-bound prework, run on a pipeline worker
// ahead of sequential application: it seals the block's txid and
// Merkle-root memos, so the applier's validation hashes nothing. It returns
// the block.
func Prepare(block *btc.Block) *btc.Block {
	block.TxIDs()
	block.MerkleRoot()
	return block
}

// PrepareWire decodes a block from wire bytes (zero-copy: scripts alias
// wire, txids are span hashes) and then prepares it like Prepare.
func PrepareWire(wire []byte) (*btc.Block, error) {
	block, err := btc.ParseBlockFast(wire)
	if err != nil {
		return nil, err
	}
	return Prepare(block), nil
}
