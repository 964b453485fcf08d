package btcnode

import (
	"fmt"

	"icbtc/internal/btc"
)

// Forge mines on ANY block it has mined before, not just a best tip, and
// validates nothing. A Miner is bound to a Node: it mines what that node's
// mempool admitted (inputs exist, unspent and mature on its branch, and cover
// the outputs; scripts verify where the node checks them) on the node's best
// chain, at the scheduler's clock and the retarget rule's bits, and the node
// validates the block again. A Forge stands alone and checks none of that: a
// block's timestamp is its parent's median time past + 30, its bits the
// genesis block's (a forged chain never retargets). The canister of §III-C trusts proof of
// work, not transaction validity, so holding it to its oracle takes both:
// Miner for chains a Bitcoin network would relay, Forge for blocks valid by
// proof of work, Merkle root and median time past that carry double spends,
// alien inputs and spends of losing-branch outputs.
type Forge struct {
	params *btc.Params
	mined  map[btc.Hash]forged
	extra  uint64
}

type forged struct {
	parent btc.Hash
	height int64
	// window is the block's own timestamp behind up to ten ancestors',
	// oldest first: what its child's median time past is taken over.
	window []uint32
}

// NewForge starts a forge at the network's genesis block.
func NewForge(params *btc.Params) *Forge {
	g := params.GenesisHeader
	return &Forge{params: params, mined: map[btc.Hash]forged{
		g.BlockHash(): {window: []uint32{g.Timestamp}},
	}}
}

// Mine grinds one block on parent: a coinbase paying the subsidy to payout,
// made unique by the height and a per-forge counter, then txs as given.
func (f *Forge) Mine(parent btc.Hash, payout []byte, txs ...*btc.Transaction) (*btc.Block, error) {
	p, ok := f.mined[parent]
	if !ok {
		return nil, fmt.Errorf("btcnode: forging on unknown parent %s", parent)
	}
	f.extra++
	height := p.height + 1
	coinbase := &btc.Transaction{
		Version: 2,
		Inputs: []btc.TxIn{{
			PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff},
			SignatureScript: []byte{
				byte(height), byte(height >> 8), byte(height >> 16), byte(height >> 24),
				byte(f.extra), byte(f.extra >> 8), byte(f.extra >> 16), byte(f.extra >> 24),
			},
		}},
		Outputs: []btc.TxOut{{Value: f.params.BlockSubsidy, PkScript: payout}},
	}
	block := &btc.Block{
		Header: btc.BlockHeader{
			Version:   1,
			PrevBlock: parent,
			Timestamp: btc.MedianTimePast(p.window) + 30,
			Bits:      f.params.GenesisHeader.Bits,
		},
		Transactions: append([]*btc.Transaction{coinbase}, txs...),
	}
	block.Header.MerkleRoot = block.MerkleRoot()
	if err := btc.MineHeader(&block.Header); err != nil {
		return nil, fmt.Errorf("btcnode: forging height %d: %w", height, err)
	}
	tail := p.window
	if len(tail) == 11 {
		tail = tail[1:]
	}
	window := append(append(make([]uint32, 0, 11), tail...), block.Header.Timestamp)
	f.mined[block.BlockHash()] = forged{parent: parent, height: height, window: window}
	return block, nil
}

// Parent returns the block a forged block was mined on.
func (f *Forge) Parent(h btc.Hash) btc.Hash { return f.known(h).parent }

// Height returns a forged block's height (0 for genesis).
func (f *Forge) Height(h btc.Hash) int64 { return f.known(h).height }

func (f *Forge) known(h btc.Hash) forged {
	b, ok := f.mined[h]
	if !ok {
		panic(fmt.Sprintf("btcnode: %s was not forged here", h))
	}
	return b
}
