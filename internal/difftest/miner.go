package difftest

import (
	"fmt"

	"icbtc/internal/btc"
)

// forkMiner mines valid blocks (real PoW at simulation targets, correct
// Merkle roots, MTP-respecting timestamps) on top of ANY previously mined
// block, not just the best tip — the capability the harness needs to build
// competing branches. Unlike btcnode's miner it performs no transaction
// validation at all, so workloads can include double spends, alien inputs,
// and spends of outputs created on losing branches.
type forkMiner struct {
	params *btc.Params
	byHash map[btc.Hash]*minedHeader
	extra  uint64
}

type minedHeader struct {
	header   btc.BlockHeader
	height   int64
	parent   btc.Hash
	tsWindow []uint32
}

func newForkMiner(params *btc.Params) *forkMiner {
	genesis := params.GenesisHeader
	m := &forkMiner{params: params, byHash: make(map[btc.Hash]*minedHeader)}
	m.byHash[genesis.BlockHash()] = &minedHeader{
		header:   genesis,
		tsWindow: []uint32{genesis.Timestamp},
	}
	return m
}

// parentOf returns the parent hash of a previously mined block.
func (m *forkMiner) parentOf(h btc.Hash) btc.Hash {
	mh := m.byHash[h]
	if mh == nil {
		panic(fmt.Sprintf("difftest: unknown block %s", h))
	}
	return mh.parent
}

// mine assembles and grinds one block on the given parent: a unique
// coinbase plus the given transactions, timestamped just past the parent's
// median time past.
func (m *forkMiner) mine(parent btc.Hash, txs []*btc.Transaction) (*btc.Block, error) {
	p := m.byHash[parent]
	if p == nil {
		return nil, fmt.Errorf("difftest: mining on unknown parent %s", parent)
	}
	m.extra++
	height := p.height + 1
	coinbase := &btc.Transaction{
		Version: 2,
		Inputs: []btc.TxIn{{
			PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff},
			SignatureScript: []byte{
				byte(height), byte(height >> 8), byte(height >> 16), byte(height >> 24),
				byte(m.extra), byte(m.extra >> 8), byte(m.extra >> 16), byte(m.extra >> 24),
			},
		}},
		Outputs: []btc.TxOut{{Value: m.params.BlockSubsidy, PkScript: btc.PayToPubKeyHashScript([20]byte{0xD1, 0xFF})}},
	}
	block := &btc.Block{
		Header: btc.BlockHeader{
			Version:   1,
			PrevBlock: parent,
			Timestamp: btc.MedianTimePast(p.tsWindow) + 30,
			Bits:      p.header.Bits, // regtest never retargets
		},
		Transactions: append([]*btc.Transaction{coinbase}, txs...),
	}
	block.Header.MerkleRoot = block.MerkleRoot()
	if err := btc.MineHeader(&block.Header); err != nil {
		return nil, fmt.Errorf("difftest: %w", err)
	}
	window := make([]uint32, 0, 11)
	if len(p.tsWindow) >= 11 {
		window = append(window, p.tsWindow[len(p.tsWindow)-10:]...)
	} else {
		window = append(window, p.tsWindow...)
	}
	window = append(window, block.Header.Timestamp)
	m.byHash[block.BlockHash()] = &minedHeader{
		header:   block.Header,
		height:   height,
		parent:   parent,
		tsWindow: window,
	}
	return block, nil
}
