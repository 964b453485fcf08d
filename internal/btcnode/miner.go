package btcnode

import (
	"errors"
	"fmt"

	"icbtc/internal/btc"
	"icbtc/internal/chain"
	"icbtc/internal/secp256k1"
)

// Miner builds and proof-of-work-mines blocks on top of a node's best chain.
// The simulation uses easy targets (see btc.Params), so grinding a nonce is
// a handful of hash attempts rather than exahashes — but the PoW check is
// the real double-SHA256 target comparison.
type Miner struct {
	node *Node
	// payoutScript receives coinbase rewards.
	payoutScript []byte
	// extraNonce distinguishes coinbases of otherwise identical blocks.
	extraNonce uint64
}

// NewMiner creates a miner paying rewards to payoutScript.
func NewMiner(node *Node, payoutScript []byte) *Miner {
	return &Miner{node: node, payoutScript: payoutScript}
}

// NewMinerWithKey creates a miner paying to a fresh P2PKH address derived
// from the given key.
func NewMinerWithKey(node *Node, key *secp256k1.PrivateKey) *Miner {
	addr := btc.AddressFromPubKey(key.PubKey().SerializeCompressed(), node.params.Network)
	return NewMiner(node, btc.PayToAddrScript(addr))
}

// BuildBlockOn assembles a block on the given parent including up to maxTxs
// transactions from the node's mempool (0 means no limit). The block is
// mined (nonce ground) before being returned.
func (m *Miner) BuildBlockOn(parent *chain.Node, maxTxs int) (*btc.Block, error) {
	if parent == nil {
		return nil, errors.New("btcnode: nil parent")
	}
	m.extraNonce++
	coinbase := &btc.Transaction{
		Version: 2,
		Inputs: []btc.TxIn{{
			PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff},
			SignatureScript:  coinbaseScript(parent.Height+1, m.extraNonce),
		}},
		Outputs: []btc.TxOut{{Value: m.node.params.BlockSubsidy, PkScript: m.payoutScript}},
	}
	txs := []*btc.Transaction{coinbase}
	for _, tx := range m.node.MempoolTxs() {
		if maxTxs > 0 && len(txs)-1 >= maxTxs {
			break
		}
		txs = append(txs, tx)
	}
	block := &btc.Block{
		Header: btc.BlockHeader{
			Version:   1,
			PrevBlock: parent.Hash,
			Timestamp: uint32(m.node.net.Scheduler().Now().Unix()),
			Bits:      chain.ExpectedBits(parent, m.node.params),
		},
		Transactions: txs,
	}
	// The timestamp must be strictly after the parent's median time past.
	if mtp := btc.MedianTimePast(parent.TimestampWindow()); block.Header.Timestamp <= mtp {
		block.Header.Timestamp = mtp + 1
	}
	block.Header.MerkleRoot = block.MerkleRoot()
	if err := btc.MineHeader(&block.Header); err != nil {
		return nil, err
	}
	return block, nil
}

// Mine builds a block on the node's best tip, submits it to the node, and
// relays it to peers. It returns the mined block.
func (m *Miner) Mine(maxTxs int) (*btc.Block, error) {
	block, err := m.BuildBlockOn(m.node.BestTip(), maxTxs)
	if err != nil {
		return nil, err
	}
	if _, err := m.node.AcceptBlock(block); err != nil {
		return nil, fmt.Errorf("btcnode: own block rejected: %w", err)
	}
	m.node.relayBlock(block.BlockHash(), m.node.ID)
	return block, nil
}

// MineChain mines count blocks in sequence on the best chain.
func (m *Miner) MineChain(count, maxTxsPerBlock int) ([]*btc.Block, error) {
	out := make([]*btc.Block, 0, count)
	for i := 0; i < count; i++ {
		b, err := m.Mine(maxTxsPerBlock)
		if err != nil {
			return out, err
		}
		out = append(out, b)
	}
	return out, nil
}

// coinbaseScript encodes height and extra nonce (BIP34-flavored) so every
// coinbase transaction is unique.
func coinbaseScript(height int64, extra uint64) []byte {
	return []byte{
		byte(height), byte(height >> 8), byte(height >> 16), byte(height >> 24),
		byte(extra), byte(extra >> 8), byte(extra >> 16), byte(extra >> 24),
		byte(extra >> 32), byte(extra >> 40), byte(extra >> 48), byte(extra >> 56),
	}
}
