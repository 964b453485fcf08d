// Package experiments regenerates the figures and in-text measurements of
// the paper's evaluation (§IV) that the code decides: block ingestion cost
// and its insert/remove split (Fig 6), get_utxos instructions versus
// UTXO-set size (Fig 7, right), the request cost summary, plus ablations
// over δ and single- versus multi-block responses, the read path's cost
// against unstable depth, and recovery under adapter-link loss. The §IV-B
// response times are not regenerated: on the simulated subnet they are its
// latency envelope (internal/ic) read back.
//
// Experiments run against the same canister, adapter, and chaos-harness
// code the integration uses; the workload generators below replace the
// mainnet traffic the paper measured.
package experiments

import (
	"fmt"
	"math/rand"

	"icbtc/internal/btc"
	"icbtc/internal/btcnode"
)

// BlockBuilder feeds the canister synthetic history without a Bitcoin
// network: a single chain forged block by block (btcnode.Forge: real PoW at
// simulation targets, correct Merkle roots and timestamps, no transaction
// validation), its transactions drawn from a seeded pool of the outputs the
// chain has created so far.
type BlockBuilder struct {
	forge     *btcnode.Forge
	tip       btc.Hash
	spendable []btc.OutPoint
	rng       *rand.Rand
}

// coinbasePayout receives every built block's subsidy.
var coinbasePayout = btc.PayToPubKeyHashScript([20]byte{0xA1})

// NewBlockBuilder starts a builder at the network genesis.
func NewBlockBuilder(params *btc.Params, seed int64) *BlockBuilder {
	return &BlockBuilder{
		forge: btcnode.NewForge(params),
		tip:   params.GenesisHeader.BlockHash(),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Height returns the current tip height.
func (b *BlockBuilder) Height() int64 { return b.forge.Height(b.tip) }

// SpendableOutputs returns how many previously created outputs are
// available for the generator to spend.
func (b *BlockBuilder) SpendableOutputs() int { return len(b.spendable) }

// TxSpec describes one synthetic transaction.
type TxSpec struct {
	// Inputs is how many previously created outputs to consume (capped by
	// availability; coinbase-style zero is allowed).
	Inputs int
	// Outputs lists the locking scripts and values to create.
	Outputs []btc.TxOut
}

// PayN builds n outputs of the given value paying the same script.
func PayN(script []byte, n int, value int64) []btc.TxOut {
	outs := make([]btc.TxOut, n)
	for i := range outs {
		outs[i] = btc.TxOut{Value: value, PkScript: script}
	}
	return outs
}

// NextBlock mines the next block containing a coinbase plus one transaction
// per spec. Spent inputs are drawn from (and removed from) the builder's
// spendable pool; created outputs join the pool.
func (b *BlockBuilder) NextBlock(specs []TxSpec) (*btc.Block, error) {
	txs := make([]*btc.Transaction, 0, len(specs))
	for _, spec := range specs {
		tx := &btc.Transaction{Version: 2}
		nIn := spec.Inputs
		if nIn > len(b.spendable) {
			nIn = len(b.spendable)
		}
		if nIn == 0 {
			// Synthetic "import": spend a fabricated outpoint. The canister
			// tolerates unknown inputs (it does not validate spends), and
			// the generator uses this to model value entering the tracked
			// address set.
			var fake btc.OutPoint
			b.rng.Read(fake.TxID[:])
			tx.Inputs = append(tx.Inputs, btc.TxIn{PreviousOutPoint: fake})
		}
		for i := 0; i < nIn; i++ {
			// Pop a random spendable output.
			j := b.rng.Intn(len(b.spendable))
			op := b.spendable[j]
			b.spendable[j] = b.spendable[len(b.spendable)-1]
			b.spendable = b.spendable[:len(b.spendable)-1]
			tx.Inputs = append(tx.Inputs, btc.TxIn{PreviousOutPoint: op})
		}
		tx.Outputs = spec.Outputs
		txs = append(txs, tx)
	}
	block, err := b.forge.Mine(b.tip, coinbasePayout, txs...)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	b.tip = block.BlockHash()
	// The coinbase output joins the pool ahead of the specs' outputs; the
	// txids are the ones the forge hashed for the Merkle root.
	txids := block.TxIDs()
	for i, tx := range block.Transactions {
		for v := range tx.Outputs {
			b.spendable = append(b.spendable, btc.OutPoint{TxID: txids[i], Vout: uint32(v)})
		}
	}
	return block, nil
}

// AddressPopulation builds the Fig 7 address set with the paper's reported
// skew: of 1000 addresses, 517 hold fewer than 50 UTXOs, 159 hold 50-199,
// 113 hold 200-999, and 211 hold 1000 or more.
type AddressPopulation struct {
	Addresses []PopulationAddress
}

// PopulationAddress is one synthetic address and its target UTXO count.
type PopulationAddress struct {
	Address string
	Script  []byte
	Count   int
}

// NewAddressPopulation samples the population. Scale divides every bucket's
// size (scale=1 reproduces the full 1000 addresses).
func NewAddressPopulation(network btc.Network, seed int64, scale int) *AddressPopulation {
	if scale < 1 {
		scale = 1
	}
	rng := rand.New(rand.NewSource(seed))
	buckets := []struct {
		n        int
		min, max int
	}{
		{517, 1, 49},
		{159, 50, 199},
		{113, 200, 999},
		{211, 1000, 2500},
	}
	pop := &AddressPopulation{}
	idx := 0
	for _, bk := range buckets {
		n := bk.n / scale
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			var h [20]byte
			rng.Read(h[:])
			addr := btc.NewP2PKHAddress(h, network)
			pop.Addresses = append(pop.Addresses, PopulationAddress{
				Address: addr.String(),
				Script:  btc.PayToAddrScript(addr),
				Count:   bk.min + rng.Intn(bk.max-bk.min+1),
			})
			idx++
		}
	}
	return pop
}

// TotalUTXOs sums the population's target counts.
func (p *AddressPopulation) TotalUTXOs() int {
	total := 0
	for _, a := range p.Addresses {
		total += a.Count
	}
	return total
}
