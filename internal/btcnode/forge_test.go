package btcnode

import (
	"testing"

	"icbtc/internal/btc"
)

// TestForgeBytes pins the forge's output to the bytes difftest's own miner
// produced for the same inputs at 2f1488b (hashes computed there and pasted):
// a two-branch fork carrying transactions, then a chain long enough that the
// 11-entry timestamp window has slid. figures.golden, the golden v1 snapshot
// and the benchmark fixture hold the same bytes through experiments'
// BlockBuilder; this is the pin directly under them.
func TestForgeBytes(t *testing.T) {
	params := btc.RegtestParams()
	genesis := params.GenesisHeader.BlockHash()
	payout := btc.PayToPubKeyHashScript([20]byte{0xD1, 0xFF})
	pay := func(tag byte, value int64) *btc.Transaction {
		return &btc.Transaction{
			Version: 2,
			Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.Hash{tag}, Vout: 1}, Sequence: 0xffffffff}},
			Outputs: []btc.TxOut{{Value: value, PkScript: btc.PayToPubKeyHashScript([20]byte{tag})}},
		}
	}
	mineChain := func(f *Forge, blocks [][]*btc.Transaction, want ...string) btc.Hash {
		t.Helper()
		tip := genesis
		for i, txs := range blocks {
			b, err := f.Mine(tip, payout, txs...)
			if err != nil {
				t.Fatal(err)
			}
			if f.Parent(b.BlockHash()) != tip || f.Height(b.BlockHash()) != int64(i+1) {
				t.Fatalf("block %d: forge recorded parent %s height %d", i+1, f.Parent(b.BlockHash()), f.Height(b.BlockHash()))
			}
			tip = b.BlockHash()
			if i < len(want) && tip.String() != want[i] {
				t.Errorf("block %d on this branch: hash %s, want %s", i+1, tip, want[i])
			}
		}
		return tip
	}

	f := NewForge(params)
	mineChain(f, [][]*btc.Transaction{{pay(1, 500)}, {pay(2, 600), pay(3, 700)}},
		"7074790fa88ecdc7aba79bcb080a4dc9ff049d21ef6a6390a371d4f841b00d38",
		"4e19ff9939d4c57c52bcdd1e29299fda96bc8c20360119ed81d16f2440c7c7c2")
	mineChain(f, [][]*btc.Transaction{{pay(3, 700)}, nil, {pay(1, 500)}},
		"270f251cfb85c3fdbed89598c2f08612feef63157d4178952ccea00216f01cd9",
		"16fdd2f46255c4c4dea5d08319944c50b6aba024583720f8a947ef7001a589d8",
		"30b9c71d91328414250f8e34c957ab17bd0c837172dbc50e1199ce1bc3a1a99b")

	tip := mineChain(NewForge(params), make([][]*btc.Transaction, 14))
	if want := "1a463a0738b95b4a8fa508b6ed3baecfbf205e92eb846a86900e6893901e1efb"; tip.String() != want {
		t.Errorf("block 14 of an empty chain: hash %s, want %s", tip, want)
	}
	if _, err := f.Mine(tip, payout); err == nil {
		t.Error("forged on a parent this forge never mined")
	}
}
