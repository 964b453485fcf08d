package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"

	"icbtc/internal/btc"
	"icbtc/internal/experiments"
)

// Fixture shape. The address skew is the paper's Fig 7 population; blocks
// are mainnet-shaped (many small transactions) and two of every three
// transactions spend one earlier output so Fig 6's remove path runs. A
// heavier-tailed address draw (Zipf 1.1, one 60k-entry bucket) was tried and
// rejected: it turns every workload into a memmove benchmark of one bucket.
const (
	txsPerBlock  = 500
	outputsPerTx = 2
	// preloadBlocks is the chain every workload starts from (~400k live
	// UTXOs, ~21 MB snapshot, ~34 MB of wire blocks).
	preloadBlocks = 600
)

// Fixture is the seeded input of one run: the wire blocks the program
// receives and the ledger the harness checks its answers against. The
// program never sees anything but Wire.
type Fixture struct {
	Seed      int64
	Addresses []string
	// Wire[i] is the serialized block at height i+1.
	Wire   [][]byte
	Ledger *Ledger
}

// WireDigest is the sha256 over every wire block in order (the determinism
// fingerprint: same seed, same digest).
func (f *Fixture) WireDigest() [32]byte {
	h := sha256.New()
	for _, w := range f.Wire {
		h.Write(w)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// point is an address's state as of one block height.
type point struct {
	height  int64
	balance int64
	count   int
}

// feeRange is the span of priceable fee rates (millisatoshi per byte) in one
// block; n is how many transactions were priceable.
type feeRange struct {
	min, max int64
	n        int
}

// Ledger is the generator's own record of what the chain contains — the
// correctness oracle. It is built from the transactions the generator
// emitted, never from the program's output.
type Ledger struct {
	// history[a] holds one point per block that changed address a, in
	// height order, so a balance can be checked at whatever tip a response
	// was served at.
	history [][]point
	// fees[h] is the fee-rate range of the block at height h (index 0
	// unused).
	fees []feeRange
	// live[h] is the number of unspent outputs after the block at height h.
	live []int
	// paid[h] is an address the block at height h paid: its balance must
	// differ from the one a stale tip reports.
	paid []int32

	owner map[btc.OutPoint]ownedOutput
}

type ownedOutput struct {
	addr  int32 // population index; -1 for the builder's coinbase script
	value int64
}

// At returns the balance and UTXO count of address a after the block at
// the given height.
func (l *Ledger) At(a int, height int64) (balance int64, count int) {
	h := l.history[a]
	i := sort.Search(len(h), func(i int) bool { return h[i].height > height })
	if i == 0 {
		return 0, 0
	}
	return h[i-1].balance, h[i-1].count
}

// PaidAt returns an address that received an output in the block at height.
func (l *Ledger) PaidAt(height int64) int { return int(l.paid[height]) }

// LiveUTXOs returns the number of unspent outputs after the block at height.
func (l *Ledger) LiveUTXOs(height int64) int { return l.live[height] }

// FeeRange returns the lowest and highest priceable fee rate over blocks
// (anchor, tip], and whether any transaction there was priceable.
func (l *Ledger) FeeRange(anchor, tip int64) (min, max int64, ok bool) {
	for h := anchor + 1; h <= tip; h++ {
		fr := l.fees[h]
		if fr.n == 0 {
			continue
		}
		if !ok || fr.min < min {
			min = fr.min
		}
		if !ok || fr.max > max {
			max = fr.max
		}
		ok = true
	}
	return min, max, ok
}

// Digest fingerprints the ledger (every address's full history).
func (l *Ledger) Digest() [32]byte {
	h := sha256.New()
	for a, hist := range l.history {
		fmt.Fprintf(h, "%d:", a)
		for _, p := range hist {
			fmt.Fprintf(h, "%d,%d,%d;", p.height, p.balance, p.count)
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// record folds one generated block into the ledger.
func (l *Ledger) record(block *btc.Block, height int64, outAddr [][outputsPerTx]int32) {
	touched := make(map[int32]point)
	bump := func(a int32, dv int64, dc int) {
		if a < 0 {
			return
		}
		p, ok := touched[a]
		if !ok {
			p.balance, p.count = l.At(int(a), height)
		}
		p.height, p.balance, p.count = height, p.balance+dv, p.count+dc
		touched[a] = p
	}
	live := l.live[height-1]
	var fr feeRange
	txids := block.TxIDs()
	for ti, tx := range block.Transactions {
		var inValue, outValue int64
		resolved := !tx.IsCoinbase()
		for i := range tx.Inputs {
			op := tx.Inputs[i].PreviousOutPoint
			o, ok := l.owner[op]
			if !ok {
				resolved = false
				continue
			}
			delete(l.owner, op)
			live--
			inValue += o.value
			bump(o.addr, -o.value, -1)
		}
		for vout := range tx.Outputs {
			a := int32(-1)
			if ti > 0 {
				a = outAddr[ti-1][vout]
			}
			v := tx.Outputs[vout].Value
			l.owner[btc.OutPoint{TxID: txids[ti], Vout: uint32(vout)}] = ownedOutput{addr: a, value: v}
			live++
			outValue += v
			bump(a, v, 1)
		}
		// A transaction is priceable when every input resolves and the fee
		// is not negative (the API's documented best-effort rule).
		if fee := inValue - outValue; resolved && fee >= 0 {
			rate := fee * 1000 / int64(tx.SerializedSize())
			if fr.n == 0 || rate < fr.min {
				fr.min = rate
			}
			if fr.n == 0 || rate > fr.max {
				fr.max = rate
			}
			fr.n++
		}
	}
	for a, p := range touched {
		l.history[a] = append(l.history[a], p)
	}
	l.fees = append(l.fees, fr)
	l.live = append(l.live, live)
	l.paid = append(l.paid, outAddr[0][0])
}

// BuildFixture generates blocks wire blocks of txs transactions each, and
// their ledger, from seed.
func BuildFixture(seed int64, blocks, txs int) (*Fixture, error) {
	pop := experiments.NewAddressPopulation(btc.Regtest, seed, 1)
	n := len(pop.Addresses)
	fx := &Fixture{
		Seed:      seed,
		Addresses: make([]string, n),
		Wire:      make([][]byte, 0, blocks),
		Ledger: &Ledger{
			history: make([][]point, n),
			fees:    make([]feeRange, 1, blocks+1),
			live:    make([]int, 1, blocks+1),
			paid:    make([]int32, 1, blocks+1),
			owner:   make(map[btc.OutPoint]ownedOutput, blocks*(txs*outputsPerTx+1)*2/3),
		},
	}
	// Each output's address is drawn in proportion to the population's
	// target UTXO count, which reproduces the skew at any chain length.
	cum := make([]int, n)
	total := 0
	for i, a := range pop.Addresses {
		fx.Addresses[i] = a.Address
		total += a.Count
		cum[i] = total
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	builder := experiments.NewBlockBuilder(btc.RegtestParams(), seed)
	specs := make([]experiments.TxSpec, txs)
	outAddr := make([][outputsPerTx]int32, txs)
	for b := 0; b < blocks; b++ {
		for t := range specs {
			outs := make([]btc.TxOut, outputsPerTx)
			for o := range outs {
				a := sort.SearchInts(cum, rng.Intn(total)+1)
				outAddr[t][o] = int32(a)
				// Values span three orders of magnitude so that a spend of
				// a random earlier output is priceable about as often as not.
				outs[o] = btc.TxOut{Value: (600 + rng.Int63n(3000)) << uint(rng.Intn(10)), PkScript: pop.Addresses[a].Script}
			}
			specs[t] = experiments.TxSpec{Outputs: outs}
			if t%3 != 0 {
				specs[t].Inputs = 1
			}
		}
		block, err := builder.NextBlock(specs)
		if err != nil {
			return nil, fmt.Errorf("fixture block %d: %w", b+1, err)
		}
		fx.Wire = append(fx.Wire, block.Bytes())
		fx.Ledger.record(block, int64(b+1), outAddr)
	}
	return fx, nil
}
