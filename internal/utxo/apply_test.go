package utxo

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"icbtc/internal/btc"
)

// naiveUndo is what applyBlockNaive keeps to roll a failed block back: the
// UTXOs it spent and the outpoints it created, in order.
type naiveUndo struct {
	spent   []UTXO
	created []btc.OutPoint
}

// applyBlockNaive is the strict per-entry reference a Bitcoin node's view is
// held to: a Remove/Add loop that, at the first missing input or duplicate
// output, removes what it created and re-adds what it spent, leaving the set
// as it was, and returns the error.
func applyBlockNaive(s *Set, block *btc.Block, height int64) error {
	var undo naiveUndo
	rollback := func(err error) error {
		for i := len(undo.created) - 1; i >= 0; i-- {
			_, _ = s.Remove(undo.created[i])
		}
		for i := len(undo.spent) - 1; i >= 0; i-- {
			u := undo.spent[i]
			_ = s.Add(u.OutPoint, btc.TxOut{Value: u.Value, PkScript: u.PkScript}, u.Height)
		}
		return err
	}
	txids := block.TxIDs()
	for ti, tx := range block.Transactions {
		if !tx.IsCoinbase() {
			for i := range tx.Inputs {
				spent, err := s.Remove(tx.Inputs[i].PreviousOutPoint)
				if err != nil {
					return rollback(err)
				}
				undo.spent = append(undo.spent, spent)
			}
		}
		for vout := range tx.Outputs {
			op := btc.OutPoint{TxID: txids[ti], Vout: uint32(vout)}
			if err := s.Add(op, tx.Outputs[vout], height); err != nil {
				return rollback(err)
			}
			undo.created = append(undo.created, op)
		}
	}
	return nil
}

// ingestNaive is the tolerant per-entry reference for ApplyBlockIngest: the
// canister's old stable-fold loop, including its before-the-attempt
// interned classification.
func ingestNaive(s *Set, block *btc.Block, height int64) IngestStats {
	var st IngestStats
	txids := block.TxIDs()
	for ti, tx := range block.Transactions {
		if !tx.IsCoinbase() {
			for i := range tx.Inputs {
				st.InputsRemoved++
				if _, err := s.Remove(tx.Inputs[i].PreviousOutPoint); err != nil {
					st.Errors++
				}
			}
		}
		txid := txids[ti]
		for vout := range tx.Outputs {
			if s.ScriptInterned(tx.Outputs[vout].PkScript) {
				st.OutputsInterned++
			} else {
				st.OutputsFresh++
			}
			op := btc.OutPoint{TxID: txid, Vout: uint32(vout)}
			if err := s.Add(op, tx.Outputs[vout], height); err != nil {
				st.Errors++
			}
		}
	}
	return st
}

// randomApplyBlock builds a random block over a population of scripts, spending
// from pool with replacement (double spends, aliens) — the difftest
// workload shape, plus occasional bursts that stress per-bucket merges.
func randomApplyBlock(rng *rand.Rand, scripts [][]byte, pool []btc.OutPoint) *btc.Block {
	blk := &btc.Block{}
	coin := &btc.Transaction{Version: 2, Inputs: []btc.TxIn{{
		PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff},
		SignatureScript:  []byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))},
	}}, Outputs: []btc.TxOut{{Value: 5000, PkScript: scripts[rng.Intn(len(scripts))]}}}
	blk.Transactions = append(blk.Transactions, coin)
	for n := rng.Intn(6); n > 0; n-- {
		tx := &btc.Transaction{Version: 2}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			if len(pool) > 0 && rng.Intn(3) > 0 {
				tx.Inputs = append(tx.Inputs, btc.TxIn{PreviousOutPoint: pool[rng.Intn(len(pool))]})
			} else {
				var fake btc.OutPoint
				rng.Read(fake.TxID[:])
				tx.Inputs = append(tx.Inputs, btc.TxIn{PreviousOutPoint: fake})
			}
		}
		outs := 1 + rng.Intn(3)
		if rng.Intn(8) == 0 {
			outs = 20 + rng.Intn(20) // burst: deep same-address bucket
		}
		script := scripts[rng.Intn(len(scripts))]
		for k := 0; k < outs; k++ {
			sc := script
			if rng.Intn(4) == 0 {
				sc = scripts[rng.Intn(len(scripts))]
			}
			tx.Outputs = append(tx.Outputs, btc.TxOut{Value: 500 + int64(rng.Intn(9000)), PkScript: sc})
		}
		blk.Transactions = append(blk.Transactions, tx)
	}
	return blk
}

// randomBlocks draws 40 blocks with randomApplyBlock over nScripts scripts,
// each spending from every output drawn before it, at heights 1 to 40.
func randomBlocks(seed int64, nScripts int) (blocks []*btc.Block, heights []int64) {
	rng := rand.New(rand.NewSource(seed))
	scripts := make([][]byte, nScripts)
	for i := range scripts {
		var h [20]byte
		rng.Read(h[:])
		scripts[i] = btc.PayToAddrScript(btc.NewP2PKHAddress(h, btc.Regtest))
	}
	var pool []btc.OutPoint
	for height := int64(1); height <= 40; height++ {
		blk := randomApplyBlock(rng, scripts, pool)
		txids := blk.TxIDs()
		for ti, tx := range blk.Transactions {
			for v := range tx.Outputs {
				pool = append(pool, btc.OutPoint{TxID: txids[ti], Vout: uint32(v)})
			}
		}
		blocks, heights = append(blocks, blk), append(heights, height)
	}
	return blocks, heights
}

// TestApplyBlockBatchedEquivalence holds the batched fold to the strict
// per-entry reference over random workloads full of missing inputs and
// double spends (checkStrictFold): most blocks are rejected, and the set
// refolded from the accepted ones.
func TestApplyBlockBatchedEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		blocks, heights := randomBlocks(seed, 6)
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { checkStrictFold(t, blocks, heights) })
	}
}

// foldBothWays folds blocks into two sets and holds both to the per-entry
// ingestNaive loop: one is read after every fold, its bytes compared block by
// block; the other folds them all with no read in between, so its index
// halves trail the table, its stats compared block by block and its bytes
// once at the end.
func foldBothWays(t *testing.T, blocks []*btc.Block, heights []int64) (stepped, trailing *Set) {
	t.Helper()
	stepped, trailing, naive := New(btc.Regtest), New(btc.Regtest), New(btc.Regtest)
	trailingStats := make([]IngestStats, len(blocks))
	for i, blk := range blocks {
		trailingStats[i] = trailing.ApplyBlockIngest(blk, heights[i])
	}
	for i, blk := range blocks {
		want := ingestNaive(naive, blk, heights[i])
		if got := stepped.ApplyBlockIngest(blk, heights[i]); got != want {
			t.Fatalf("block %d: stats %+v, per-entry loop %+v", i, got, want)
		}
		if got := trailingStats[i]; got != want {
			t.Fatalf("block %d: stats with the index trailing %+v, per-entry loop %+v", i, got, want)
		}
		if !bytes.Equal(encodeSet(stepped), encodeSet(naive)) {
			t.Fatalf("block %d: encoded set differs from the per-entry loop's", i)
		}
	}
	if !bytes.Equal(encodeSet(trailing), encodeSet(naive)) {
		t.Fatal("encoded set folded with no read between blocks differs from the per-entry loop's")
	}
	return stepped, trailing
}

// TestApplyBlockIngestEquivalence pins the tolerant batched fold against
// the per-entry tolerant loop: identical final state and identical
// metering classification (interned vs fresh at processing time), across
// workloads full of missing inputs and duplicate outputs.
func TestApplyBlockIngestEquivalence(t *testing.T) {
	for seed := int64(100); seed < 106; seed++ {
		blocks, heights := randomBlocks(seed, 5)
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { foldBothWays(t, blocks, heights) })
	}
}

// TestApplyBlockInBlockSpendChain: a block whose later transaction spends an
// output an earlier transaction in the same block created (routine in real
// Bitcoin) folds with no error; the chained output never reaches the set,
// its siblings do.
func TestApplyBlockInBlockSpendChain(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var h1, h2 [20]byte
	rng.Read(h1[:])
	rng.Read(h2[:])
	scriptA := btc.PayToAddrScript(btc.NewP2PKHAddress(h1, btc.Regtest))
	scriptB := btc.PayToAddrScript(btc.NewP2PKHAddress(h2, btc.Regtest))

	s := New(btc.Regtest)
	var base btc.OutPoint
	rng.Read(base.TxID[:])
	if err := s.Add(base, btc.TxOut{Value: 7000, PkScript: scriptA}, 1); err != nil {
		t.Fatal(err)
	}

	tx1 := &btc.Transaction{Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff}}},
		Outputs: []btc.TxOut{{Value: 5000, PkScript: scriptB}, {Value: 100, PkScript: scriptA}}}
	// tx2 spends tx1's first output AND a pre-existing one, creating fresh
	// outputs — the chained shape.
	tx2 := &btc.Transaction{Version: 2,
		Inputs: []btc.TxIn{
			{PreviousOutPoint: btc.OutPoint{TxID: tx1.TxID(), Vout: 0}},
			{PreviousOutPoint: base},
		},
		Outputs: []btc.TxOut{{Value: 4000, PkScript: scriptB}}}
	blk := &btc.Block{Transactions: []*btc.Transaction{tx1, tx2}}

	// tx2's output is fresh: spending tx1's output released script B.
	if st := s.ApplyBlockIngest(blk, 2); st != (IngestStats{InputsRemoved: 2, OutputsInterned: 1, OutputsFresh: 2}) {
		t.Fatalf("stats %+v, want 2 removes, 1 interned and 2 fresh outputs, no errors", st)
	}
	if _, ok := s.Get(btc.OutPoint{TxID: tx1.TxID(), Vout: 0}); ok {
		t.Fatal("in-block-spent output still in set")
	}
	if _, ok := s.Get(btc.OutPoint{TxID: tx2.TxID(), Vout: 0}); !ok {
		t.Fatal("chained transaction's output missing")
	}
	if s.Len() != 2 || s.Balance(btc.ScriptID(scriptB, btc.Regtest)) != 4000 {
		t.Fatalf("%d outputs, balance of B %d; want 2 and 4000", s.Len(), s.Balance(btc.ScriptID(scriptB, btc.Regtest)))
	}
	checkIndexInvariants(t, s)
}

// Opcodes of the FuzzTolerantFold program: a byte string is read as blocks
// of transactions over four scripts. Every operand is one byte, taken modulo
// what it selects from; a program that runs out of bytes ends there.
const (
	foldOpTx        = iota // nIn, nIn x source, nOut, nOut x (script, value): a new transaction
	foldOpRepeat           // k: the block's k-th transaction again (same txid)
	foldOpReplay           // k: the k-th transaction of all earlier ones again, now in this block
	foldOpEndBlock         // fold the block; the next one is one height up
	foldOpSameBlock        // fold the block; the next one is folded at the same height
	foldOps
)

// foldSourceMissing as an input source spends an outpoint nothing created;
// any other source byte picks an output created so far, this block's
// included, so in-block chains and double spends come up by themselves.
const foldSourceMissing = 0xff

// foldProgram decodes data into blocks with the heights to fold them at.
func foldProgram(data []byte) (blocks []*btc.Block, heights []int64) {
	scripts := make([][]byte, 4)
	for i := range scripts {
		scripts[i] = btc.PayToPubKeyHashScript([20]byte{byte(i + 1)})
	}
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	var (
		earlier []*btc.Transaction // transactions of closed blocks
		pool    []btc.OutPoint     // every output created so far
		serial  uint32
		height  = int64(1)
	)
	newBlock := func() *btc.Block {
		serial++
		return &btc.Block{Transactions: []*btc.Transaction{{Version: 2, LockTime: serial,
			Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff}}},
			Outputs: []btc.TxOut{{Value: 50, PkScript: scripts[0]}}}}}
	}
	blk := newBlock()
	closeBlock := func(step int64) {
		blocks, heights = append(blocks, blk), append(heights, height)
		earlier = append(earlier, blk.Transactions...)
		height += step
		blk = newBlock()
	}
	for len(blocks) < 16 {
		op, ok := next()
		if !ok {
			break
		}
		switch op % foldOps {
		case foldOpTx:
			serial++
			tx := &btc.Transaction{Version: 2, LockTime: serial}
			nIn, _ := next()
			for i := byte(0); i <= nIn%3; i++ {
				src, _ := next()
				in := btc.OutPoint{TxID: btc.Hash{0xee, src, byte(i)}, Vout: 7}
				if src != foldSourceMissing && len(pool) > 0 {
					in = pool[int(src)%len(pool)]
				}
				tx.Inputs = append(tx.Inputs, btc.TxIn{PreviousOutPoint: in})
			}
			nOut, _ := next()
			for i := byte(0); i <= nOut%3; i++ {
				sc, _ := next()
				v, _ := next()
				tx.Outputs = append(tx.Outputs, btc.TxOut{Value: 1 + int64(v), PkScript: scripts[int(sc)%len(scripts)]})
			}
			blk.Transactions = append(blk.Transactions, tx)
			for v := range tx.Outputs {
				pool = append(pool, btc.OutPoint{TxID: tx.TxID(), Vout: uint32(v)})
			}
		case foldOpRepeat:
			k, _ := next()
			blk.Transactions = append(blk.Transactions, blk.Transactions[int(k)%len(blk.Transactions)])
		case foldOpReplay:
			if k, _ := next(); len(earlier) > 0 {
				blk.Transactions = append(blk.Transactions, earlier[int(k)%len(earlier)])
			}
		case foldOpEndBlock:
			closeBlock(1)
		case foldOpSameBlock:
			closeBlock(0)
		}
	}
	closeBlock(1)
	return blocks, heights
}

// foldTx writes one foldOpTx in a program's bytes: its input sources, then a
// (script, value) pair per output.
func foldTx(sources []byte, outs ...byte) []byte {
	p := append([]byte{foldOpTx, byte(len(sources) - 1)}, sources...)
	return append(append(p, byte(len(outs)/2-1)), outs...)
}

// foldSeeds is the seed corpus of the fuzz targets that run foldProgram's
// blocks: one program per way a block can name an outpoint twice.
func foldSeeds() [][]byte {
	tx := foldTx
	seq := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	end := []byte{foldOpEndBlock}
	return [][]byte{
		// In-block spend chain: each transaction spends the one before it.
		seq(tx([]byte{foldSourceMissing}, 1, 10, 2, 20), tx([]byte{0}, 1, 30), tx([]byte{2}, 3, 40), end),
		// A transaction duplicated inside a block: its second copy's outputs
		// are duplicates.
		seq(tx([]byte{foldSourceMissing}, 1, 10, 1, 11), []byte{foldOpRepeat, 1}, end),
		// Spend-then-recreate of one outpoint, with its only script
		// un-interned in between: create, spend, repeat the creator.
		seq(tx([]byte{foldSourceMissing}, 3, 10), tx([]byte{0}, 1, 5), []byte{foldOpRepeat, 1}, end),
		// The same across blocks: the creator folded, then spent and replayed.
		seq(tx([]byte{foldSourceMissing}, 3, 10, 3, 11), end, tx([]byte{0}, 1, 5), []byte{foldOpReplay, 1}, end),
		// Missing inputs, one of them spent twice.
		seq(tx([]byte{foldSourceMissing, foldSourceMissing, foldSourceMissing}, 2, 9), end),
		// An output whose outpoint already sits in the set: a stable
		// transaction replayed in a later block.
		seq(tx([]byte{foldSourceMissing}, 1, 10, 2, 20), end, []byte{foldOpReplay, 1}, end),
		// Two folds at one height, the second spending into and adding to the
		// first one's height groups.
		seq(tx([]byte{foldSourceMissing}, 1, 10, 1, 11, 1, 12), []byte{foldOpSameBlock}, tx([]byte{1}, 1, 13, 1, 14), end),
		// The same, the second fold's spending transaction also taking an
		// output created earlier in its own block: one spend is a bucket
		// removal, the other a pending insert, at one height.
		seq(tx([]byte{foldSourceMissing}, 1, 10, 1, 11, 1, 12), []byte{foldOpSameBlock},
			tx([]byte{foldSourceMissing}, 2, 13, 2, 14), tx([]byte{1, 3}, 3, 15), end),
	}
}

// FuzzTolerantFold is the differential net under the single-pass fold: any
// program of blocks must leave the set and the metering stats exactly as the
// per-entry ingestNaive loop does — read after every block, and folded whole
// with the index trailing, once the last read has settled it.
func FuzzTolerantFold(f *testing.F) {
	for _, seed := range foldSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		blocks, heights := foldProgram(data)
		stepped, trailing := foldBothWays(t, blocks, heights)
		for _, fold := range []*Set{stepped, trailing} {
			checkIndexInvariants(t, fold)
			for id := range fold.scripts {
				if fold.scripts[id].pend != 0 {
					t.Fatalf("script %x left with fold scratch set", fold.scripts[id].bytes)
				}
			}
		}
	})
}

// checkStrictFold folds blocks the way a Bitcoin node keeps its view of the
// active chain: a block whose fold counts an error is rejected, and the set is
// refolded from the blocks accepted before it. Block by block it holds that to
// strict application: the fold counts no error exactly when the strict apply
// succeeds (applyBlockNaive), and the two sets then encode identically — after
// a rejection too, so the strict apply's rollback and the refold agree.
func checkStrictFold(t *testing.T, blocks []*btc.Block, heights []int64) {
	t.Helper()
	fold, strict := New(btc.Regtest), New(btc.Regtest)
	var accepted []int
	for i, blk := range blocks {
		st := fold.ApplyBlockIngest(blk, heights[i])
		err := applyBlockNaive(strict, blk, heights[i])
		if (st.Errors == 0) != (err == nil) {
			t.Fatalf("block %d: the fold counts %d errors, the strict apply returns %v", i, st.Errors, err)
		}
		if err == nil {
			accepted = append(accepted, i)
		} else {
			fold = New(btc.Regtest)
			for _, j := range accepted {
				fold.ApplyBlockIngest(blocks[j], heights[j])
			}
		}
		if !bytes.Equal(encodeSet(fold), encodeSet(strict)) {
			t.Fatalf("block %d (accepted: %v): the folded set differs from the strictly applied one", i, err == nil)
		}
	}
}

// FuzzStrictFold is the net under the Bitcoin node's fold-and-refold: on any
// program of blocks, folding and rejecting a block with a counted error is
// strict application (checkStrictFold).
func FuzzStrictFold(f *testing.F) {
	for _, seed := range foldSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		blocks, heights := foldProgram(data)
		checkStrictFold(t, blocks, heights)
	})
}

// flatten lists a bucket's entries in storage order, each with its height.
func (b *bucket) flatten(t *outpointTable) []UTXO {
	var out []UTXO
	for _, g := range b.groups {
		for _, ref := range g.refs {
			e := t.at(ref)
			out = append(out, UTXO{OutPoint: e.op, Value: e.value, Height: g.height})
		}
	}
	return out
}

// TestBucketInsertGroup drives insertGroup — single entries, then one
// block-sized sorted batch — across random shapes (a height above every
// group, which is the fold's append; one between groups; one the bucket
// already holds) and checks the bucket against a plain sorted list.
func TestBucketInsertGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 300; iter++ {
		var b bucket
		tbl := newOutpointTable(uint64(iter), 0)
		var want []UTXO
		var balance int64
		randEntry := func(height, value int64) uint32 {
			for {
				var op btc.OutPoint
				rng.Read(op.TxID[:2]) // short txids collide on purpose: vout breaks ties
				op.Vout = uint32(rng.Intn(3))
				if ref, fresh := tbl.put(&op); fresh {
					tbl.at(ref).value, *tbl.heightAt(ref) = value, height
					want = append(want, UTXO{OutPoint: op, Value: value, Height: height})
					balance += value
					return ref
				}
			}
		}
		for i, n := 0, rng.Intn(30); i < n; i++ {
			h := int64(rng.Intn(6))
			b.insertGroup(tbl.chunks, h, []uint32{randEntry(h, int64(i))})
		}
		h := int64(rng.Intn(8)) // often above existing heights, sometimes inside
		batch := make([]uint32, 1+rng.Intn(20))
		for i := range batch {
			batch[i] = randEntry(h, int64(100+i))
		}
		tbl.chunks.sortRefs(batch)
		b.insertGroup(tbl.chunks, h, batch)

		sort.Slice(want, func(i, j int) bool { return storageBefore(&want[i], &want[j]) })
		got := b.flatten(&tbl)
		if len(got) != len(want) || b.count != len(want) || b.balance != balance {
			t.Fatalf("iter %d: %d entries (count %d, balance %d), want %d (balance %d)",
				iter, len(got), b.count, b.balance, len(want), balance)
		}
		for i := range got {
			if got[i].OutPoint != want[i].OutPoint || got[i].Height != want[i].Height || got[i].Value != want[i].Value {
				t.Fatalf("iter %d: entry %d is %+v, want %+v", iter, i, got[i], want[i])
			}
		}
	}
}

// storageBefore is the bucket's storage order spelled out over flattened
// entries: height ascending, then txid, then vout.
func storageBefore(a, b *UTXO) bool {
	if a.Height != b.Height {
		return a.Height < b.Height
	}
	return cmpOutPoint(&a.OutPoint, &b.OutPoint) < 0
}
