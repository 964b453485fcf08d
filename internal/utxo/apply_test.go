package utxo

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"icbtc/internal/btc"
)

// applyBlockNaive is the per-entry reference the batched ApplyBlock is
// pinned against: the exact Remove/Add loop (with its Remove-then-re-Add
// rollback) the set used before the staged rewrite.
func applyBlockNaive(s *Set, block *btc.Block, height int64) (*BlockUndo, ApplyStats, error) {
	undo := &BlockUndo{}
	var stats ApplyStats
	rollback := func() {
		for i := len(undo.Created) - 1; i >= 0; i-- {
			_, _ = s.Remove(undo.Created[i])
		}
		for i := len(undo.Spent) - 1; i >= 0; i-- {
			u := undo.Spent[i]
			_ = s.Add(u.OutPoint, btc.TxOut{Value: u.Value, PkScript: u.PkScript}, u.Height)
		}
	}
	txids := block.TxIDs()
	for ti, tx := range block.Transactions {
		if !tx.IsCoinbase() {
			for i := range tx.Inputs {
				spent, err := s.Remove(tx.Inputs[i].PreviousOutPoint)
				if err != nil {
					rollback()
					return nil, ApplyStats{}, err
				}
				undo.Spent = append(undo.Spent, spent)
				stats.InputsRemoved++
			}
		}
		txid := txids[ti]
		for vout := range tx.Outputs {
			op := btc.OutPoint{TxID: txid, Vout: uint32(vout)}
			if err := s.Add(op, tx.Outputs[vout], height); err != nil {
				rollback()
				return nil, ApplyStats{}, err
			}
			undo.Created = append(undo.Created, op)
			stats.OutputsInserted++
			stats.BytesInserted += len(tx.Outputs[vout].PkScript) + 8
		}
	}
	return undo, stats, nil
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

// TestApplyBlockBatchedEquivalence drives the batched ApplyBlock and the
// per-entry reference through an identical random workload (tolerant
// ingest interleaved on separate sets) and requires byte-identical encoded
// state, identical undo data, stats, and errors at every block.
func TestApplyBlockBatchedEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		scripts := make([][]byte, 6)
		for i := range scripts {
			var h [20]byte
			rng.Read(h[:])
			scripts[i] = btc.PayToAddrScript(btc.NewP2PKHAddress(h, btc.Regtest))
		}
		batched := New(btc.Regtest)
		naive := New(btc.Regtest)
		var pool []btc.OutPoint
		for height := int64(1); height <= 40; height++ {
			blk := randomApplyBlock(rng, scripts, pool)
			txids := blk.TxIDs()
			for ti, tx := range blk.Transactions {
				for v := range tx.Outputs {
					pool = append(pool, btc.OutPoint{TxID: txids[ti], Vout: uint32(v)})
				}
			}

			undoB, statsB, errB := batched.ApplyBlock(blk, height)
			undoN, statsN, errN := applyBlockNaive(naive, blk, height)
			if (errB == nil) != (errN == nil) {
				t.Fatalf("seed %d height %d: error divergence: batched=%v naive=%v", seed, height, errB, errN)
			}
			if errB == nil {
				if statsB != statsN {
					t.Fatalf("seed %d height %d: stats divergence: %+v vs %+v", seed, height, statsB, statsN)
				}
				if len(undoB.Spent) != len(undoN.Spent) || len(undoB.Created) != len(undoN.Created) {
					t.Fatalf("seed %d height %d: undo shape divergence", seed, height)
				}
				for i := range undoB.Spent {
					a, b := undoB.Spent[i], undoN.Spent[i]
					if a.OutPoint != b.OutPoint || a.Value != b.Value || a.Height != b.Height || !bytes.Equal(a.PkScript, b.PkScript) {
						t.Fatalf("seed %d height %d: undo.Spent[%d] diverged", seed, height, i)
					}
				}
				for i := range undoB.Created {
					if undoB.Created[i] != undoN.Created[i] {
						t.Fatalf("seed %d height %d: undo.Created[%d] diverged", seed, height, i)
					}
				}
			}
			if !bytes.Equal(encodeSet(batched), encodeSet(naive)) {
				t.Fatalf("seed %d height %d: encoded state diverged", seed, height)
			}
			// Unapply/reapply round trip keeps both in lockstep too.
			if errB == nil && rng.Intn(4) == 0 {
				if err := batched.UnapplyBlock(undoB); err != nil {
					t.Fatalf("seed %d height %d: unapply batched: %v", seed, height, err)
				}
				if err := naive.UnapplyBlock(undoN); err != nil {
					t.Fatalf("seed %d height %d: unapply naive: %v", seed, height, err)
				}
				if !bytes.Equal(encodeSet(batched), encodeSet(naive)) {
					t.Fatalf("seed %d height %d: post-unapply state diverged", seed, height)
				}
				if _, _, err := batched.ApplyBlock(blk, height); err != nil {
					t.Fatal(err)
				}
				if _, _, err := applyBlockNaive(naive, blk, height); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// foldBothWays folds blocks into two sets and holds both to the per-entry
// ingestNaive loop: one folds inline, its bytes compared after every block;
// the other folds them all inside one FoldSession, its stats compared block by
// block and its bytes once the session has drained.
func foldBothWays(t *testing.T, blocks []*btc.Block, heights []int64) (inline, session *Set) {
	t.Helper()
	inline, session, naive := New(btc.Regtest), New(btc.Regtest), New(btc.Regtest)
	var sessionStats []IngestStats
	session.FoldSession(func() {
		for i, blk := range blocks {
			sessionStats = append(sessionStats, session.ApplyBlockIngest(blk, heights[i]))
		}
	})
	for i, blk := range blocks {
		want := ingestNaive(naive, blk, heights[i])
		if got := inline.ApplyBlockIngest(blk, heights[i]); got != want {
			t.Fatalf("block %d: stats %+v, per-entry loop %+v", i, got, want)
		}
		if got := sessionStats[i]; got != want {
			t.Fatalf("block %d: stats in a session %+v, per-entry loop %+v", i, got, want)
		}
		if !bytes.Equal(encodeSet(inline), encodeSet(naive)) {
			t.Fatalf("block %d: encoded set differs from the per-entry loop's", i)
		}
	}
	if !bytes.Equal(encodeSet(session), encodeSet(naive)) {
		t.Fatal("encoded set folded in a session differs from the per-entry loop's")
	}
	return inline, session
}

// TestApplyBlockIngestEquivalence pins the tolerant batched fold against
// the per-entry tolerant loop: identical final state and identical
// metering classification (interned vs fresh at processing time), across
// workloads full of missing inputs and duplicate outputs.
func TestApplyBlockIngestEquivalence(t *testing.T) {
	for seed := int64(100); seed < 106; seed++ {
		rng := rand.New(rand.NewSource(seed))
		scripts := make([][]byte, 5)
		for i := range scripts {
			var h [20]byte
			rng.Read(h[:])
			scripts[i] = btc.PayToAddrScript(btc.NewP2PKHAddress(h, btc.Regtest))
		}
		var pool []btc.OutPoint
		var blocks []*btc.Block
		var heights []int64
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
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { foldBothWays(t, blocks, heights) })
	}
}

// TestApplyBlockMidBlockFailure is the satellite regression: a block that
// fails mid-way (earlier transactions already created outputs and spent
// inputs) must leave the set — outpoint map, address index, interned
// scripts, balances — byte-identical to the pre-apply state, with no
// ScriptID re-derivation on any rollback path (there is none to take).
func TestApplyBlockMidBlockFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var h1, h2 [20]byte
	rng.Read(h1[:])
	rng.Read(h2[:])
	scriptA := btc.PayToAddrScript(btc.NewP2PKHAddress(h1, btc.Regtest))
	scriptB := btc.PayToAddrScript(btc.NewP2PKHAddress(h2, btc.Regtest))

	s := New(btc.Regtest)
	var seedOps []btc.OutPoint
	for i := 0; i < 10; i++ {
		var op btc.OutPoint
		rng.Read(op.TxID[:])
		seedOps = append(seedOps, op)
		if err := s.Add(op, btc.TxOut{Value: 1000 + int64(i), PkScript: scriptA}, 1); err != nil {
			t.Fatal(err)
		}
	}
	before := encodeSet(s)
	beforeLen, beforeInterned := s.Len(), s.InternedScripts()

	var missing btc.OutPoint
	rng.Read(missing.TxID[:])
	blk := &btc.Block{Transactions: []*btc.Transaction{
		{Version: 2, Inputs: []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff}}},
			Outputs: []btc.TxOut{{Value: 5000, PkScript: scriptB}}},
		// Spends real outputs and creates new ones for a brand-new script.
		{Version: 2, Inputs: []btc.TxIn{{PreviousOutPoint: seedOps[0]}, {PreviousOutPoint: seedOps[1]}},
			Outputs: []btc.TxOut{{Value: 100, PkScript: scriptB}, {Value: 200, PkScript: scriptB}}},
		// Fails: spends an outpoint the set never held.
		{Version: 2, Inputs: []btc.TxIn{{PreviousOutPoint: missing}},
			Outputs: []btc.TxOut{{Value: 300, PkScript: scriptA}}},
	}}

	undo, stats, err := s.ApplyBlock(blk, 2)
	if err == nil {
		t.Fatal("mid-block failure not reported")
	}
	if undo != nil || stats != (ApplyStats{}) {
		t.Fatalf("failed apply returned undo=%v stats=%+v", undo, stats)
	}
	if got := encodeSet(s); !bytes.Equal(before, got) {
		t.Fatal("failed apply left the set changed: encoded state differs from pre-apply state")
	}
	if s.Len() != beforeLen || s.InternedScripts() != beforeInterned {
		t.Fatalf("failed apply leaked state: len %d->%d, interned %d->%d",
			beforeLen, s.Len(), beforeInterned, s.InternedScripts())
	}
	// scriptB must not have been interned by the failed block.
	if s.ScriptInterned(scriptB) {
		t.Fatal("failed apply interned a script from an uncommitted block")
	}
}

// TestApplyBlockInBlockSpendChain: a block whose later transaction spends
// an output an earlier transaction in the same block created (routine in
// real Bitcoin) must apply, and — the regression — unapply back to a
// byte-identical pre-apply state. The old per-entry apply recorded such
// pairs in both undo lists, which made UnapplyBlock fail on the Created
// removal; netted undo excludes the pair entirely.
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
	before := encodeSet(s)

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

	undo, stats, err := s.ApplyBlock(blk, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.OutputsInserted != 3 || stats.InputsRemoved != 2 {
		t.Fatalf("stats %+v, want 3 inserts / 2 removes", stats)
	}
	// Netted undo: the chained output never appears; the surviving two do.
	if len(undo.Created) != 2 || len(undo.Spent) != 1 || undo.Spent[0].OutPoint != base {
		t.Fatalf("undo shape: %d created, %d spent", len(undo.Created), len(undo.Spent))
	}
	// The chained output must be gone, its siblings present.
	if _, ok := s.Get(btc.OutPoint{TxID: tx1.TxID(), Vout: 0}); ok {
		t.Fatal("in-block-spent output still in set")
	}
	if _, ok := s.Get(btc.OutPoint{TxID: tx2.TxID(), Vout: 0}); !ok {
		t.Fatal("chained transaction's output missing")
	}

	if err := s.UnapplyBlock(undo); err != nil {
		t.Fatalf("unapply of in-block spend chain: %v", err)
	}
	if got := encodeSet(s); !bytes.Equal(before, got) {
		t.Fatal("unapply did not restore the pre-apply state byte-identically")
	}
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
// per-entry ingestNaive loop does — folded inline, block after block, and
// folded inside one FoldSession, once it has drained.
func FuzzTolerantFold(f *testing.F) {
	for _, seed := range foldSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		blocks, heights := foldProgram(data)
		inline, session := foldBothWays(t, blocks, heights)
		for _, fold := range []*Set{inline, session} {
			checkIndexInvariants(t, fold)
			for id := range fold.scripts {
				if fold.scripts[id].pend != 0 {
					t.Fatalf("script %x left with fold scratch set", fold.scripts[id].bytes)
				}
			}
		}
	})
}

// flatten lists a bucket's entries in storage order, each with its height.
func (b *bucket) flatten() []UTXO {
	var out []UTXO
	for _, g := range b.groups {
		for _, e := range g.entries {
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
		var want []UTXO
		var balance int64
		seen := make(map[btc.OutPoint]bool)
		randEntry := func(height, value int64) bucketEntry {
			for {
				e := bucketEntry{value: value}
				rng.Read(e.op.TxID[:2]) // short txids collide on purpose: vout breaks ties
				e.op.Vout = uint32(rng.Intn(3))
				if !seen[e.op] {
					seen[e.op] = true
					want = append(want, UTXO{OutPoint: e.op, Value: value, Height: height})
					balance += value
					return e
				}
			}
		}
		for i, n := 0, rng.Intn(30); i < n; i++ {
			h := int64(rng.Intn(6))
			b.insertGroup(h, []bucketEntry{randEntry(h, int64(i))})
		}
		h := int64(rng.Intn(8)) // often above existing heights, sometimes inside
		batch := make([]bucketEntry, 1+rng.Intn(20))
		for i := range batch {
			batch[i] = randEntry(h, int64(100+i))
		}
		sortEntries(batch)
		b.insertGroup(h, batch)

		sort.Slice(want, func(i, j int) bool { return storageBefore(&want[i], &want[j]) })
		got := b.flatten()
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
