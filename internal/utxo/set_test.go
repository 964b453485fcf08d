package utxo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"icbtc/internal/btc"
)

func addrKey(seed byte) (string, []byte) {
	var h [20]byte
	h[0] = seed
	addr := btc.NewP2PKHAddress(h, btc.Regtest)
	return addr.String(), btc.PayToAddrScript(addr)
}

func mustAdd(t *testing.T, s *Set, op btc.OutPoint, value int64, script []byte, height int64) {
	t.Helper()
	if err := s.Add(op, btc.TxOut{Value: value, PkScript: script}, height); err != nil {
		t.Fatal(err)
	}
}

func op(n byte, vout uint32) btc.OutPoint {
	var h btc.Hash
	h[0] = n
	return btc.OutPoint{TxID: h, Vout: vout}
}

func TestAddRemoveBalance(t *testing.T) {
	s := New(btc.Regtest)
	key, script := addrKey(1)
	mustAdd(t, s, op(1, 0), 100, script, 5)
	mustAdd(t, s, op(1, 1), 250, script, 6)

	if got := s.Balance(key); got != 350 {
		t.Fatalf("balance %d, want 350", got)
	}
	if s.Len() != 2 || s.AddressCount() != 1 {
		t.Fatalf("len=%d addrs=%d", s.Len(), s.AddressCount())
	}

	removed, err := s.Remove(op(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if removed.Value != 100 || removed.Height != 5 {
		t.Fatalf("removed %+v", removed)
	}
	if got := s.Balance(key); got != 250 {
		t.Fatalf("balance after remove %d, want 250", got)
	}
	if _, err := s.Remove(op(1, 0)); err == nil {
		t.Fatal("double spend accepted")
	}
	if err := s.Add(op(1, 1), btc.TxOut{Value: 1, PkScript: script}, 7); err == nil {
		t.Fatal("duplicate outpoint accepted")
	}
}

// TestScriptIDRecycling: the id of a script whose last output is spent goes
// to the next new script, with nothing of the old one left behind, and a
// snapshot taken in between — which names scripts by sorted position, not by
// id — restores the same set.
func TestScriptIDRecycling(t *testing.T) {
	s := New(btc.Regtest)
	keyA, scriptA := addrKey(1)
	keyB, scriptB := addrKey(2)
	keyC, scriptC := addrKey(3)
	mustAdd(t, s, op(1, 0), 100, scriptA, 5)
	mustAdd(t, s, op(1, 1), 200, scriptA, 6)
	mustAdd(t, s, op(2, 0), 300, scriptB, 6)
	idA := s.interned[string(scriptA)]
	if u, err := s.Remove(op(1, 0)); err != nil || string(u.PkScript) != string(scriptA) {
		t.Fatalf("Remove = %+v, %v", u, err)
	}
	checkIndexInvariants(t, s)
	if len(s.freeScripts) != 0 {
		t.Fatal("script id freed while an output still carries the script")
	}
	// The removed UTXO keeps its script bytes after the record is cleared.
	u, err := s.Remove(op(1, 1))
	if err != nil || string(u.PkScript) != string(scriptA) || u.Value != 200 || u.Height != 6 {
		t.Fatalf("Remove = %+v, %v", u, err)
	}
	checkIndexInvariants(t, s)
	if len(s.freeScripts) != 1 || s.freeScripts[0] != idA || s.ScriptInterned(scriptA) || s.Balance(keyA) != 0 {
		t.Fatalf("script A not released: free list %v", s.freeScripts)
	}
	assertSetsEqual(t, s, decodeSet(t, encodeSet(s)))

	mustAdd(t, s, op(3, 0), 400, scriptC, 7)
	checkIndexInvariants(t, s)
	if got := s.interned[string(scriptC)]; got != idA || len(s.scripts) != 2 {
		t.Fatalf("script C got id %d of %d records, want the freed id %d", got, len(s.scripts), idA)
	}
	if u, key, ok := s.Lookup(op(3, 0)); !ok || key != keyC || string(u.PkScript) != string(scriptC) {
		t.Fatalf("Lookup under the recycled id = %+v, %q, %v", u, key, ok)
	}
	if u, key, ok := s.Lookup(op(2, 0)); !ok || key != keyB || string(u.PkScript) != string(scriptB) {
		t.Fatalf("Lookup beside the recycled id = %+v, %q, %v", u, key, ok)
	}
	assertSetsEqual(t, s, decodeSet(t, encodeSet(s)))
}

func TestApproxBytesTracksContents(t *testing.T) {
	s := New(btc.Regtest)
	_, script := addrKey(2)
	if s.ApproxBytes() != 0 {
		t.Fatal("empty set has nonzero size")
	}
	mustAdd(t, s, op(2, 0), 1, script, 1)
	grown := s.ApproxBytes()
	if grown <= 0 {
		t.Fatal("size did not grow")
	}
	if _, err := s.Remove(op(2, 0)); err != nil {
		t.Fatal(err)
	}
	if s.ApproxBytes() != 0 {
		t.Fatalf("size %d after removing everything", s.ApproxBytes())
	}
}

func TestUTXOsForAddressSorted(t *testing.T) {
	s := New(btc.Regtest)
	key, script := addrKey(3)
	heights := []int64{3, 9, 1, 9, 5}
	for i, h := range heights {
		mustAdd(t, s, op(byte(10+i), 0), int64(i+1), script, h)
	}
	got := s.UTXOsForAddress(key)
	if len(got) != len(heights) {
		t.Fatalf("got %d UTXOs", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Height > got[i-1].Height {
			t.Fatal("not sorted by height descending")
		}
	}
	if s.UTXOsForAddress("unknown") != nil {
		t.Fatal("unknown address must return nil")
	}
}

// coinbaseTx builds a coinbase paying value to script.
func coinbaseTx(value int64, script []byte, salt byte) *btc.Transaction {
	return &btc.Transaction{
		Version: 2,
		Inputs: []btc.TxIn{{
			PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff},
			SignatureScript:  []byte{salt},
		}},
		Outputs: []btc.TxOut{{Value: value, PkScript: script}},
	}
}

func spendTx(prev btc.OutPoint, value int64, script []byte) *btc.Transaction {
	return &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: prev, Sequence: 0xffffffff}},
		Outputs: []btc.TxOut{{Value: value, PkScript: script}},
	}
}

func TestApplyUnapplyBlock(t *testing.T) {
	s := New(btc.Regtest)
	keyA, scriptA := addrKey(4)
	keyB, scriptB := addrKey(5)

	cb := coinbaseTx(50, scriptA, 1)
	blk1 := &btc.Block{Transactions: []*btc.Transaction{cb}}
	undo1, stats1, err := s.ApplyBlock(blk1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats1.OutputsInserted != 1 || stats1.InputsRemoved != 0 {
		t.Fatalf("stats1 %+v", stats1)
	}
	if s.Balance(keyA) != 50 {
		t.Fatalf("balance A %d", s.Balance(keyA))
	}

	spend := spendTx(btc.OutPoint{TxID: cb.TxID(), Vout: 0}, 45, scriptB)
	blk2 := &btc.Block{Transactions: []*btc.Transaction{coinbaseTx(50, scriptA, 2), spend}}
	undo2, stats2, err := s.ApplyBlock(blk2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.OutputsInserted != 2 || stats2.InputsRemoved != 1 {
		t.Fatalf("stats2 %+v", stats2)
	}
	if s.Balance(keyA) != 50 || s.Balance(keyB) != 45 {
		t.Fatalf("balances A=%d B=%d", s.Balance(keyA), s.Balance(keyB))
	}

	// Undo block 2: A back to 50 (block1 coinbase), B to 0.
	if err := s.UnapplyBlock(undo2); err != nil {
		t.Fatal(err)
	}
	if s.Balance(keyA) != 50 || s.Balance(keyB) != 0 {
		t.Fatalf("after undo: A=%d B=%d", s.Balance(keyA), s.Balance(keyB))
	}
	if err := s.UnapplyBlock(undo1); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.ApproxBytes() != 0 {
		t.Fatalf("set not empty after full undo: len=%d", s.Len())
	}
}

func TestApplyBlockMissingInputRollsBack(t *testing.T) {
	s := New(btc.Regtest)
	_, scriptA := addrKey(6)
	spend := spendTx(op(99, 0), 10, scriptA) // spends a nonexistent output
	blk := &btc.Block{Transactions: []*btc.Transaction{coinbaseTx(50, scriptA, 3), spend}}
	if _, _, err := s.ApplyBlock(blk, 1); err == nil {
		t.Fatal("missing input accepted")
	}
	if s.Len() != 0 {
		t.Fatalf("partial application leaked %d outputs", s.Len())
	}
}

func TestApplySpendWithinBlock(t *testing.T) {
	// A transaction may spend an output created earlier in the same block.
	s := New(btc.Regtest)
	keyA, scriptA := addrKey(7)
	keyB, scriptB := addrKey(8)
	cb := coinbaseTx(50, scriptA, 4)
	chained := spendTx(btc.OutPoint{TxID: cb.TxID(), Vout: 0}, 49, scriptB)
	blk := &btc.Block{Transactions: []*btc.Transaction{cb, chained}}
	if _, _, err := s.ApplyBlock(blk, 1); err != nil {
		t.Fatal(err)
	}
	if s.Balance(keyA) != 0 || s.Balance(keyB) != 49 {
		t.Fatalf("A=%d B=%d", s.Balance(keyA), s.Balance(keyB))
	}
}

// TestRemovalLog: an open log answers for exactly the entries folds took that
// were in the set before their block — not an output its own block created
// and spent, not an input the set never held — from the mark asked for on,
// and a trim forgets only what precedes its mark.
func TestRemovalLog(t *testing.T) {
	s := New(btc.Regtest)
	keyA, scriptA := addrKey(9)
	keyB, scriptB := addrKey(10)
	fold := func(height int64, txs ...*btc.Transaction) {
		t.Helper()
		s.ApplyBlockIngest(&btc.Block{Transactions: txs}, height)
	}
	cb1, cb2 := coinbaseTx(50, scriptA, 1), coinbaseTx(40, scriptB, 2)
	fold(1, cb1)
	fold(2, cb2)
	x, x2 := btc.OutPoint{TxID: cb1.TxID()}, btc.OutPoint{TxID: cb2.TxID()}

	s.OpenRemovalLog()
	mark0 := s.RemovalMark()
	y := spendTx(x, 45, scriptB)
	z := spendTx(btc.OutPoint{TxID: y.TxID()}, 44, scriptA)
	alien := spendTx(op(77, 3), 1, scriptA)
	fold(3, coinbaseTx(50, scriptA, 3), y, z, alien)
	mark1 := s.RemovalMark()
	fold(4, coinbaseTx(50, scriptA, 4), spendTx(x2, 39, scriptA))
	mark2 := s.RemovalMark()
	if mark1 != mark0+1 || mark2 != mark1+1 {
		t.Fatalf("marks %d, %d, %d: want one logged removal per block", mark0, mark1, mark2)
	}

	type answer struct {
		key   string
		value int64
		ok    bool
	}
	ask := func(o btc.OutPoint, mark int) answer {
		key, value, ok := s.RemovedSince(o, mark)
		return answer{key, value, ok}
	}
	for _, c := range []struct {
		what string
		got  answer
		want answer
	}{
		{"x from the open", ask(x, mark0), answer{keyA, 50, true}},
		{"x after its fold", ask(x, mark1), answer{}},
		{"x2 from the open", ask(x2, mark0), answer{keyB, 40, true}},
		{"an output its own block spent", ask(btc.OutPoint{TxID: y.TxID()}, mark0), answer{}},
		{"an input the set never held", ask(op(77, 3), mark0), answer{}},
	} {
		if c.got != c.want {
			t.Fatalf("%s: %+v, want %+v", c.what, c.got, c.want)
		}
	}

	s.TrimRemovals(mark1)
	if got := ask(x2, mark1); got != (answer{keyB, 40, true}) {
		t.Fatalf("x2 after a trim to its own mark: %+v", got)
	}
	if got := ask(x, mark1); got.ok {
		t.Fatalf("x after a trim past it: %+v", got)
	}
	if s.RemovalMark() != mark2 {
		t.Fatalf("a trim moved the mark from %d to %d", mark2, s.RemovalMark())
	}
	s.CloseRemovalLog()
	if s.removed != nil {
		t.Fatal("a closed log is still held")
	}
}

func TestQuickApplyUnapplyIsIdentity(t *testing.T) {
	// Property: applying then unapplying a random block leaves the set
	// exactly as before (same length, size, and balances).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(btc.Regtest)
		_, scriptA := addrKey(9)
		// Seed the set with coinbases.
		var ops []btc.OutPoint
		for i := 0; i < 5; i++ {
			cb := coinbaseTx(int64(10+i), scriptA, byte(i))
			if _, _, err := s.ApplyBlock(&btc.Block{Transactions: []*btc.Transaction{cb}}, int64(i+1)); err != nil {
				return false
			}
			ops = append(ops, btc.OutPoint{TxID: cb.TxID(), Vout: 0})
		}
		lenBefore, bytesBefore := s.Len(), s.ApproxBytes()

		// Random spending block.
		txs := []*btc.Transaction{coinbaseTx(50, scriptA, 0xEE)}
		spendIdx := rng.Perm(len(ops))[:1+rng.Intn(len(ops)-1)]
		for _, i := range spendIdx {
			_, scriptX := addrKey(byte(100 + i))
			txs = append(txs, spendTx(ops[i], int64(1+rng.Intn(9)), scriptX))
		}
		undo, _, err := s.ApplyBlock(&btc.Block{Transactions: txs}, 10)
		if err != nil {
			return false
		}
		if err := s.UnapplyBlock(undo); err != nil {
			return false
		}
		return s.Len() == lenBefore && s.ApproxBytes() == bytesBefore
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForEach(t *testing.T) {
	s := New(btc.Regtest)
	_, script := addrKey(10)
	for i := 0; i < 5; i++ {
		mustAdd(t, s, op(byte(i), 0), int64(i), script, int64(i))
	}
	count := 0
	s.ForEach(func(UTXO) bool { count++; return true })
	if count != 5 {
		t.Fatalf("visited %d", count)
	}
	count = 0
	s.ForEach(func(UTXO) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestPagination(t *testing.T) {
	s := New(btc.Regtest)
	key, script := addrKey(11)
	const total = 57
	for i := 0; i < total; i++ {
		mustAdd(t, s, op(byte(i), uint32(i)), int64(i+1), script, int64(i%10))
	}
	sorted := s.UTXOsForAddress(key)

	var token PageToken
	var collected []Coin
	pages := 0
	for {
		page, next, err := Page(sorted, token, 10)
		if err != nil {
			t.Fatal(err)
		}
		collected = append(collected, page...)
		pages++
		if next == nil {
			break
		}
		token = next
	}
	if pages != 6 {
		t.Fatalf("pages %d, want 6", pages)
	}
	if len(collected) != total {
		t.Fatalf("collected %d, want %d", len(collected), total)
	}
	// Pagination must preserve canonical order and completeness.
	for i := range collected {
		if collected[i].OutPoint != sorted[i].OutPoint || collected[i].Height != sorted[i].Height {
			t.Fatalf("page ordering broken at %d", i)
		}
	}
}

func TestPaginationStableUnderGrowth(t *testing.T) {
	// New UTXOs at greater heights sort before the cursor and must not
	// disturb resumption of an in-flight pagination.
	s := New(btc.Regtest)
	key, script := addrKey(12)
	for i := 0; i < 20; i++ {
		mustAdd(t, s, op(byte(i), 0), int64(i+1), script, int64(i))
	}
	sorted := s.UTXOsForAddress(key)
	first, token, err := Page(sorted, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 5 || token == nil {
		t.Fatal("first page wrong")
	}
	// New block adds UTXOs at height 100.
	mustAdd(t, s, op(200, 0), 999, script, 100)
	resorted := s.UTXOsForAddress(key)
	rest, _, err := Page(resorted, token, 100)
	if err != nil {
		t.Fatal(err)
	}
	// The rest must be exactly the remaining 15 original UTXOs.
	if len(rest) != 15 {
		t.Fatalf("rest %d, want 15", len(rest))
	}
	for _, u := range rest {
		if u.Height >= 15 && u.Height != int64(u.Value-1) {
			t.Fatalf("unexpected UTXO %+v in continuation", u)
		}
	}
}

func TestPageErrors(t *testing.T) {
	if _, _, err := Page(nil, nil, 0); err == nil {
		t.Fatal("zero limit accepted")
	}
	if _, _, err := Page(nil, PageToken{1, 2, 3}, 5); err == nil {
		t.Fatal("malformed token accepted")
	}
	page, next, err := Page(nil, nil, 5)
	if err != nil || len(page) != 0 || next != nil {
		t.Fatal("empty input paging wrong")
	}
}

func TestQuickPaginationComplete(t *testing.T) {
	// Property: for any UTXO population and page size, pagination visits
	// every UTXO exactly once.
	f := func(seed int64, limitRaw uint8) bool {
		limit := int(limitRaw%20) + 1
		rng := rand.New(rand.NewSource(seed))
		s := New(btc.Regtest)
		key, script := addrKey(13)
		n := rng.Intn(60)
		for i := 0; i < n; i++ {
			if err := s.Add(op(byte(i), uint32(i)), btc.TxOut{Value: int64(i + 1), PkScript: script}, int64(rng.Intn(8))); err != nil {
				return false
			}
		}
		sorted := s.UTXOsForAddress(key)
		seen := make(map[btc.OutPoint]int)
		var token PageToken
		for {
			page, next, err := Page(sorted, token, limit)
			if err != nil {
				return false
			}
			for _, u := range page {
				seen[u.OutPoint]++
			}
			if next == nil {
				break
			}
			token = next
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
