package utxo

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"icbtc/internal/btc"
)

// mapOracle is the naive reference implementation the ordered index is
// checked against: a flat outpoint map with balances and views recomputed
// from scratch on every probe.
type mapOracle struct {
	network btc.Network
	utxos   map[btc.OutPoint]UTXO
}

func newMapOracle(network btc.Network) *mapOracle {
	return &mapOracle{network: network, utxos: make(map[btc.OutPoint]UTXO)}
}

func (o *mapOracle) add(op btc.OutPoint, out btc.TxOut, height int64) bool {
	if _, dup := o.utxos[op]; dup {
		return false
	}
	script := append([]byte(nil), out.PkScript...)
	o.utxos[op] = UTXO{OutPoint: op, Value: out.Value, PkScript: script, Height: height}
	return true
}

func (o *mapOracle) remove(op btc.OutPoint) bool {
	if _, ok := o.utxos[op]; !ok {
		return false
	}
	delete(o.utxos, op)
	return true
}

func (o *mapOracle) balance(key string) int64 {
	var total int64
	for _, u := range o.utxos {
		if btc.ScriptID(u.PkScript, o.network) == key {
			total += u.Value
		}
	}
	return total
}

func (o *mapOracle) forAddress(key string) []UTXO {
	var out []UTXO
	for _, u := range o.utxos {
		if btc.ScriptID(u.PkScript, o.network) == key {
			out = append(out, u)
		}
	}
	SortUTXOs(out)
	return out
}

// checkIndexInvariants verifies the bucket layout itself, which the
// observable checks cannot see: group heights strictly ascending, no group
// left empty, the runs tiling the bucket's slab in group order, refs in the
// canonical txid/vout order of their entries, count and balance equal to
// what the groups hold, and no bucket kept once it is drained. It then holds
// the outpoint table and the script records to the buckets: every ref names
// a live arena slot, indexed under its outpoint, at its group's height, whose
// script is keyed to its bucket; no ref appears twice or sits on the free
// chain or on a chain of held slots (the table's own, or one a trailing fold
// keeps until it is recycled); every other slot is on one of those chains; a
// script's reference count is the number of entries that name its id, and an
// id on the free list is a cleared record no entry names.
func checkIndexInvariants(t *testing.T, set *Set) {
	t.Helper()
	set.settle()
	tbl := &set.table
	taken := make(map[uint32]bool)
	chains := []uint32{tbl.free, tbl.held.head}
	for _, f := range set.trail {
		chains = append(chains, f.held.head)
	}
	for _, head := range chains {
		for _, ref := range takenChain(t, tbl, head) {
			if taken[ref] {
				t.Fatalf("arena slot %d is on two chains of taken slots", ref)
			}
			taken[ref] = true
		}
	}
	total := 0
	seen := make(map[uint32]bool, set.Len())
	refs := make([]int32, len(set.scripts))
	for key, b := range set.byAddress {
		count, balance := 0, int64(0)
		for gi := range b.groups {
			g := &b.groups[gi]
			if g.n == 0 {
				t.Fatalf("bucket %s: empty group kept at height %d", key, g.height)
			}
			if gi > 0 && b.groups[gi-1].height >= g.height {
				t.Fatalf("bucket %s: group heights not ascending at %d", key, gi)
			}
			if int(g.lo) != count || int(g.lo)+int(g.n) > len(b.refs) {
				t.Fatalf("bucket %s height %d: run [%d, +%d) of a slab of %d, want it from %d", key, g.height, g.lo, g.n, len(b.refs), count)
			}
			run := b.run(g)
			for i, ref := range run {
				switch {
				case ref >= tbl.used:
					t.Fatalf("bucket %s height %d: ref %d past the %d slots handed out", key, g.height, ref, tbl.used)
				case seen[ref]:
					t.Fatalf("bucket %s height %d: ref %d appears twice", key, g.height, ref)
				case taken[ref]:
					t.Fatalf("bucket %s height %d: ref %d is on a chain of taken slots", key, g.height, ref)
				}
				seen[ref] = true
				e := tbl.at(ref)
				if e.script == freeSlot {
					t.Fatalf("bucket %s height %d: ref %d names a taken slot", key, g.height, ref)
				}
				if i > 0 && cmpOutPoint(&tbl.at(run[i-1]).op, &e.op) >= 0 {
					t.Fatalf("bucket %s height %d: entries out of order at %d", key, g.height, i)
				}
				if k := set.scripts[e.script].key; k != key {
					t.Fatalf("bucket %s holds an entry of %s", key, k)
				}
				if h := int64(*tbl.heightAt(ref)); h != g.height {
					t.Fatalf("bucket %s height %d: ref %d names an entry of height %d", key, g.height, ref, h)
				}
				if _, got := tbl.get(&e.op); got != e {
					t.Fatalf("bucket %s height %d: entry %+v is not indexed under its outpoint", key, g.height, *e)
				}
				refs[e.script]++
				count++
				balance += e.value
			}
		}
		if count == 0 {
			t.Fatalf("bucket %s: drained bucket kept", key)
		}
		if len(b.refs) != count {
			t.Fatalf("bucket %s: a slab of %d, its runs hold %d", key, len(b.refs), count)
		}
		if b.count != count || b.balance != balance {
			t.Fatalf("bucket %s: count %d balance %d, groups hold %d / %d", key, b.count, b.balance, count, balance)
		}
		total += count
	}
	if len(taken)+set.Len() != int(tbl.used) {
		t.Fatalf("%d live + %d taken arena slots, %d handed out", set.Len(), len(taken), tbl.used)
	}
	if total != set.Len() {
		t.Fatalf("buckets hold %d entries, outpoint table %d", total, set.Len())
	}
	free := make(map[uint32]bool, len(set.freeScripts))
	for _, id := range set.freeScripts {
		if free[id] {
			t.Fatalf("script id %d is on the free list twice", id)
		}
		free[id] = true
	}
	for id := range set.scripts {
		sc := &set.scripts[id]
		if sc.refs != refs[id] {
			t.Fatalf("script id %d counts %d references, %d entries name it", id, sc.refs, refs[id])
		}
		switch got, ok := set.interned[string(sc.bytes)]; {
		case free[uint32(id)]:
			if sc.refs != 0 || sc.bytes != nil || sc.key != "" {
				t.Fatalf("freed script id %d still holds %+v", id, *sc)
			}
		case sc.refs == 0:
			t.Fatalf("script id %d has no references and is not on the free list", id)
		case !ok || got != uint32(id):
			t.Fatalf("script id %d is interned as %d (%v)", id, got, ok)
		}
	}
	if len(set.interned)+len(set.freeScripts) != len(set.scripts) {
		t.Fatalf("%d interned + %d free script ids, %d records", len(set.interned), len(set.freeScripts), len(set.scripts))
	}
}

// checkResumeEverywhere resumes MergedPage from a cursor on every entry of
// want (the address's canonical view) — so from the middle, the last and the
// first position of every height group — and from each extra cursor, which
// name positions the bucket no longer holds; every page must be the slice of
// want that follows the cursor.
func checkResumeEverywhere(t *testing.T, set *Set, key string, want []UTXO, extra []pageCursor) {
	t.Helper()
	cursors := append([]pageCursor(nil), extra...)
	for _, u := range want {
		cursors = append(cursors, pageCursor{height: u.Height, op: u.OutPoint})
	}
	for _, c := range cursors {
		rest := want[sort.Search(len(want), func(i int) bool { return cursorBefore(c, want[i]) }):]
		for _, limit := range []int{1, 3, len(want) + 1} {
			page, _, next, err := set.MergedPage(key, nil, nil, encodeCursor(c), limit)
			if err != nil {
				t.Fatal(err)
			}
			n := min(limit, len(rest))
			if len(page) != n {
				t.Fatalf("cursor %d/%s limit %d: %d entries, want %d", c.height, c.op, limit, len(page), n)
			}
			for i := range page {
				if page[i] != CoinOf(rest[i]) {
					t.Fatalf("cursor %d/%s limit %d: entry %d is %+v, want %+v", c.height, c.op, limit, i, page[i], rest[i])
				}
			}
			if (next == nil) != (n == len(rest)) {
				t.Fatalf("cursor %d/%s limit %d: next token %x with %d of %d served", c.height, c.op, limit, next, n, len(rest))
			}
		}
	}
}

// TestOrderedIndexAgainstMapOracle drives the ordered address index through
// long random interleavings of block folds and direct Add/Remove and
// cross-checks every observable — balances, canonical
// per-address views, pagination via both Page and MergedPage, counts, and
// cursor-resumed iteration — against the map-based oracle.
// checkAgainstOracle holds the set to the oracle on every key — balance,
// count, canonical view, iterator, and a page resumed from every position and
// from each cursor in gone (positions removed entries held) — and then to the
// layout invariants. at names the point of the run in a failure.
func checkAgainstOracle(t *testing.T, set *Set, oracle *mapOracle, keys []string, gone []pageCursor, at string) {
	t.Helper()
	if set.Len() != len(oracle.utxos) {
		t.Fatalf("%s: len %d != oracle %d", at, set.Len(), len(oracle.utxos))
	}
	for i, key := range keys {
		if got, want := set.Balance(key), oracle.balance(key); got != want {
			t.Fatalf("%s: balance[%d] %d != %d", at, i, got, want)
		}
		if got, want := set.AddressUTXOCount(key), len(oracle.forAddress(key)); got != want {
			t.Fatalf("%s: count[%d] %d != %d", at, i, got, want)
		}
		got, want := set.UTXOsForAddress(key), oracle.forAddress(key)
		if len(got) != len(want) {
			t.Fatalf("%s: view[%d] len %d != %d", at, i, len(got), len(want))
		}
		for j := range got {
			if got[j].OutPoint != want[j].OutPoint || got[j].Value != want[j].Value ||
				got[j].Height != want[j].Height || string(got[j].PkScript) != string(want[j].PkScript) {
				t.Fatalf("%s: view[%d][%d] %+v != %+v", at, i, j, got[j], want[j])
			}
		}
		// Iterator streams the same canonical sequence.
		it := set.AddressIter(key)
		for j := range want {
			u, ok := it.Next()
			if !ok || u.OutPoint != want[j].OutPoint {
				t.Fatalf("%s: iter[%d] diverged at %d", at, i, j)
			}
		}
		if _, ok := it.Next(); ok {
			t.Fatalf("%s: iter[%d] overran", at, i)
		}
		checkResumeEverywhere(t, set, key, want, gone)
	}
	checkIndexInvariants(t, set)
}

func TestOrderedIndexAgainstMapOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42, 1337} {
		seed := seed
		rng := rand.New(rand.NewSource(seed))
		set := New(btc.Regtest)
		oracle := newMapOracle(btc.Regtest)

		const nAddrs = 6
		keys := make([]string, nAddrs)
		scripts := make([][]byte, nAddrs)
		for i := range keys {
			keys[i], scripts[i] = addrKey(byte(0x40 + i))
		}

		var live []btc.OutPoint // outpoints currently believed unspent
		// gone remembers where removed entries sat: a page token handed out
		// before the removal still names that position.
		var gone []pageCursor
		height := int64(1)
		opCounter := uint32(0)

		newOp := func() btc.OutPoint {
			opCounter++
			var h btc.Hash
			rng.Read(h[:8])
			h[31] = byte(opCounter)
			return btc.OutPoint{TxID: h, Vout: opCounter % 4}
		}

		for step := 0; step < 120; step++ {
			switch r := rng.Intn(10); {
			case r < 5: // fold a random block
				var txs []*btc.Transaction
				for n := 1 + rng.Intn(3); n > 0; n-- {
					tx := &btc.Transaction{Version: 2}
					if len(live) > 0 && rng.Intn(3) > 0 {
						idx := rng.Intn(len(live))
						tx.Inputs = append(tx.Inputs, btc.TxIn{PreviousOutPoint: live[idx]})
						live = append(live[:idx], live[idx+1:]...)
					} else {
						tx.Inputs = append(tx.Inputs, btc.TxIn{
							PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff},
							SignatureScript:  []byte{byte(step), byte(seed)},
						})
					}
					for k := 1 + rng.Intn(3); k > 0; k-- {
						a := rng.Intn(nAddrs)
						tx.Outputs = append(tx.Outputs, btc.TxOut{Value: int64(1 + rng.Intn(5000)), PkScript: scripts[a]})
					}
					txs = append(txs, tx)
				}
				block := &btc.Block{Transactions: txs}
				if st := set.ApplyBlockIngest(block, height); st.Errors != 0 {
					t.Fatalf("seed %d step %d: %d errors folding a block of live inputs", seed, step, st.Errors)
				}
				txids := block.TxIDs()
				for ti, tx := range block.Transactions {
					if !tx.IsCoinbase() && !oracle.remove(tx.Inputs[0].PreviousOutPoint) {
						t.Fatalf("seed %d step %d: oracle missing spent %s", seed, step, tx.Inputs[0].PreviousOutPoint)
					}
					for vout := range tx.Outputs {
						op := btc.OutPoint{TxID: txids[ti], Vout: uint32(vout)}
						oracle.add(op, tx.Outputs[vout], height)
						live = append(live, op)
					}
				}
				height++
			case r < 8: // direct add
				op := newOp()
				a := rng.Intn(nAddrs)
				out := btc.TxOut{Value: int64(1 + rng.Intn(9000)), PkScript: scripts[a]}
				h := int64(rng.Intn(40))
				errSet := set.Add(op, out, h)
				okOracle := oracle.add(op, out, h)
				if (errSet == nil) != okOracle {
					t.Fatalf("seed %d step %d: add divergence: %v vs %v", seed, step, errSet, okOracle)
				}
				if errSet == nil {
					live = append(live, op)
				}
			default: // direct remove (sometimes of an absent outpoint)
				op := newOp()
				if len(live) > 0 && rng.Intn(4) > 0 {
					idx := rng.Intn(len(live))
					op = live[idx]
					live = append(live[:idx], live[idx+1:]...)
				}
				removed, errSet := set.Remove(op)
				okOracle := oracle.remove(op)
				if errSet == nil {
					gone = append(gone[max(0, len(gone)-7):], pageCursor{height: removed.Height, op: op})
				}
				if (errSet == nil) != okOracle {
					t.Fatalf("seed %d step %d: remove divergence: %v vs %v", seed, step, errSet, okOracle)
				}
			}
			if step%10 == 0 || step == 119 {
				checkAgainstOracle(t, set, oracle, keys, gone, fmt.Sprintf("seed %d step %d", seed, step))
			}
		}
		checkAgainstOracle(t, set, oracle, keys, gone, fmt.Sprintf("seed %d end", seed))
	}
}

// TestBucketSlabWritePaths drives buckets' slabs through every way a write
// moves refs in them — a new group above the bucket's top (appended where it
// lies), a new group below it and a merge into a group already held (both
// rotated into place), removals that keep or drop their group, and
// same-height folds — in phases that grow and then shrink the set, and holds
// it to the map oracle and the layout invariants (the runs tile the slab) as
// it goes. Each add is classified from its bucket's state before it and the
// group it lands in is checked; every path must come up, so the test cannot
// pass vacuously.
func TestBucketSlabWritePaths(t *testing.T) {
	paths := map[string]int{}
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		set := New(btc.Regtest)
		oracle := newMapOracle(btc.Regtest)
		keys, scripts := make([]string, 2), make([][]byte, 2)
		for i := range keys {
			keys[i], scripts[i] = addrKey(byte(0x60 + i))
		}
		var live []btc.OutPoint
		var gone []pageCursor
		serial := uint32(0)
		takeLive := func() btc.OutPoint {
			i := rng.Intn(len(live))
			op := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			return op
		}
		for step := 0; step < 600; step++ {
			at := fmt.Sprintf("seed %d step %d", seed, step)
			a := rng.Intn(len(keys))
			set.settle()
			b := set.byAddress[keys[a]]
			adds, removes := 6, 8 // a growing phase
			if step/150%2 == 1 {
				adds, removes = 2, 9 // a shrinking one
			}
			switch r := rng.Intn(10); {
			case r < adds:
				h := int64(rng.Intn(6))
				serial++
				op := btc.OutPoint{TxID: btc.Hash{byte(serial), byte(serial >> 8), byte(seed)}, Vout: serial % 3}
				out := btc.TxOut{Value: int64(1 + rng.Intn(900)), PkScript: scripts[a]}
				path, below := "new top group", 0
				var old heightGroup
				if b != nil {
					below = b.count
					if gi, ok := b.findGroup(h); ok {
						path, old = "merged", b.groups[gi]
					} else if gi < len(b.groups) {
						path, below = "new inner group", int(b.groups[gi].lo)
					}
				}
				mustAdd(t, set, op, out.Value, out.PkScript, h)
				oracle.add(op, out, h)
				live = append(live, op)
				b = set.byAddress[keys[a]]
				gi, _ := b.findGroup(h)
				g := b.groups[gi]
				want := heightGroup{height: h, lo: uint32(below), n: 1}
				if path == "merged" {
					want = heightGroup{height: h, lo: old.lo, n: old.n + 1}
				}
				if g != want {
					t.Fatalf("%s: an add at height %d (%s) left the group %+v, want %+v", at, h, path, g, want)
				}
				paths[path]++
			case r < removes && len(live) > 0:
				op := takeLive()
				u, key, _ := set.Lookup(op)
				groups := len(set.byAddress[key].groups)
				if _, err := set.Remove(op); err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				oracle.remove(op)
				gone = append(gone[max(0, len(gone)-7):], pageCursor{height: u.Height, op: op})
				if b = set.byAddress[key]; b == nil || len(b.groups) < groups {
					paths["removal dropping its group"]++
				} else {
					paths["removal"]++
				}
			default:
				// A fold at a height the buckets may already hold: its spends
				// are removals and its outputs merge into existing groups.
				h := int64(rng.Intn(6))
				var txs []*btc.Transaction
				for n := 1 + rng.Intn(2); n > 0; n-- {
					tx := &btc.Transaction{Version: 2}
					if len(live) > 0 && rng.Intn(2) == 0 {
						tx.Inputs = []btc.TxIn{{PreviousOutPoint: takeLive()}}
					} else {
						tx.Inputs = []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff},
							SignatureScript: []byte{byte(step), byte(step >> 8), byte(seed), byte(n)}}}
					}
					for k := 1 + rng.Intn(3); k > 0; k-- {
						tx.Outputs = append(tx.Outputs, btc.TxOut{Value: int64(1 + rng.Intn(900)), PkScript: scripts[rng.Intn(len(scripts))]})
					}
					txs = append(txs, tx)
				}
				block := &btc.Block{Transactions: txs}
				if st := set.ApplyBlockIngest(block, h); st.Errors != 0 {
					t.Fatalf("%s: %d errors folding a block of live inputs", at, st.Errors)
				}
				for ti, tx := range block.Transactions {
					if !tx.IsCoinbase() {
						oracle.remove(tx.Inputs[0].PreviousOutPoint)
					}
					for vout := range tx.Outputs {
						op := btc.OutPoint{TxID: block.TxIDs()[ti], Vout: uint32(vout)}
						oracle.add(op, tx.Outputs[vout], h)
						live = append(live, op)
					}
				}
				paths["fold"]++
			}
			checkIndexInvariants(t, set)
			if step%25 == 0 {
				checkAgainstOracle(t, set, oracle, keys, gone, at)
			}
		}
		checkAgainstOracle(t, set, oracle, keys, gone, fmt.Sprintf("seed %d end", seed))
	}
	t.Logf("paths taken: %v", paths)
	for _, path := range []string{"new top group", "new inner group", "merged", "removal", "removal dropping its group", "fold"} {
		if paths[path] == 0 {
			t.Errorf("no step took the %q path: %v", path, paths)
		}
	}
}

// TestMergedPageMatchesNaivePaging asserts that MergedPage — the streamed,
// binary-searched page path — walks exactly the pages Page produces over
// the materialized merged view, for random buckets, unstable creations,
// suppressions, and page sizes.
func TestMergedPageMatchesNaivePaging(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		set := New(btc.Regtest)
		key, script := addrKey(0x99)

		// Stable bucket.
		nStable := rng.Intn(80)
		for i := 0; i < nStable; i++ {
			op := btc.OutPoint{Vout: uint32(i)}
			rng.Read(op.TxID[:8])
			if err := set.Add(op, btc.TxOut{Value: int64(i + 1), PkScript: script}, int64(rng.Intn(12))); err != nil {
				t.Fatal(err)
			}
		}
		stable := set.UTXOsForAddress(key)

		// Unstable effect: suppress some stable entries, create some new.
		suppress := make(map[btc.OutPoint]bool)
		for _, u := range stable {
			if rng.Intn(4) == 0 {
				suppress[u.OutPoint] = true
			}
		}
		var created []UTXO
		for i := 0; i < rng.Intn(20); i++ {
			op := btc.OutPoint{Vout: uint32(1000 + i)}
			rng.Read(op.TxID[:8])
			u := UTXO{OutPoint: op, Value: int64(10_000 + i), PkScript: script, Height: int64(8 + rng.Intn(8))}
			created = append(created, u)
			suppress[op] = true
		}
		SortUTXOs(created)

		// The maps are the reference; the flat overlay is built from them,
		// suppressions in map order.
		ov := NewAddressOverlay(len(suppress) + len(created))
		for op := range suppress {
			ov.spend(&op)
		}
		for i := range created {
			ov.create(&created[i])
		}
		ov.Seal()

		// Materialized merged view, the way the replay oracle builds it.
		var merged []UTXO
		for _, u := range stable {
			if !suppress[u.OutPoint] {
				merged = append(merged, u)
			}
		}
		merged = append(merged, created...)
		SortUTXOs(merged)

		limit := 1 + rng.Intn(9)
		var tokA, tokB PageToken
		for page := 0; ; page++ {
			if page > 500 {
				t.Fatalf("seed %d: pagination did not terminate", seed)
			}
			wantPage, wantNext, err := Page(merged, tokA, limit)
			if err != nil {
				t.Fatal(err)
			}
			gotPage, unstable, gotNext, err := set.MergedPage(key, ov.Created(), &ov, tokB, limit)
			if err != nil {
				t.Fatal(err)
			}
			if len(gotPage) != len(wantPage) {
				t.Fatalf("seed %d page %d: len %d != %d", seed, page, len(gotPage), len(wantPage))
			}
			wantUnstable := 0
			for i := range wantPage {
				if gotPage[i].OutPoint != wantPage[i].OutPoint || gotPage[i].Height != wantPage[i].Height {
					t.Fatalf("seed %d page %d entry %d: %+v != %+v", seed, page, i, gotPage[i], wantPage[i])
				}
				if wantPage[i].Value >= 10_000 {
					wantUnstable++
				}
			}
			if unstable != wantUnstable {
				t.Fatalf("seed %d page %d: unstable %d != %d", seed, page, unstable, wantUnstable)
			}
			if string(gotNext) != string(wantNext) {
				t.Fatalf("seed %d page %d: token %x != %x", seed, page, gotNext, wantNext)
			}
			if gotNext == nil {
				break
			}
			tokA, tokB = wantNext, gotNext
		}
	}
}

// TestBucketInsertRemoveOrder exercises the bucket's append fast path and
// mid-bucket insertions/removals directly.
func TestBucketInsertRemoveOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	set := New(btc.Regtest)
	key, script := addrKey(0x77)
	// Mixed ascending and random heights force both insert paths.
	for i := 0; i < 200; i++ {
		h := int64(i)
		if i%3 == 0 {
			h = int64(rng.Intn(200))
		}
		op := btc.OutPoint{Vout: uint32(i)}
		op.TxID[0] = byte(i)
		op.TxID[1] = byte(i >> 8)
		if err := set.Add(op, btc.TxOut{Value: 1, PkScript: script}, h); err != nil {
			t.Fatal(err)
		}
	}
	view := set.UTXOsForAddress(key)
	for i := 1; i < len(view); i++ {
		if utxoBefore(&view[i], &view[i-1]) {
			t.Fatalf("canonical order violated at %d", i)
		}
	}
	// Remove a random half; order must survive.
	for _, u := range view {
		if rng.Intn(2) == 0 {
			if _, err := set.Remove(u.OutPoint); err != nil {
				t.Fatal(err)
			}
		}
	}
	view = set.UTXOsForAddress(key)
	for i := 1; i < len(view); i++ {
		if utxoBefore(&view[i], &view[i-1]) {
			t.Fatalf("canonical order violated after removals at %d", i)
		}
	}
	checkIndexInvariants(t, set)
	checkResumeEverywhere(t, set, key, view, nil)

	// Removing the last entry of a height drops that group, and only it.
	b := set.byAddress[key]
	for len(view) > 0 {
		u := view[0]
		gi, ok := b.findGroup(u.Height)
		if !ok {
			t.Fatalf("no group at height %d", u.Height)
		}
		groups, size := len(b.groups), int(b.groups[gi].n)
		if _, err := set.Remove(u.OutPoint); err != nil {
			t.Fatal(err)
		}
		view = view[1:]
		if len(view) == 0 {
			break
		}
		if size == 1 {
			if _, still := b.findGroup(u.Height); still || len(b.groups) != groups-1 {
				t.Fatalf("height %d: emptied group kept (%d groups, had %d)", u.Height, len(b.groups), groups)
			}
		} else if len(b.groups) != groups || int(b.groups[gi].n) != size-1 {
			t.Fatalf("height %d: removal from a group of %d left %d groups (had %d)", u.Height, size, len(b.groups), groups)
		}
		checkIndexInvariants(t, set)
		checkResumeEverywhere(t, set, key, view, []pageCursor{{height: u.Height, op: u.OutPoint}})
	}

	// Drained to zero, the bucket is gone — its groups with it, not kept for
	// reuse — and a refill starts a bucket of its own.
	if set.byAddress[key] != nil || set.AddressUTXOCount(key) != 0 || set.Balance(key) != 0 || set.ScriptInterned(script) {
		t.Fatalf("drained bucket retained: %+v", set.byAddress[key])
	}
	it := set.AddressIter(key)
	if _, ok := it.Next(); ok {
		t.Fatal("drained address still iterates")
	}
	for i := 0; i < 3; i++ {
		if err := set.Add(btc.OutPoint{Vout: uint32(i)}, btc.TxOut{Value: 7, PkScript: script}, int64(10+i%2)); err != nil {
			t.Fatal(err)
		}
	}
	refilled := set.byAddress[key]
	if refilled == nil || refilled == b || len(refilled.groups) != 2 || cap(refilled.groups) > 4 || set.Balance(key) != 21 {
		t.Fatalf("refilled bucket: %+v", refilled)
	}
	checkIndexInvariants(t, set)
	checkResumeEverywhere(t, set, key, set.UTXOsForAddress(key), nil)
}

// TestScriptInterning pins the interning contract: one stored copy per
// distinct script, reference-counted away when the last output is spent.
func TestScriptInterning(t *testing.T) {
	set := New(btc.Regtest)
	_, script := addrKey(0x55)
	if set.ScriptInterned(script) {
		t.Fatal("script interned before any add")
	}
	for i := 0; i < 10; i++ {
		op := btc.OutPoint{Vout: uint32(i)}
		if err := set.Add(op, btc.TxOut{Value: 1, PkScript: script}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !set.ScriptInterned(script) || set.InternedScripts() != 1 {
		t.Fatalf("want 1 interned script, got %d", set.InternedScripts())
	}
	for i := 0; i < 10; i++ {
		if _, err := set.Remove(btc.OutPoint{Vout: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if set.ScriptInterned(script) || set.InternedScripts() != 0 {
		t.Fatalf("interned table leaked: %d entries", set.InternedScripts())
	}
}
