package utxo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"icbtc/internal/btc"
	"icbtc/internal/statecodec"
)

func deltaScript(b byte) []byte { return btc.PayToPubKeyHashScript([20]byte{b}) }

func deltaAddr(b byte) string { return btc.ScriptID(deltaScript(b), btc.Regtest) }

func TestBuildBlockDeltaNetsOutInBlockSpends(t *testing.T) {
	scriptA := deltaScript(0x01)
	addrA := deltaAddr(0x01)

	// tx1 creates two outputs for A; tx2 spends the first within the block.
	tx1 := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.DoubleSHA256([]byte("in")), Vout: 0}}},
		Outputs: []btc.TxOut{{Value: 100, PkScript: scriptA}, {Value: 200, PkScript: scriptA}},
	}
	tx2 := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: tx1.TxID(), Vout: 0}}},
		Outputs: []btc.TxOut{{Value: 90, PkScript: deltaScript(0x02)}},
	}
	coinbase := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff}}},
		Outputs: []btc.TxOut{{Value: 50, PkScript: deltaScript(0x03)}},
	}
	block := &btc.Block{Transactions: []*btc.Transaction{coinbase, tx1, tx2}}

	noOwners := func(op btc.OutPoint, buf []OwnedOutput) []OwnedOutput { return buf }
	d := BuildBlockDelta(block, 9, btc.NewScriptIDCache(btc.Regtest), noOwners)

	// Only tx1's second output survives for A: the first was netted out.
	created := d.CreatedFor(addrA)
	if len(created) != 1 || created[0].Value != 200 || created[0].Height != 9 {
		t.Fatalf("created for A: %+v", created)
	}
	if _, ok := d.CreatedOutput(btc.OutPoint{TxID: tx1.TxID(), Vout: 0}); ok {
		t.Fatal("netted-out output still resolvable by descendants")
	}
	if _, ok := d.CreatedOutput(btc.OutPoint{TxID: tx1.TxID(), Vout: 1}); !ok {
		t.Fatal("surviving output not resolvable")
	}
	// No external owner resolved → no spent entries; B's in-block receipt
	// survives as a creation.
	if len(d.SpentFor(addrA)) != 0 {
		t.Fatalf("unexpected spends: %+v", d.SpentFor(addrA))
	}
	createdB := d.CreatedFor(deltaAddr(0x02))
	if len(createdB) != 1 || createdB[0].Value != 90 {
		t.Fatalf("created for B: %+v", createdB)
	}
	if got := d.EntriesFor(addrA); got != 1 {
		t.Fatalf("entries for A: %d", got)
	}
}

func TestBuildBlockDeltaAttributesExternalSpends(t *testing.T) {
	addrA := deltaAddr(0x04)
	ext := btc.OutPoint{TxID: btc.DoubleSHA256([]byte("stable")), Vout: 1}
	tx := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: ext}},
		Outputs: []btc.TxOut{{Value: 10, PkScript: deltaScript(0x05)}},
	}
	coinbase := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff}}},
		Outputs: []btc.TxOut{{Value: 50, PkScript: deltaScript(0x06)}},
	}
	block := &btc.Block{Transactions: []*btc.Transaction{coinbase, tx}}
	d := BuildBlockDelta(block, 3, btc.NewScriptIDCache(btc.Regtest), func(op btc.OutPoint, buf []OwnedOutput) []OwnedOutput {
		if op == ext {
			buf = append(buf, OwnedOutput{AddressKey: addrA, Value: 77})
		}
		return buf
	})
	spent := d.SpentFor(addrA)
	if len(spent) != 1 || spent[0].OutPoint != ext || spent[0].Value != 77 {
		t.Fatalf("spent for A: %+v", spent)
	}
	if got := d.EntriesFor(addrA); got != 1 {
		t.Fatalf("entries for A: %d", got)
	}
	// The spend is attributed only to the resolved owner; the recipient
	// address sees a creation, not a spend.
	if len(d.SpentFor(deltaAddr(0x05))) != 0 {
		t.Fatal("spend leaked to recipient address")
	}
	if got := d.CreatedFor(deltaAddr(0x05)); len(got) != 1 || got[0].Value != 10 {
		t.Fatalf("created for recipient: %+v", got)
	}
}

// naiveDelta is the delta as this package built it before the flat layout:
// three Go maps filled by replaying the block — delete on an in-block spend,
// overwrite on a re-creation, an emitted set for block order. It is the
// reference the flat builder and decoder are compared against.
type naiveDelta struct {
	height        int64
	createdByAddr map[string][]UTXO
	spentByAddr   map[string][]SpentOutPoint
	createdByOp   map[btc.OutPoint]UTXO
}

func buildDeltaNaive(txs []*btc.Transaction, txids []btc.Hash, height int64, ids *btc.ScriptIDCache, resolve OwnerResolver) *naiveDelta {
	d := &naiveDelta{
		height:        height,
		createdByAddr: make(map[string][]UTXO),
		spentByAddr:   make(map[string][]SpentOutPoint),
		createdByOp:   make(map[btc.OutPoint]UTXO),
	}
	var createdOrder, spends []btc.OutPoint
	for ti, tx := range txs {
		if !tx.IsCoinbase() {
			for i := range tx.Inputs {
				op := tx.Inputs[i].PreviousOutPoint
				delete(d.createdByOp, op)
				spends = append(spends, op)
			}
		}
		for vout := range tx.Outputs {
			op := btc.OutPoint{TxID: txids[ti], Vout: uint32(vout)}
			d.createdByOp[op] = UTXO{OutPoint: op, Value: tx.Outputs[vout].Value, PkScript: tx.Outputs[vout].PkScript, Height: height}
			createdOrder = append(createdOrder, op)
		}
	}
	emitted := make(map[btc.OutPoint]bool)
	for _, op := range createdOrder {
		u, ok := d.createdByOp[op]
		if !ok || emitted[op] {
			continue
		}
		emitted[op] = true
		key := ids.ID(u.PkScript)
		d.createdByAddr[key] = append(d.createdByAddr[key], u)
	}
	for _, op := range spends {
		for _, owner := range resolve(op, nil) {
			d.spentByAddr[owner.AddressKey] = append(d.spentByAddr[owner.AddressKey],
				SpentOutPoint{OutPoint: op, Value: owner.Value})
		}
	}
	return d
}

// encode writes the maps the way EncodeBlockDelta wrote them: each section's
// keys sorted, lists as they stand.
func (d *naiveDelta) encode() []byte {
	e := statecodec.NewEncoder(codecTestMagic, codecTestVersion, 0)
	e.I64(d.height)
	created := make([]string, 0, len(d.createdByAddr))
	for k := range d.createdByAddr {
		created = append(created, k)
	}
	sort.Strings(created)
	e.Uvarint(uint64(len(created)))
	for _, k := range created {
		e.String(k)
		e.Uvarint(uint64(len(d.createdByAddr[k])))
		for _, u := range d.createdByAddr[k] {
			e.Raw(u.OutPoint.TxID[:])
			e.U32(u.OutPoint.Vout)
			e.I64(u.Value)
			e.Bytes(u.PkScript)
		}
	}
	spent := make([]string, 0, len(d.spentByAddr))
	for k := range d.spentByAddr {
		spent = append(spent, k)
	}
	sort.Strings(spent)
	e.Uvarint(uint64(len(spent)))
	for _, k := range spent {
		e.String(k)
		e.Uvarint(uint64(len(d.spentByAddr[k])))
		for _, sp := range d.spentByAddr[k] {
			e.Raw(sp.OutPoint.TxID[:])
			e.U32(sp.OutPoint.Vout)
			e.I64(sp.Value)
		}
	}
	return e.Finish()
}

// encodeDelta also holds EncodedBlockDeltaSize to the bytes EncodeBlockDelta
// writes, on every delta a test or fuzz target encodes.
func encodeDelta(d *BlockDelta) []byte {
	e := statecodec.NewEncoder(codecTestMagic, codecTestVersion, 0)
	before := e.Len()
	EncodeBlockDelta(e, d)
	if wrote, sized := e.Len()-before, EncodedBlockDeltaSize(d); wrote != sized {
		panic(fmt.Sprintf("EncodeBlockDelta wrote %d bytes, EncodedBlockDeltaSize says %d", wrote, sized))
	}
	return e.Finish()
}

// CreatedOutput is CreatedTagged by value, hashing for itself: the map lookup
// the naive delta answers with, which is what the tests compare.
func (d *BlockDelta) CreatedOutput(op btc.OutPoint) (UTXO, bool) {
	if u := d.CreatedTagged(&op, TagOutPoint(&op)); u != nil {
		return *u, true
	}
	return UTXO{}, false
}

// checkDeltaAgainstNaive compares every answer a delta gives with the
// reference's: the created output of each outpoint in ops, and each key's
// lists — which must also be capped at their length, so that an append to one
// cannot write into the next key's run.
func checkDeltaAgainstNaive(t *testing.T, what string, d *BlockDelta, want *naiveDelta, ops map[btc.OutPoint]bool, keys []string) {
	t.Helper()
	for op := range ops {
		w, wok := want.createdByOp[op]
		if g, ok := d.CreatedOutput(op); ok != wok || !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: CreatedOutput(%s) = %+v, %v; reference %+v, %v", what, op, g, ok, w, wok)
		}
	}
	for _, key := range keys {
		created, spent := d.CreatedFor(key), d.SpentFor(key)
		if w := want.createdByAddr[key]; !reflect.DeepEqual(created, w) {
			t.Fatalf("%s: CreatedFor(%s) = %+v, reference %+v", what, key, created, w)
		}
		if w := want.spentByAddr[key]; !reflect.DeepEqual(spent, w) {
			t.Fatalf("%s: SpentFor(%s) = %+v, reference %+v", what, key, spent, w)
		}
		if cap(created) != len(created) || cap(spent) != len(spent) {
			t.Fatalf("%s: lists of %s have room to append into: %d/%d created, %d/%d spent",
				what, key, len(created), cap(created), len(spent), cap(spent))
		}
		if g, w := d.EntriesFor(key), len(want.createdByAddr[key])+len(want.spentByAddr[key]); g != w {
			t.Fatalf("%s: EntriesFor(%s) = %d, reference %d", what, key, g, w)
		}
	}
}

// sameTagFamily rewrites a hash so that every rewritten one shares its
// leading 8 bytes — all of a txid the index hash reads. Outpoints then differ
// to the hash only in their vout, and outputs of different transactions with
// one vout tie on the full tag and are told apart by the entry comparison.
func sameTagFamily(h btc.Hash) btc.Hash {
	copy(h[:8], "tagtagta")
	return h
}

// deltaDiffProgram runs foldProgram's blocks through the flat builder and the
// map-based reference, block after block. Spends resolve against a model of
// the earlier blocks: the last two are unstable ancestors, searched newest
// first, everything older is stable — so an outpoint has no owner, one, or
// (a replayed transaction) two. family moves every txid into one tag family.
func deltaDiffProgram(t *testing.T, data []byte, family bool) {
	blocks, heights := foldProgram(data)
	ids := btc.NewScriptIDCache(btc.Regtest)
	var (
		unstable []*naiveDelta
		stable   = make(map[btc.OutPoint]OwnedOutput)
		ops      = make(map[btc.OutPoint]bool)
		keys     []string
	)
	for i := byte(1); i <= 4; i++ {
		keys = append(keys, btc.ScriptID(btc.PayToPubKeyHashScript([20]byte{i}), btc.Regtest))
	}
	keys = append(keys, "no such key")
	resolve := func(op btc.OutPoint, buf []OwnedOutput) []OwnedOutput {
		for i := len(unstable) - 1; i >= 0; i-- {
			if u, ok := unstable[i].createdByOp[op]; ok {
				buf = append(buf, OwnedOutput{AddressKey: ids.ID(u.PkScript), Value: u.Value})
			}
		}
		if o, ok := stable[op]; ok {
			buf = append(buf, o)
		}
		return buf
	}
	for bi, blk := range blocks {
		txs, txids := blk.Transactions, blk.TxIDs()
		if family {
			txs, txids = make([]*btc.Transaction, len(txs)), make([]btc.Hash, len(txids))
			for ti, tx := range blk.Transactions {
				moved := *tx
				if !tx.IsCoinbase() {
					moved.Inputs = append([]btc.TxIn(nil), tx.Inputs...)
					for i := range moved.Inputs {
						moved.Inputs[i].PreviousOutPoint.TxID = sameTagFamily(moved.Inputs[i].PreviousOutPoint.TxID)
					}
				}
				txs[ti], txids[ti] = &moved, sameTagFamily(blk.TxIDs()[ti])
			}
		}
		for ti, tx := range txs {
			for i := range tx.Inputs {
				ops[tx.Inputs[i].PreviousOutPoint] = true
			}
			for vout := range tx.Outputs {
				ops[btc.OutPoint{TxID: txids[ti], Vout: uint32(vout)}] = true
			}
		}

		want := buildDeltaNaive(txs, txids, heights[bi], ids, resolve)
		got := prepareDelta(txs, txids, heights[bi], ids).Finish(resolve)
		what := fmt.Sprintf("block %d", bi)
		wire := encodeDelta(got)
		if !bytes.Equal(wire, want.encode()) {
			t.Fatalf("%s: encoding differs from the map-based builder's", what)
		}
		checkDeltaAgainstNaive(t, what, got, want, ops, keys)

		dec, err := statecodec.NewDecoder(wire, codecTestMagic, codecTestVersion)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := DecodeBlockDelta(dec)
		if err != nil {
			t.Fatalf("%s: decoding its own encoding: %v", what, err)
		}
		if err := dec.Close(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !bytes.Equal(encodeDelta(restored), wire) {
			t.Fatalf("%s: decoded delta re-encodes differently", what)
		}
		checkDeltaAgainstNaive(t, what+" decoded", restored, want, ops, keys)

		// The block joins the unstable ancestors; the oldest of three folds.
		unstable = append(unstable, want)
		if len(unstable) > 2 {
			for key, list := range unstable[0].spentByAddr {
				for _, sp := range list {
					if stable[sp.OutPoint].AddressKey == key {
						delete(stable, sp.OutPoint)
					}
				}
			}
			for op, u := range unstable[0].createdByOp {
				stable[op] = OwnedOutput{AddressKey: ids.ID(u.PkScript), Value: u.Value}
			}
			unstable = unstable[1:]
		}
	}
}

// FuzzBlockDeltaDiff is the differential net under the flat delta: on any
// program of blocks the flat builder and the map-based one it replaced agree
// on the encoded bytes and on every lookup, and the decoder rebuilds from
// those bytes a delta that answers and re-encodes the same.
func FuzzBlockDeltaDiff(f *testing.F) {
	for _, seed := range foldSeeds() {
		f.Add(seed, false)
		// The same with every txid in one tag family: outputs that differ to
		// the index only in vout, or only past the bytes it hashes.
		f.Add(seed, true)
	}
	f.Add([]byte{foldOpEndBlock}, false) // a block of nothing but its coinbase
	// Two owners for one spend: a transaction stable by its third descendant
	// is replayed there, and the block after spends its outputs — owned by
	// the stable set and by the unstable ancestor that re-created them — next
	// to an output only the other unstable ancestor created.
	f.Add(bytes.Join([][]byte{
		foldTx([]byte{foldSourceMissing}, 1, 10, 2, 20), {foldOpEndBlock},
		{foldOpEndBlock},
		foldTx([]byte{foldSourceMissing}, 3, 30), {foldOpEndBlock},
		{foldOpReplay, 1}, {foldOpEndBlock},
		foldTx([]byte{1, 2, 0}, 0, 5), {foldOpEndBlock},
	}, nil), true)
	f.Fuzz(deltaDiffProgram)
}

// TestDeltaIndexCraftedCollisions is TestCraftedCollisionsNeedTheSeed for the
// delta's index: outpoints built to share one full tag under a known seed
// make that index one long run, and under the seed the process drew — the
// only one deltas are built with — probe like any others. Probe distance is
// counted, not timed.
func TestDeltaIndexCraftedCollisions(t *testing.T) {
	const n, fixedSeed, sharedTag = 2000, 0x0123456789abcdef, 0xdeadbeef
	script := deltaScript(0x07)
	txs, txids := make([]*btc.Transaction, n), make([]btc.Hash, n)
	for i := range txs {
		txs[i] = &btc.Transaction{Version: 2,
			Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.Hash{0xee}, Vout: uint32(i)}}},
			Outputs: []btc.TxOut{{Value: int64(i), PkScript: script}}}
		binary.LittleEndian.PutUint64(txids[i][:8], unmix(sharedTag<<32|uint64(i))^fixedSeed)
	}

	const sample = 500
	created := make([]UTXO, sample)
	fixed := newCreatedIndex(sample)
	slot := uint32(0)
	for i := range created {
		created[i].OutPoint.TxID = txids[i]
		if tag := outpointTag(fixedSeed, &created[i].OutPoint); tag != sharedTag {
			t.Fatalf("outpoint %d crafted to tag %08x hashes to %08x", i, uint32(sharedTag), tag)
		}
		slot, _ = fixed.find(created[:i], &created[i].OutPoint, sharedTag)
		fixed.put(slot, sharedTag, i)
	}
	if home := uint32(sharedTag) & uint32(len(fixed)-1); (slot-home)&uint32(len(fixed)-1) != sample-1 {
		t.Fatalf("last of %d crafted outpoints sits in slot %d, home %d, under the fixed seed: not one run", sample, slot, home)
	}

	d := prepareDelta(txs, txids, 3, btc.NewScriptIDCache(btc.Regtest)).Finish(
		func(op btc.OutPoint, buf []OwnedOutput) []OwnedOutput { return buf })
	mask := uint32(len(d.index) - 1)
	total, worst := 0, 0
	for i := range txids {
		op := btc.OutPoint{TxID: txids[i]}
		tag := uint32(TagOutPoint(&op))
		slot, pos := d.index.find(d.created, &op, tag)
		if pos < 0 || d.created[pos].Value != int64(i) {
			t.Fatalf("outpoint %d not found at its output", i)
		}
		steps := int((slot - tag&mask) & mask)
		total, worst = total+steps, max(worst, steps)
	}
	// At no more than half load a uniform hash leaves the mean displacement
	// under one slot and the longest run at a few dozen.
	if total > n || worst > 64 {
		t.Fatalf("%d crafted outpoints sit %d slots from home in total, %d at worst, under the process seed", n, total, worst)
	}
}
