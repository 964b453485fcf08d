package utxo

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"icbtc/internal/btc"
	"icbtc/internal/statecodec"
)

const (
	codecTestMagic   = "utxo-codec-test\n"
	codecTestVersion = uint16(1)
)

func encodeSet(s *Set) []byte {
	e := statecodec.NewEncoder(codecTestMagic, codecTestVersion, 0)
	s.EncodeTo(e)
	return e.Finish()
}

func decodeSet(t *testing.T, snap []byte) *Set {
	t.Helper()
	d, err := statecodec.NewDecoder(snap, codecTestMagic, codecTestVersion)
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeSet(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return s
}

// buildRandomSet assembles a set through the normal Add/Remove flow: many
// outputs over a small script population (deep buckets, shared interned
// scripts) with a share of them spent again.
func buildRandomSet(seed int64, outputs int) *Set {
	rng := rand.New(rand.NewSource(seed))
	s := New(btc.Regtest)
	scripts := make([][]byte, 12)
	for i := range scripts {
		var h [20]byte
		rng.Read(h[:])
		scripts[i] = btc.PayToPubKeyHashScript(h)
	}
	var added []btc.OutPoint
	for i := 0; i < outputs; i++ {
		var op btc.OutPoint
		rng.Read(op.TxID[:])
		op.Vout = uint32(rng.Intn(4))
		out := btc.TxOut{Value: 500 + int64(rng.Intn(100_000)), PkScript: scripts[rng.Intn(len(scripts))]}
		if err := s.Add(op, out, int64(1+rng.Intn(300))); err != nil {
			continue // rare duplicate outpoint draw
		}
		added = append(added, op)
	}
	for _, op := range added {
		if rng.Intn(3) == 0 {
			_, _ = s.Remove(op)
		}
	}
	return s
}

func assertSetsEqual(t *testing.T, want, got *Set) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len: got %d, want %d", got.Len(), want.Len())
	}
	if got.AddressCount() != want.AddressCount() {
		t.Fatalf("AddressCount: got %d, want %d", got.AddressCount(), want.AddressCount())
	}
	if got.InternedScripts() != want.InternedScripts() {
		t.Fatalf("InternedScripts: got %d, want %d", got.InternedScripts(), want.InternedScripts())
	}
	if got.ApproxBytes() != want.ApproxBytes() {
		t.Fatalf("ApproxBytes: got %d, want %d", got.ApproxBytes(), want.ApproxBytes())
	}
	if got.Network() != want.Network() {
		t.Fatalf("Network: got %v, want %v", got.Network(), want.Network())
	}
	for key, b := range want.byAddress {
		if got.Balance(key) != b.balance {
			t.Fatalf("balance[%s]: got %d, want %d", key, got.Balance(key), b.balance)
		}
		w, g := want.UTXOsForAddress(key), got.UTXOsForAddress(key)
		if len(w) != len(g) {
			t.Fatalf("bucket %s: got %d entries, want %d", key, len(g), len(w))
		}
		for i := range w {
			if w[i].OutPoint != g[i].OutPoint || w[i].Value != g[i].Value ||
				w[i].Height != g[i].Height || !bytes.Equal(w[i].PkScript, g[i].PkScript) {
				t.Fatalf("bucket %s entry %d: got %+v, want %+v", key, i, g[i], w[i])
			}
		}
	}
	want.ForEach(func(u UTXO) bool {
		g, gk, ok := got.Lookup(u.OutPoint)
		if !ok {
			t.Fatalf("outpoint %s missing after decode", u.OutPoint)
		}
		if g.Value != u.Value || g.Height != u.Height || !bytes.Equal(g.PkScript, u.PkScript) {
			t.Fatalf("outpoint %s: got %+v, want %+v", u.OutPoint, g, u)
		}
		if _, wk, _ := want.Lookup(u.OutPoint); wk != gk {
			t.Fatalf("outpoint %s: key %q, want %q", u.OutPoint, gk, wk)
		}
		return true
	})
}

func TestSetCodecRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		s := buildRandomSet(seed, 400)
		snap := encodeSet(s)
		restored := decodeSet(t, snap)
		assertSetsEqual(t, s, restored)
		// Determinism both ways: the same state encodes identically, and the
		// restored set reproduces the snapshot byte for byte.
		if !bytes.Equal(snap, encodeSet(s)) {
			t.Fatalf("seed %d: re-encoding the original changed bytes", seed)
		}
		if !bytes.Equal(snap, encodeSet(restored)) {
			t.Fatalf("seed %d: re-encoding the restored set changed bytes", seed)
		}
	}
}

func TestSetCodecEmpty(t *testing.T) {
	s := New(btc.Mainnet)
	restored := decodeSet(t, encodeSet(s))
	if restored.Len() != 0 || restored.AddressCount() != 0 || restored.Network() != btc.Mainnet {
		t.Fatalf("empty set did not round-trip: %d UTXOs, %d addresses", restored.Len(), restored.AddressCount())
	}
}

// TestSetDecodeUsesStoredKeys proves the O(bytes) restore property: the
// address key under which an entry is indexed comes from the snapshot, not
// from a ScriptID re-derivation. A handcrafted snapshot with a key that no
// derivation would produce must decode under exactly that key.
func TestSetDecodeUsesStoredKeys(t *testing.T) {
	script := btc.PayToPubKeyHashScript([20]byte{1, 2, 3})
	const storedKey = "stored-key-no-derivation-produces"
	if btc.ScriptID(script, btc.Regtest) == storedKey {
		t.Fatal("test key collides with the derived key")
	}
	var op btc.OutPoint
	op.TxID[0] = 9

	e := statecodec.NewEncoder(codecTestMagic, codecTestVersion, 0)
	e.U8(uint8(btc.Regtest))
	e.Uvarint(1) // total entries
	e.Uvarint(1) // one interned script
	e.Bytes(script)
	e.String(storedKey)
	e.Uvarint(1) // one bucket
	e.String(storedKey)
	e.Uvarint(1) // one entry
	e.Raw(op.TxID[:])
	e.U32(op.Vout)
	e.I64(777)
	e.I64(10)
	e.Uvarint(0)

	s := decodeSet(t, e.Finish())
	if got := s.Balance(storedKey); got != 777 {
		t.Fatalf("balance under stored key = %d, want 777", got)
	}
	if _, key, _ := s.Lookup(op); key != storedKey {
		t.Fatalf("entry key = %q, want the stored key", key)
	}
	if got := s.Balance(btc.ScriptID(script, btc.Regtest)); got != 0 {
		t.Fatal("decode re-derived the ScriptID instead of using the stored key")
	}
}

// TestSetDecodeRejectsMisorderedBucket: entries arrive in maintained storage
// order; decode appends without sorting but verifies the order, because a
// misordered bucket would serve wrong pages forever after.
func TestSetDecodeRejectsMisorderedBucket(t *testing.T) {
	script := btc.PayToPubKeyHashScript([20]byte{4})
	key := btc.ScriptID(script, btc.Regtest)
	e := statecodec.NewEncoder(codecTestMagic, codecTestVersion, 0)
	e.U8(uint8(btc.Regtest))
	e.Uvarint(2) // total entries
	e.Uvarint(1)
	e.Bytes(script)
	e.String(key)
	e.Uvarint(1)
	e.String(key)
	e.Uvarint(2)
	for _, height := range []int64{20, 10} { // descending: violates storage order
		var op btc.OutPoint
		op.TxID[0] = byte(height)
		e.Raw(op.TxID[:])
		e.U32(0)
		e.I64(1000)
		e.I64(height)
		e.Uvarint(0)
	}
	d, err := statecodec.NewDecoder(e.Finish(), codecTestMagic, codecTestVersion)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSet(d); err == nil {
		t.Fatal("decode accepted a misordered bucket")
	}
}

// TestSetDecodeRejectsDuplicateOutpoint: one outpoint stored under two
// addresses passes every per-bucket check; only the outpoint table sees it.
func TestSetDecodeRejectsDuplicateOutpoint(t *testing.T) {
	snap := duplicateOutpointSnapshot()
	var dup btc.OutPoint
	dup.TxID[0] = 9
	want := fmt.Sprintf("utxo: snapshot outpoint %s duplicated", dup)
	for _, workers := range []int{1, 3} {
		d, err := statecodec.NewDecoder(snap, codecTestMagic, codecTestVersion)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSetParallel(d, workers); err == nil || err.Error() != want {
			t.Fatalf("workers=%d: got %v, want %q", workers, err, want)
		}
	}
}

// duplicateOutpointSnapshot encodes two single-entry buckets holding the
// same outpoint.
func duplicateOutpointSnapshot() []byte {
	scripts := [][]byte{btc.PayToPubKeyHashScript([20]byte{1}), btc.PayToPubKeyHashScript([20]byte{2})}
	if bytes.Compare(scripts[0], scripts[1]) > 0 {
		scripts[0], scripts[1] = scripts[1], scripts[0]
	}
	e := statecodec.NewEncoder(codecTestMagic, codecTestVersion, 0)
	e.U8(uint8(btc.Regtest))
	e.Uvarint(2) // total entries
	e.Uvarint(2)
	for _, script := range scripts {
		e.Bytes(script)
		e.String(btc.ScriptID(script, btc.Regtest))
	}
	e.Uvarint(2)
	for i, script := range scripts {
		e.String(btc.ScriptID(script, btc.Regtest))
		e.Uvarint(1)
		var op btc.OutPoint
		op.TxID[0] = 9
		e.Raw(op.TxID[:])
		e.U32(op.Vout)
		e.I64(1000)
		e.I64(10)
		e.Uvarint(uint64(i))
	}
	return e.Finish()
}

// TestSetDecodePresizesTable: the stored entry count sizes the outpoint
// table before the first entry goes in, so a restore never rehashes — the
// index it ends with is the one it was given, at no more than half load.
func TestSetDecodePresizesTable(t *testing.T) {
	s := buildRandomSet(11, 9000)
	snap := encodeSet(s)
	n := s.Len()
	for _, workers := range []int{1, 4} {
		got, err := decodeSetParallel(t, snap, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != n {
			t.Fatalf("workers=%d: decoded %d entries, want %d", workers, got.Len(), n)
		}
		if slots := len(got.table.index); slots != indexSlotsFor(n) || slots < 2*n {
			t.Fatalf("workers=%d: %d entries ended in an index of %d slots, presized to %d", workers, n, slots, indexSlotsFor(n))
		}
		if chunks := (n + chunkSize - 1) / chunkSize; len(got.table.chunks) != chunks || cap(got.table.chunks) != chunks {
			t.Fatalf("workers=%d: arena holds %d chunks (cap %d), want %d", workers, len(got.table.chunks), cap(got.table.chunks), chunks)
		}
	}
	// The set it was built from grew its index from the minimum.
	if len(s.table.index) <= minIndexSlots {
		t.Fatal("source set never grew its index; the test does not cover presizing")
	}
}

func TestSetDecodeRejectsBadScriptIndex(t *testing.T) {
	e := statecodec.NewEncoder(codecTestMagic, codecTestVersion, 0)
	e.U8(uint8(btc.Regtest))
	e.Uvarint(1) // total entries
	e.Uvarint(0) // no scripts
	e.Uvarint(1) // one bucket referencing script 0 anyway
	e.String("key")
	e.Uvarint(1)
	e.Raw(make([]byte, btc.HashSize))
	e.U32(0)
	e.I64(1)
	e.I64(1)
	e.Uvarint(0)
	d, err := statecodec.NewDecoder(e.Finish(), codecTestMagic, codecTestVersion)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSet(d); err == nil {
		t.Fatal("decode accepted an out-of-range script index")
	}
}

// deltaTestBlock builds a block with in-block nets, external spends, and
// repeated scripts, plus the resolver the canister would supply.
func deltaTestBlock(t testing.TB) (*btc.Block, OwnerResolver, map[btc.OutPoint]OwnedOutput) {
	t.Helper()
	scriptA := btc.PayToPubKeyHashScript([20]byte{0xaa})
	scriptB := btc.PayToPubKeyHashScript([20]byte{0xbb})
	external := map[btc.OutPoint]OwnedOutput{}
	var extOp btc.OutPoint
	extOp.TxID[0] = 0xee
	external[extOp] = OwnedOutput{AddressKey: btc.ScriptID(scriptA, btc.Regtest), Value: 5_000}

	coinbase := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{Vout: 0xffffffff}, SignatureScript: []byte{1, 2}}},
		Outputs: []btc.TxOut{{Value: 50_000, PkScript: scriptA}},
	}
	spendExt := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: extOp}},
		Outputs: []btc.TxOut{{Value: 4_000, PkScript: scriptB}, {Value: 900, PkScript: scriptA}},
	}
	// Spend an output created earlier in this very block (nets out locally).
	inBlock := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: spendExt.TxID(), Vout: 0}}},
		Outputs: []btc.TxOut{{Value: 3_500, PkScript: scriptB}},
	}
	block := &btc.Block{Transactions: []*btc.Transaction{coinbase, spendExt, inBlock}}
	resolve := func(op btc.OutPoint, buf []OwnedOutput) []OwnedOutput {
		if o, ok := external[op]; ok {
			buf = append(buf, o)
		}
		return buf
	}
	return block, resolve, external
}

func TestBlockDeltaCodecRoundTrip(t *testing.T) {
	block, resolve, _ := deltaTestBlock(t)
	delta := BuildBlockDelta(block, 42, btc.NewScriptIDCache(btc.Regtest), resolve)

	snap := encodeDelta(delta)
	d, err := statecodec.NewDecoder(snap, codecTestMagic, codecTestVersion)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := DecodeBlockDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	if restored.Height() != delta.Height() {
		t.Fatalf("delta height diverged: got %d, want %d", restored.Height(), delta.Height())
	}
	for _, grp := range delta.groups {
		if w, g := delta.CreatedFor(grp.key), restored.CreatedFor(grp.key); fmt.Sprint(w) != fmt.Sprint(g) {
			t.Fatalf("CreatedFor(%s): got %v, want %v", grp.key, g, w)
		}
		if w, g := delta.SpentFor(grp.key), restored.SpentFor(grp.key); fmt.Sprint(w) != fmt.Sprint(g) {
			t.Fatalf("SpentFor(%s): got %v, want %v", grp.key, g, w)
		}
	}
	for _, u := range delta.created {
		if _, ok := restored.CreatedOutput(u.OutPoint); !ok {
			t.Fatalf("CreatedOutput(%s) missing after decode", u.OutPoint)
		}
	}

	// Re-encoding the restored delta reproduces the bytes.
	if !bytes.Equal(snap, encodeDelta(restored)) {
		t.Fatal("re-encoding a restored delta changed bytes")
	}
}

// TestSetDecodeAllocations pins the restore hot path: decoding must stay a
// small constant number of allocations per UTXO (map inserts and bucket
// appends) — a regression past the budget means the O(bytes) restore grew
// re-derivation or re-sorting work.
func TestSetDecodeAllocations(t *testing.T) {
	s := buildRandomSet(7, 3000)
	snap := encodeSet(s)
	n := s.Len()
	avg := testing.AllocsPerRun(10, func() {
		d, err := statecodec.NewDecoder(snap, codecTestMagic, codecTestVersion)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSet(d); err != nil {
			t.Fatal(err)
		}
	})
	perUTXO := avg / float64(n)
	if perUTXO > 4 {
		t.Fatalf("decode allocates %.2f per UTXO (%.0f total for %d), budget is 4", perUTXO, avg, n)
	}
}

// TestSetEncodeAllocations pins the snapshot writer: encoding allocates the
// sort scratch and the output buffer, not per-entry garbage.
func TestSetEncodeAllocations(t *testing.T) {
	s := buildRandomSet(8, 3000)
	n := s.Len()
	avg := testing.AllocsPerRun(10, func() {
		_ = encodeSet(s)
	})
	if perUTXO := avg / float64(n); perUTXO > 0.5 {
		t.Fatalf("encode allocates %.2f per UTXO (%.0f total for %d), budget is 0.5", perUTXO, avg, n)
	}
}

// TestSetDecodeRejectsHostileCounts: a checksum-valid snapshot is still
// untrusted input (fast-sync receives it from a peer, and the trailer is
// integrity-only); a tiny payload declaring 2^27 entries must be rejected
// at the count instead of driving a multi-GiB pre-allocation.
func TestSetDecodeRejectsHostileCounts(t *testing.T) {
	e := statecodec.NewEncoder(codecTestMagic, codecTestVersion, 0)
	e.U8(uint8(btc.Regtest))
	e.Uvarint(1 << 27) // declared total entries; payload holds none
	e.Uvarint(0)
	e.Uvarint(0)
	d, err := statecodec.NewDecoder(e.Finish(), codecTestMagic, codecTestVersion)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSet(d); err == nil {
		t.Fatal("decode accepted a count the payload cannot hold")
	}
}

// TestBlockDeltaDecodeRejectsDuplicateKeys: a crafted delta repeating an
// address key must fail loudly, not silently overwrite the first list
// while double-counting entries.
func TestBlockDeltaDecodeRejectsDuplicateKeys(t *testing.T) {
	e := statecodec.NewEncoder(codecTestMagic, codecTestVersion, 0)
	e.I64(9)     // height
	e.Uvarint(0) // no created lists
	e.Uvarint(2) // two spent lists under the same key
	for i := 0; i < 2; i++ {
		e.String("dup-key")
		e.Uvarint(1)
		var op btc.OutPoint
		op.TxID[0] = byte(i)
		e.Raw(op.TxID[:])
		e.U32(0)
		e.I64(5)
	}
	d, err := statecodec.NewDecoder(e.Finish(), codecTestMagic, codecTestVersion)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBlockDelta(d); err == nil || err.Error() != `utxo: delta snapshot spent key "dup-key" duplicated` {
		t.Fatalf("decode of a delta with a duplicated address key returned %v", err)
	}
}

// deltaList is one hand-written list of a delta section.
type deltaList struct {
	key string
	ops []byte // one entry per byte: the first byte of its txid
}

// craftedDelta writes a delta's bytes by hand, lists in the order given —
// what no encoder does but anyone able to compute a CRC can.
func craftedDelta(e *statecodec.Encoder, created, spent []deltaList) {
	e.I64(9) // height
	for s, section := range [][]deltaList{created, spent} {
		e.Uvarint(uint64(len(section)))
		for _, l := range section {
			e.String(l.key)
			e.Uvarint(uint64(len(l.ops)))
			for _, b := range l.ops {
				e.Raw(append([]byte{b}, make([]byte, btc.HashSize-1)...))
				e.U32(0)
				e.I64(5)
				if s == 0 {
					e.Bytes([]byte{0x51})
				}
			}
		}
	}
}

// TestBlockDeltaDecodeRejectsNonCanonicalLists: beyond a repeated spent key
// (above), a crafted delta must fail loudly when it repeats a created key,
// writes keys out of order or lists a key with no entries — the flat delta re-encodes either to other bytes, so
// accepting them would vouch for bytes no encoder wrote — and when it names
// one created outpoint twice. Every rejection keeps its text.
func TestBlockDeltaDecodeRejectsNonCanonicalLists(t *testing.T) {
	cases := []struct {
		name           string
		created, spent []deltaList
		want           string
	}{
		{"canonical", []deltaList{{"aaa", []byte{1}}, {"zzz", []byte{2}}}, []deltaList{{"aaa", []byte{3}}, {"mmm", []byte{4, 4}}}, ""},
		{"created key repeated", []deltaList{{"dup-key", []byte{1}}, {"dup-key", []byte{2}}}, nil,
			`utxo: delta snapshot created key "dup-key" duplicated`},
		{"created keys descending", []deltaList{{"zzz", []byte{1}}, {"aaa", []byte{2}}}, nil,
			`utxo: delta snapshot created key "aaa" out of order`},
		{"spent keys descending", []deltaList{{"aaa", []byte{1}}}, []deltaList{{"zzz", []byte{1}}, {"aaa", []byte{2}}},
			`utxo: delta snapshot spent key "aaa" out of order`},
		{"created list empty", []deltaList{{"aaa", nil}}, nil,
			`utxo: delta snapshot created key "aaa" has no entries`},
		{"spent list empty", nil, []deltaList{{"aaa", nil}},
			`utxo: delta snapshot spent key "aaa" has no entries`},
		{"created outpoint repeated", []deltaList{{"aaa", []byte{1}}, {"bbb", []byte{1}}}, nil,
			"utxo: delta snapshot created outpoint " + (btc.OutPoint{TxID: btc.Hash{1}}).String() + " duplicated"},
	}
	for _, tc := range cases {
		e := statecodec.NewEncoder(codecTestMagic, codecTestVersion, 0)
		craftedDelta(e, tc.created, tc.spent)
		snap := e.Finish()
		d, err := statecodec.NewDecoder(snap, codecTestMagic, codecTestVersion)
		if err != nil {
			t.Fatal(err)
		}
		bd, err := DecodeBlockDelta(d)
		if tc.want != "" {
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s: decode returned %v, want %q", tc.name, err, tc.want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(encodeDelta(bd), snap) {
			t.Errorf("%s: accepted bytes re-encode differently", tc.name)
		}
	}
}

// malformedTailDelta writes a delta whose one created list declares six
// entries: five well formed, then one whose script field is script — a length
// prefix the decoder must refuse, or fewer bytes than the prefix promises. The
// list's count passes CountFor either way, so the decoder is five entries into
// the list when it meets the bad byte.
func malformedTailDelta(e *statecodec.Encoder, script func(e *statecodec.Encoder)) {
	e.I64(9)     // height
	e.Uvarint(1) // one created list
	e.String("aaa")
	e.Uvarint(6)
	for i := byte(1); i <= 6; i++ {
		e.Raw(append([]byte{i}, make([]byte, btc.HashSize-1)...))
		e.U32(0)
		e.I64(5)
		if i < 6 {
			e.Bytes([]byte{0x51})
		}
	}
	script(e)
}

// malformedTails are the bad sixth entries and statecodec's text for each —
// the text the map-based decoder returned for the same bytes.
var malformedTails = []struct {
	name   string
	script func(e *statecodec.Encoder)
	want   string
}{
	{"script over the length limit", func(e *statecodec.Encoder) { e.Uvarint(70000) },
		"statecodec: count 70000 exceeds limit 65536"},
	{"script runs past the end", func(e *statecodec.Encoder) { e.Uvarint(40); e.Raw(make([]byte, 10)) },
		"statecodec: truncated snapshot: need 40 bytes at offset 289 of 299"},
}

// TestBlockDeltaDecodeMalformedEntryAfterValidOnes: a checksum-valid delta
// that goes wrong in the middle of a list fails with the decoder's error at
// the bad byte, whatever it already holds of the list — it must not depend on
// the list having been sized, scanned or indexed as a whole.
func TestBlockDeltaDecodeMalformedEntryAfterValidOnes(t *testing.T) {
	for _, tc := range malformedTails {
		e := statecodec.NewEncoder(codecTestMagic, codecTestVersion, 0)
		malformedTailDelta(e, tc.script)
		d, err := statecodec.NewDecoder(e.Finish(), codecTestMagic, codecTestVersion)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeBlockDelta(d); err == nil || err.Error() != tc.want {
			t.Errorf("%s: decode returned %v, want %q", tc.name, err, tc.want)
		}
	}
}

// payloadOf strips a sealed encoding down to the bytes between header and
// checksum: the part a fuzzer mutates and re-frames, so that the checksum
// passes and the decoder's own checks do the judging.
func payloadOf(sealed []byte) []byte {
	return sealed[len(codecTestMagic)+2 : len(sealed)-4]
}

// FuzzBlockDeltaDecode hands the delta decoder arbitrary bytes behind a valid
// checksum: what a peer can send, and what a fuzzer mutating a sealed frame or
// snapshot never gets past the CRC to try. The decoder must return rather
// than panic, and a delta it accepts must be whole — its index finds every
// created output where it lies — and spelled the one way the encoder spells
// it: the bytes it was decoded from are the bytes it encodes to.
func FuzzBlockDeltaDecode(f *testing.F) {
	block, resolve, _ := deltaTestBlock(f)
	f.Add(payloadOf(encodeDelta(BuildBlockDelta(block, 42, btc.NewScriptIDCache(btc.Regtest), resolve))))
	for _, tc := range malformedTails {
		e := statecodec.NewEncoder(codecTestMagic, codecTestVersion, 0)
		malformedTailDelta(e, tc.script)
		f.Add(payloadOf(e.Finish()))
	}
	// The same list well formed, and a delta wrong in every other way at once.
	e := statecodec.NewEncoder(codecTestMagic, codecTestVersion, 0)
	malformedTailDelta(e, func(e *statecodec.Encoder) { e.Bytes([]byte{0x51}); e.Uvarint(0) })
	f.Add(payloadOf(e.Finish()))
	e = statecodec.NewEncoder(codecTestMagic, codecTestVersion, 0)
	craftedDelta(e, []deltaList{{"aaa", []byte{1}}, {"bbb", []byte{1}}}, []deltaList{{"zzz", []byte{2}}, {"aaa", nil}})
	f.Add(payloadOf(e.Finish()))

	// A well-formed delta whose first count — one created key — is padded to
	// two varint bytes: it decodes to the same delta and re-encodes shorter.
	overlong := payloadOf(encodeDelta(BuildBlockDelta(block, 42, btc.NewScriptIDCache(btc.Regtest), resolve)))
	f.Add(append(append(append([]byte(nil), overlong[:8]...), overlong[8]|0x80, 0x00), overlong[9:]...))

	// decode also returns how many payload bytes the decoder consumed.
	decode := func(t *testing.T, payload []byte) (*BlockDelta, int, error) {
		e := statecodec.NewEncoder(codecTestMagic, codecTestVersion, len(payload))
		e.Raw(payload)
		d, err := statecodec.NewDecoder(e.Finish(), codecTestMagic, codecTestVersion)
		if err != nil {
			t.Fatal(err)
		}
		bd, err := DecodeBlockDelta(d)
		return bd, len(payload) - d.Remaining(), err
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		bd, used, err := decode(t, payload)
		if err != nil {
			return
		}
		for pos := range bd.created {
			if u := bd.CreatedTagged(&bd.created[pos].OutPoint, TagOutPoint(&bd.created[pos].OutPoint)); u != &bd.created[pos] {
				t.Fatalf("created output %d of an accepted delta is not where its index says", pos)
			}
		}
		// Accepted bytes are bytes the encoder writes: no second spelling of
		// a delta gets in (key order, list order, varint length).
		sealed := encodeDelta(bd)
		if !bytes.Equal(payloadOf(sealed), payload[:used]) {
			t.Fatalf("an accepted delta re-encodes differently:\n%x\n%x", payload[:used], payloadOf(sealed))
		}
	})
}
