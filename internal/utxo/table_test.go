package utxo

import (
	"encoding/binary"
	"reflect"
	"testing"
	"unsafe"

	"icbtc/internal/btc"
)

// modelEntry is what the model holds for an outpoint: its entry and height.
type modelEntry struct {
	tableEntry
	height int64
}

// checkTable compares a table with its model — a Go map, which is what the
// table replaced — and verifies what the model cannot see: the load bound,
// one index word per entry, every word's tag being its entry's, and every
// arena slot live, free or held.
func checkTable(t *testing.T, tbl *outpointTable, model map[btc.OutPoint]modelEntry) {
	t.Helper()
	if tbl.n != len(model) {
		t.Fatalf("table holds %d entries, model %d", tbl.n, len(model))
	}
	if 2*tbl.n > len(tbl.index) {
		t.Fatalf("%d entries in %d slots: past half load", tbl.n, len(tbl.index))
	}
	// Every survivor is reachable by probing from its home slot, whatever
	// backward shifts and doublings have moved since it went in.
	for op, want := range model {
		op := op
		ref, got := tbl.get(&op)
		if got == nil {
			t.Fatalf("outpoint %s unreachable", op)
		}
		if (modelEntry{*got, int64(*tbl.heightAt(ref))}) != want {
			t.Fatalf("outpoint %s holds %+v at height %d, model %+v", op, *got, *tbl.heightAt(ref), want)
		}
	}
	words := 0
	for _, w := range tbl.index {
		if w == 0 {
			continue
		}
		words++
		ref := uint32(w) - 1
		if ref >= tbl.used {
			t.Fatalf("index word points at arena slot %d of %d", ref, tbl.used)
		}
		e := tbl.at(ref)
		if e.script == freeSlot {
			t.Fatalf("index word points at free arena slot %d", ref)
		}
		if tag := tbl.tag(&e.op); tag != uint32(w>>32) {
			t.Fatalf("index word tag %08x, its entry's %08x", uint32(w>>32), tag)
		}
	}
	if words != tbl.n {
		t.Fatalf("%d index words for %d entries", words, tbl.n)
	}
	visited := 0
	tbl.each(func(e *tableEntry, height int64) bool {
		if want, ok := model[e.op]; !ok || (modelEntry{*e, height}) != want {
			t.Fatalf("each visits %s at height %d, which the model does not hold", e.op, height)
		}
		visited++
		return true
	})
	if visited != tbl.n {
		t.Fatalf("each visits %d of %d entries", visited, tbl.n)
	}
	free := len(takenChain(t, tbl, tbl.free))
	held := takenChain(t, tbl, tbl.held.head)
	if len(held) > 0 && held[len(held)-1] != tbl.held.tail-1 {
		t.Fatalf("held chain ends at slot %d, its tail says %d", held[len(held)-1], tbl.held.tail-1)
	}
	if free+len(held)+tbl.n != int(tbl.used) {
		t.Fatalf("%d live + %d free + %d held arena slots, %d handed out", tbl.n, free, len(held), tbl.used)
	}
}

// takenChain lists the slots on the chain of taken slots that starts at head
// (ref+1), each of which must be marked taken.
func takenChain(t *testing.T, tbl *outpointTable, head uint32) []uint32 {
	t.Helper()
	var refs []uint32
	for ref := head; ref != 0; ref = *tbl.heightAt(ref - 1) {
		if tbl.at(ref-1).script != freeSlot {
			t.Fatalf("arena slot %d on a chain of taken slots is not marked taken", ref-1)
		}
		if refs = append(refs, ref-1); len(refs) > int(tbl.used) {
			t.Fatal("chain of taken slots loops")
		}
	}
	return refs
}

// fuzzOutPoint maps two program bytes onto a small universe in which many
// outpoints share their leading 8 txid bytes — the bytes the hash reads —
// and differ only in vout, or only in a later txid byte (a full tag tie).
func fuzzOutPoint(a, b byte) btc.OutPoint {
	var op btc.OutPoint
	op.TxID[0] = a >> 2
	op.TxID[20] = a >> 1 & 1
	op.Vout = uint32(a&1)<<16 | uint32(b&7)
	return op
}

// tableProgram runs an op-coded byte stream against a table seeded with the
// stream's first 8 bytes and against the model, comparing after every step.
// Steps are three bytes: an op code and the two bytes of fuzzOutPoint.
func tableProgram(t *testing.T, data []byte) {
	if len(data) < 8 {
		return
	}
	tbl := newOutpointTable(binary.LittleEndian.Uint64(data), 0)
	model := make(map[btc.OutPoint]modelEntry)
	// held is what each held slot had when it was taken.
	held := make(map[uint32]tableEntry)
	data = data[8:]
	for step := 0; len(data) >= 3; step, data = step+1, data[3:] {
		op := fuzzOutPoint(data[1], data[2])
		fill := modelEntry{tableEntry{op: op, script: uint32(data[2]), value: int64(step)}, int64(data[1])}
		write := func(ref uint32) {
			*tbl.at(ref), *tbl.heightAt(ref) = fill.tableEntry, uint32(fill.height)
			model[op] = fill
		}
		switch data[0] % 5 {
		case 0: // put: creates, or finds what is there and leaves it alone
			ref, fresh := tbl.put(&op)
			if _, in := model[op]; fresh == in {
				t.Fatalf("step %d: put reports fresh=%v, model holds=%v", step, fresh, in)
			}
			if e := tbl.at(ref); e.op != op {
				t.Fatalf("step %d: put returned the entry of %s for %s", step, e.op, op)
			}
			if fresh {
				write(ref)
			}
		case 1: // overwrite through the ref put returns
			ref, _ := tbl.put(&op)
			write(ref)
		case 2: // take
			ref, got, height, ok := tbl.take(&op)
			want, in := model[op]
			if ok != in || (ok && (modelEntry{got, height}) != want) {
				t.Fatalf("step %d: take %s = %+v at height %d, %v; model %+v, %v", step, op, got, height, ok, want, in)
			}
			if ok {
				held[ref] = got
			}
			delete(model, op)
		case 3: // get
			ref, e := tbl.get(&op)
			want, held := model[op]
			if (e != nil) != held || (held && (modelEntry{*e, int64(*tbl.heightAt(ref))}) != want) {
				t.Fatalf("step %d: get %s disagrees with the model", step, op)
			}
		case 4: // recycle the held slots; grow ahead of need, while a program of doublings stays small
			tbl.recycle(tbl.held)
			tbl.held = slotChain{}
			clear(held)
			if len(tbl.index) < 1<<12 {
				tbl.grow()
			}
		}
		checkTable(t, &tbl, model)
		// A held slot keeps what a trailing reader may look up: nothing
		// reuses it before it is recycled.
		for ref, was := range held {
			if e := tbl.at(ref); e.op != was.op || e.value != was.value {
				t.Fatalf("step %d: held slot %d holds %s worth %d, was %s worth %d", step, ref, e.op, e.value, was.op, was.value)
			}
		}
	}
}

// wrapProgram builds a program for seed whose outpoints all have the last
// slot of the initial index as their home: the run wraps past slot 0, and
// taking its head shifts the rest back across the wrap-around.
func wrapProgram(seed uint64) []byte {
	tbl := newOutpointTable(seed, 0)
	last := uint32(len(tbl.index) - 1)
	prog := binary.LittleEndian.AppendUint64(nil, seed)
	var keys [][2]byte
	for a := 0; a < 256 && len(keys) < 3; a++ {
		for b := 0; b < 8 && len(keys) < 3; b++ {
			op := fuzzOutPoint(byte(a), byte(b))
			if tbl.tag(&op)&last == last {
				keys = append(keys, [2]byte{byte(a), byte(b)})
			}
		}
	}
	for _, k := range keys {
		prog = append(prog, 0, k[0], k[1])
	}
	for _, k := range keys {
		prog = append(prog, 2, k[0], k[1], 3, keys[len(keys)-1][0], keys[len(keys)-1][1])
	}
	return prog
}

func FuzzOutpointTable(f *testing.F) {
	seed := make([]byte, 8)
	// Outpoints sharing their leading 8 txid bytes: vout-only and
	// later-byte-only differences, put, taken in another order, probed.
	shared := append([]byte(nil), seed...)
	for _, k := range [][2]byte{{4, 0}, {4, 1}, {5, 0}, {6, 0}, {7, 3}} {
		shared = append(shared, 0, k[0], k[1])
	}
	for _, k := range [][2]byte{{5, 0}, {4, 0}, {7, 3}, {4, 1}, {6, 0}} {
		shared = append(shared, 3, 4, 1, 2, k[0], k[1])
	}
	f.Add(shared)
	// Forty puts cross three doublings (8 → 64 slots); then every other one
	// is taken and the rest overwritten.
	grown := append([]byte(nil), seed...)
	for i := 0; i < 40; i++ {
		grown = append(grown, 0, byte(i*4), byte(i))
	}
	for i := 0; i < 40; i++ {
		grown = append(grown, byte(1+i%2), byte(i*4), byte(i))
	}
	f.Add(grown)
	f.Add(wrapProgram(1))
	f.Add(wrapProgram(0xfeedfacecafebeef))
	f.Add(append(append([]byte(nil), seed...), 4, 0, 0, 0, 1, 1, 4, 0, 0, 2, 1, 1))
	f.Fuzz(tableProgram)
}

// TestOutpointTableWrapAround pins the seed program's premise — its run
// really does cross the last slot — so the fuzz seed keeps covering the
// backward shift across the wrap-around.
func TestOutpointTableWrapAround(t *testing.T) {
	prog := wrapProgram(1)
	if len(prog) != 8+3*3+3*6 {
		t.Fatalf("wrap program found fewer than three outpoints homed on the last slot (%d bytes)", len(prog))
	}
	tbl := newOutpointTable(1, 0)
	for i := 0; i < 3; i++ {
		op := fuzzOutPoint(prog[8+3*i+1], prog[8+3*i+2])
		tbl.put(&op)
	}
	last := len(tbl.index) - 1
	if tbl.index[last] == 0 || tbl.index[0] == 0 || tbl.index[1] == 0 {
		t.Fatalf("run does not wrap: slots %d,0,1 = %x %x %x", last, tbl.index[last], tbl.index[0], tbl.index[1])
	}
	tableProgram(t, prog)
}

// unmix inverts the finalizer in outpointTable.tag.
func unmix(x uint64) uint64 {
	inverse := func(m uint64) uint64 {
		inv := m // correct to 3 bits; each Newton step doubles that
		for i := 0; i < 5; i++ {
			inv *= 2 - m*inv
		}
		return inv
	}
	x ^= x>>31 ^ x>>62
	x *= inverse(0x94D049BB133111EB)
	x ^= x>>27 ^ x>>54
	x *= inverse(0xBF58476D1CE4E5B9)
	x ^= x>>30 ^ x>>60
	return x
}

// displacement returns how far op's index word sits from its home slot.
func displacement(t *testing.T, tbl *outpointTable, op *btc.OutPoint) int {
	t.Helper()
	tag := tbl.tag(op)
	slot, e := tbl.find(op, tag)
	if e == nil {
		t.Fatalf("outpoint %s not in the table", op)
	}
	mask := uint32(len(tbl.index) - 1)
	return int((slot - tag&mask) & mask)
}

// TestCraftedCollisionsNeedTheSeed: 50 000 outpoints built to share one tag —
// hence one home slot at every index size, and a tag match on every probe —
// under a known seed degrade that table to a linear scan, and are spread
// like any others under the seed a fresh Set draws for itself. Probe
// distance is counted, not timed.
func TestCraftedCollisionsNeedTheSeed(t *testing.T) {
	const n, fixedSeed, sharedTag = 50_000, 0x0123456789abcdef, 0xdeadbeef
	ops := make([]btc.OutPoint, n)
	for i := range ops {
		prefix := unmix(sharedTag<<32|uint64(i)) ^ fixedSeed
		binary.LittleEndian.PutUint64(ops[i].TxID[:8], prefix)
	}

	// Under the seed they were built for, a sample already shows the run.
	const sample = 500
	fixed := newOutpointTable(fixedSeed, 0)
	for i := range ops[:sample] {
		if tag := fixed.tag(&ops[i]); tag != sharedTag {
			t.Fatalf("outpoint %d crafted to tag %08x hashes to %08x", i, uint32(sharedTag), tag)
		}
		fixed.put(&ops[i])
	}
	if d := displacement(t, &fixed, &ops[sample-1]); d != sample-1 {
		t.Fatalf("last of %d crafted outpoints sits %d slots from home under the fixed seed, want %d", sample, d, sample-1)
	}

	// The seed New draws; the table is driven directly, as one address
	// holding 50 000 outputs of one height is a bucket worst case of its own.
	tbl := &New(btc.Regtest).table
	for i := range ops {
		if _, fresh := tbl.put(&ops[i]); !fresh {
			t.Fatalf("outpoint %d already in the table", i)
		}
	}
	check := func(stage string, ops []btc.OutPoint) {
		t.Helper()
		total, worst := 0, 0
		for i := range ops {
			d := displacement(t, tbl, &ops[i])
			total += d
			worst = max(worst, d)
		}
		// At no more than half load a uniform hash leaves the mean
		// displacement under one slot and the longest run at a few dozen.
		if total > len(ops) || worst > 64 {
			t.Fatalf("%s: %d outpoints sit %d slots from home in total, %d at worst", stage, len(ops), total, worst)
		}
	}
	check("after insert", ops)
	for i := 0; i < n; i += 2 {
		if _, _, _, ok := tbl.take(&ops[i]); !ok {
			t.Fatalf("outpoint %d not in the table", i)
		}
		ops[i/2] = ops[i+1]
	}
	check("after taking every other one", ops[:n/2])
}

// TestPointerFreeLayout pins what the set's weight rests on: the index
// words, the arena's two columns, a bucket's slab and its group records hold
// nothing the collector must follow, so all of them live in memory it never
// scans; a group record is 16 bytes and a height 4; and an entry, stored
// once, stays at 48 bytes, the bytes a page walk streams.
func TestPointerFreeLayout(t *testing.T) {
	var noPointers func(reflect.Type, string)
	noPointers = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s: the collector would scan it", path, typ.Kind())
		case reflect.Array:
			noPointers(typ.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				noPointers(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		}
	}
	var tbl outpointTable
	noPointers(reflect.TypeOf(tbl.index).Elem(), "index word")
	noPointers(reflect.TypeOf(tbl.chunks).Elem().Elem(), "arena chunk")
	noPointers(reflect.TypeOf(tbl.heights).Elem().Elem(), "height chunk")
	noPointers(reflect.TypeOf(heightGroup{}), "group record")
	noPointers(reflect.TypeOf(bucket{}.refs).Elem(), "slab ref")
	for _, c := range []struct {
		what       string
		size, want uintptr
	}{
		{"tableEntry", unsafe.Sizeof(tableEntry{}), 48},
		{"a height column slot", reflect.TypeOf(tbl.heights).Elem().Elem().Elem().Size(), 4},
		{"heightGroup", unsafe.Sizeof(heightGroup{}), 16},
	} {
		if c.size != c.want {
			t.Errorf("%s is %d bytes, want %d", c.what, c.size, c.want)
		}
	}
}
