package utxo

import (
	"encoding/binary"
	"reflect"
	"testing"
	"unsafe"

	"icbtc/internal/btc"
)

// checkTable compares a table with its model — a Go map, which is what the
// table replaced — and verifies what the model cannot see: the load bound,
// one index word per entry, every word's tag being its entry's, and every
// arena slot either live or on the free chain.
func checkTable(t *testing.T, tbl *outpointTable, model map[btc.OutPoint]tableEntry) {
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
		got := tbl.get(&op)
		if got == nil {
			t.Fatalf("outpoint %s unreachable", op)
		}
		if *got != want {
			t.Fatalf("outpoint %s holds %+v, model %+v", op, *got, want)
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
	tbl.each(func(e *tableEntry) bool {
		if _, ok := model[e.op]; !ok {
			t.Fatalf("each visits %s, which the model does not hold", e.op)
		}
		visited++
		return true
	})
	if visited != tbl.n {
		t.Fatalf("each visits %d of %d entries", visited, tbl.n)
	}
	free := 0
	for ref := tbl.free; ref != 0; ref = uint32(tbl.at(ref - 1).height) {
		if tbl.at(ref-1).script != freeSlot {
			t.Fatalf("arena slot %d on the free chain is not marked free", ref-1)
		}
		if free++; free > int(tbl.used) {
			t.Fatal("free chain loops")
		}
	}
	if free+tbl.n != int(tbl.used) {
		t.Fatalf("%d live + %d free arena slots, %d handed out", tbl.n, free, tbl.used)
	}
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
	model := make(map[btc.OutPoint]tableEntry)
	data = data[8:]
	for step := 0; len(data) >= 3; step, data = step+1, data[3:] {
		op := fuzzOutPoint(data[1], data[2])
		fill := tableEntry{
			bucketEntry: bucketEntry{op: op, script: uint32(data[2]), value: int64(step)},
			height:      int64(data[1]),
		}
		switch data[0] % 5 {
		case 0: // put: creates, or finds what is there and leaves it alone
			e, fresh := tbl.put(&op)
			if _, held := model[op]; fresh == held {
				t.Fatalf("step %d: put reports fresh=%v, model holds=%v", step, fresh, held)
			}
			if e.op != op {
				t.Fatalf("step %d: put returned the entry of %s for %s", step, e.op, op)
			}
			if fresh {
				*e = fill
				model[op] = fill
			}
		case 1: // overwrite through the entry put returns
			e, _ := tbl.put(&op)
			*e = fill
			model[op] = fill
		case 2: // take
			got, ok := tbl.take(&op)
			want, held := model[op]
			if ok != held || (ok && got != want) {
				t.Fatalf("step %d: take %s = %+v, %v; model %+v, %v", step, op, got, ok, want, held)
			}
			delete(model, op)
		case 3: // get
			e := tbl.get(&op)
			want, held := model[op]
			if (e != nil) != held || (held && *e != want) {
				t.Fatalf("step %d: get %s disagrees with the model", step, op)
			}
		case 4: // grow ahead of need, while a program of doublings stays small
			if len(tbl.index) < 1<<12 {
				tbl.grow()
			}
		}
		checkTable(t, &tbl, model)
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
		if _, ok := tbl.take(&ops[i]); !ok {
			t.Fatalf("outpoint %d not in the table", i)
		}
		ops[i/2] = ops[i+1]
	}
	check("after taking every other one", ops[:n/2])
}

// TestPointerFreeLayout pins what the table's gain rests on: the index
// words, the arena entries and the bucket entries hold nothing the collector
// must follow, so all three live in memory it never scans, and a bucket
// entry stays at 48 bytes.
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
	noPointers(reflect.TypeOf(bucketEntry{}), "bucketEntry")
	if size := unsafe.Sizeof(bucketEntry{}); size != 48 {
		t.Errorf("bucketEntry is %d bytes, want 48", size)
	}
	if size := unsafe.Sizeof(tableEntry{}); size != 56 {
		t.Errorf("tableEntry is %d bytes, want 56", size)
	}
}
