package utxo

import (
	"encoding/binary"
	"math"

	"icbtc/internal/btc"
)

// outpointTable is the set's outpoint → entry store: an open-addressed index
// of 8-byte words over a chunked arena of entries. Neither level holds a
// pointer, so the collector never scans them, and a lookup writes nothing,
// so readers may share the table under a read lock.
//
//   - An index word is tag<<32 | ref+1, zero when the slot is empty. The tag
//     is the high half of the outpoint's seeded hash; its low bits are the
//     home slot, so a word alone says where it belongs: a doubling and a
//     backward-shift delete move words without reading an entry, and a probe
//     reads an entry only on a tag match. Probing is linear at no more than
//     half load, which keeps a probe run inside a cache line or two.
//   - ref indexes the arena, which grows a chunk at a time and never moves an
//     entry; freed slots are chained through their height field and reused
//     last-freed first. A *tableEntry stays valid until its outpoint is taken.
//
// One level of fat slots (the entry stored in the index) would probe as fast,
// but a doubling — which happens inside one block's fold — would allocate,
// clear and refill 64 bytes a slot where this one moves 8, and the empty half
// of the table would cost 64 bytes a slot too: between two doublings a set
// here weighs 72 to 88 bytes an entry, fat slots at the same load 128 to 256.
type outpointTable struct {
	seed   uint64
	index  []uint64
	chunks []*[chunkSize]tableEntry
	// used counts arena slots ever handed out; free heads the chain of freed
	// ones, as ref+1.
	used uint32
	free uint32
	n    int
}

// tableEntry is one stored output: its bucket entry plus the height the
// bucket keeps once per group.
type tableEntry struct {
	bucketEntry
	height int64
}

const (
	chunkBits = 10
	chunkSize = 1 << chunkBits

	minIndexSlots = 8

	// freeSlot in an arena slot's script field marks the slot as free.
	freeSlot = math.MaxUint32
)

// indexSlotsFor returns the index size that holds n entries at no more than
// half load.
func indexSlotsFor(n int) int {
	slots := minIndexSlots
	for slots < 2*n {
		slots *= 2
	}
	return slots
}

// newOutpointTable returns an empty table that takes n entries without
// growing its index. The seed keeps slot placement out of the hands of
// whoever chooses the outpoints.
func newOutpointTable(seed uint64, n int) outpointTable {
	return outpointTable{
		seed:   seed,
		index:  make([]uint64, indexSlotsFor(n)),
		chunks: make([]*[chunkSize]tableEntry, 0, (n+chunkSize-1)/chunkSize),
	}
}

// outpointTag hashes an outpoint to the high half of an index word — the
// set's table and every delta's created-output index share the word format
// and this function. A txid is already a uniform hash, so its leading bytes
// and the vout are all that is mixed; the seed goes in ahead of the (public,
// bijective) finalizer, so which outpoints share a slot cannot be worked out
// without it.
func outpointTag(seed uint64, op *btc.OutPoint) uint32 {
	x := (binary.LittleEndian.Uint64(op.TxID[:8]) ^ seed) + uint64(op.Vout)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return uint32(x >> 32)
}

func (t *outpointTable) tag(op *btc.OutPoint) uint32 { return outpointTag(t.seed, op) }

func (t *outpointTable) at(ref uint32) *tableEntry {
	return &t.chunks[ref>>chunkBits][ref&(chunkSize-1)]
}

// find probes for op: the slot it occupies and its entry, or the empty slot
// that ends its probe run and nil.
func (t *outpointTable) find(op *btc.OutPoint, tag uint32) (uint32, *tableEntry) {
	mask := uint32(len(t.index) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		w := t.index[i]
		if w == 0 {
			return i, nil
		}
		if uint32(w>>32) == tag {
			if e := t.at(uint32(w) - 1); e.op == *op {
				return i, e
			}
		}
	}
}

// get returns op's entry, nil when the table does not hold it.
func (t *outpointTable) get(op *btc.OutPoint) *tableEntry {
	_, e := t.find(op, t.tag(op))
	return e
}

// put returns op's entry and whether this call created it. A created entry
// has its outpoint set and the rest for the caller to fill.
func (t *outpointTable) put(op *btc.OutPoint) (*tableEntry, bool) {
	if 2*(t.n+1) > len(t.index) {
		t.grow()
	}
	tag := t.tag(op)
	i, e := t.find(op, tag)
	if e != nil {
		return e, false
	}
	ref := t.alloc()
	t.index[i] = uint64(tag)<<32 | uint64(ref+1)
	t.n++
	e = t.at(ref)
	e.op = *op
	return e, true
}

// take removes op and returns the entry it had.
func (t *outpointTable) take(op *btc.OutPoint) (tableEntry, bool) {
	i, e := t.find(op, t.tag(op))
	if e == nil {
		return tableEntry{}, false
	}
	taken := *e
	ref := uint32(t.index[i]) - 1
	e.script, e.height = freeSlot, int64(t.free)
	t.free = ref + 1
	t.n--

	// Backward shift: every word further along the run moves into the hole
	// unless its home lies cyclically after the hole, up to and including
	// where it sits.
	mask := uint32(len(t.index) - 1)
	for j := (i + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		if home := uint32(t.index[j]>>32) & mask; (j-home)&mask >= (j-i)&mask {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = 0
	return taken, true
}

// alloc hands out an arena slot: the last one freed, else the next unused,
// in a new chunk when the last is full.
func (t *outpointTable) alloc() uint32 {
	if t.free != 0 {
		ref := t.free - 1
		t.free = uint32(t.at(ref).height)
		return ref
	}
	ref := t.used
	if ref == math.MaxUint32-1 {
		panic("utxo: outpoint table full")
	}
	if int(ref>>chunkBits) == len(t.chunks) {
		t.chunks = append(t.chunks, new([chunkSize]tableEntry))
	}
	t.used++
	return ref
}

// grow doubles the index. A word's home comes from its own tag, so the
// arena is not read.
func (t *outpointTable) grow() {
	index := make([]uint64, 2*len(t.index))
	mask := uint32(len(index) - 1)
	for _, w := range t.index {
		if w == 0 {
			continue
		}
		i := uint32(w>>32) & mask
		for index[i] != 0 {
			i = (i + 1) & mask
		}
		index[i] = w
	}
	t.index = index
}

// each visits every entry in arena order until visit returns false.
func (t *outpointTable) each(visit func(*tableEntry) bool) {
	for ref := uint32(0); ref < t.used; ref++ {
		if e := t.at(ref); e.script != freeSlot && !visit(e) {
			return
		}
	}
}
